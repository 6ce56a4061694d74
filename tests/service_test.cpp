// Tests for the persistent compile service (service::CompileServer +
// the wire protocol). Load-bearing properties:
//   * a function compiled through the server — under any batching, any
//     concurrency, cold or warm — is byte-identical to a direct
//     CompilationDriver::compile of the same input;
//   * malformed or truncated requests get a structured error response,
//     never a hang or a crash;
//   * shutdown drains: a request already submitted when shutdown starts
//     still receives its full response;
//   * the TCP listener serves the same bytes as a direct compile;
//   * a bounded server queue answers BUSY (structured, never a hang or
//     a dropped connection) once full;
//   * a frame announcing the wrong protocol version is answered with a
//     structured VERSION_MISMATCH error on both transports;
//   * a client that stalls mid-frame past the I/O deadline gets a
//     structured timeout error instead of pinning a handler thread.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "ir/printer.hpp"
#include "machine/floorplan.hpp"
#include "pipeline/driver.hpp"
#include "power/model.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "service/transport.hpp"
#include "thermal/grid.hpp"
#include "workload/kernels.hpp"
#include "workload/modules.hpp"

namespace tadfa {
namespace {

constexpr const char* kSpec =
    "cse,dce,alloc=linear:first_free,thermal-dfa,"
    "alloc=coloring:coolest_first,schedule";

struct ServiceTest : ::testing::Test {
  machine::Floorplan fp{machine::RegisterFileConfig::default_config()};
  thermal::ThermalGrid grid{fp};
  power::PowerModel power{fp.config()};

  pipeline::PipelineContext context() const {
    pipeline::PipelineContext ctx;
    ctx.floorplan = &fp;
    ctx.grid = &grid;
    ctx.power = &power;
    return ctx;
  }

  /// A per-test socket path under the system temp dir (kept short:
  /// sun_path caps at ~108 bytes).
  std::string socket_path() const {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    return (std::filesystem::temp_directory_path() /
            (std::string("tadfa-svc-") + info->name() + "-" +
             std::to_string(::getpid()) + ".sock"))
        .string();
  }

  service::ServerConfig config() const {
    service::ServerConfig cfg;
    cfg.socket_path = socket_path();
    cfg.jobs = 2;
    cfg.default_spec = kSpec;
    return cfg;
  }
};

ir::Module test_module(std::size_t functions, std::uint64_t seed = 11) {
  workload::ModuleConfig cfg;
  cfg.functions = functions;
  cfg.seed = seed;
  cfg.random_target_instructions = 60;  // keep the suite fast
  return workload::make_mixed_module(cfg);
}

/// One connect → request → response exchange.
service::CompileResponse roundtrip(const std::string& socket,
                                   const service::CompileRequest& request) {
  std::string error;
  const int fd = service::connect_unix(socket, &error);
  EXPECT_GE(fd, 0) << error;
  EXPECT_TRUE(service::write_request(fd, request, &error)) << error;
  auto response = service::read_response(fd, &error);
  EXPECT_TRUE(response.has_value()) << error;
  ::close(fd);
  return response.value_or(service::error_response("no response"));
}

/// The same exchange over TCP.
service::CompileResponse roundtrip_tcp(std::uint16_t port,
                                       const service::CompileRequest& request) {
  std::string error;
  const int fd = service::connect_tcp("127.0.0.1", port, &error);
  EXPECT_GE(fd, 0) << error;
  EXPECT_TRUE(service::write_request(fd, request, &error)) << error;
  auto response = service::read_response(fd, &error);
  EXPECT_TRUE(response.has_value()) << error;
  ::close(fd);
  return response.value_or(service::error_response("no response"));
}

void expect_matches_direct(const service::CompileResponse& response,
                           const pipeline::ModulePipelineResult& direct) {
  ASSERT_EQ(response.functions.size(), direct.functions.size());
  for (std::size_t i = 0; i < direct.functions.size(); ++i) {
    const service::FunctionResult& served = response.functions[i];
    const pipeline::FunctionCompileResult& ref = direct.functions[i];
    EXPECT_EQ(served.name, ref.name);
    EXPECT_EQ(served.ok, ref.run.ok);
    EXPECT_EQ(served.printed, ir::to_string(ref.run.state.func));
    EXPECT_EQ(served.spilled_regs, ref.run.state.spilled_regs);
    EXPECT_EQ(served.instructions, ref.run.state.func.instruction_count());
    EXPECT_EQ(served.vregs, ref.run.state.func.reg_count());
  }
  const auto direct_stats = direct.merged_pass_stats();
  ASSERT_EQ(response.pass_stats.size(), direct_stats.size());
  for (std::size_t i = 0; i < direct_stats.size(); ++i) {
    EXPECT_EQ(response.pass_stats[i].name, direct_stats[i].name);
    EXPECT_EQ(response.pass_stats[i].summary, direct_stats[i].summary);
    EXPECT_EQ(response.pass_stats[i].changed, direct_stats[i].changed);
    EXPECT_EQ(response.pass_stats[i].instructions_after,
              direct_stats[i].instructions_after);
    EXPECT_EQ(response.pass_stats[i].vregs_after,
              direct_stats[i].vregs_after);
  }
}

TEST_F(ServiceTest, RequestAndResponseSerializationRoundTrips) {
  service::CompileRequest request;
  request.spec = kSpec;
  request.checkpoints = false;
  request.kernels = {"crc32", "fir"};
  request.module_text = "func @f(%0) {\n  ret %0\n}\n";
  ByteWriter w;
  request.serialize(w);
  ByteReader r(w.data());
  const auto decoded = service::CompileRequest::deserialize(r);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, request);

  service::CompileResponse response;
  response.ok = true;
  response.functions.push_back(
      {"f", true, "", true, 2, "func @f...", 12, 3, 1, 0.5});
  response.pass_stats.push_back({"dce", 0.1, "removed 2", true, 10, 3});
  response.cache_attached = true;
  response.cache.hits = 7;
  response.cache.lookup_faults = 1;
  response.server_seconds = 0.25;
  ByteWriter w2;
  response.serialize(w2);
  ByteReader r2(w2.data());
  const auto decoded2 = service::CompileResponse::deserialize(r2);
  ASSERT_TRUE(decoded2.has_value());
  EXPECT_EQ(decoded2->functions, response.functions);
  EXPECT_EQ(decoded2->cache.hits, 7u);
  EXPECT_EQ(decoded2->cache.lookup_faults, 1u);
  EXPECT_EQ(decoded2->cache_hits(), 1u);

  // Truncation at every prefix length must fail cleanly, never crash.
  const std::string bytes = w2.take();
  for (std::size_t len = 0; len < bytes.size(); len += 7) {
    ByteReader truncated(std::string_view(bytes).substr(0, len));
    EXPECT_FALSE(
        service::CompileResponse::deserialize(truncated).has_value());
  }
}

TEST_F(ServiceTest, ModuleTextRequestMatchesDirectCompile) {
  const ir::Module module = test_module(8);
  service::CompileServer server(context(), config());
  ASSERT_TRUE(server.start()) << server.error();

  service::CompileRequest request;
  request.spec = kSpec;
  request.module_text = ir::to_string(module);
  const auto response = roundtrip(config().socket_path, request);
  EXPECT_TRUE(response.ok) << response.error;

  pipeline::CompilationDriver driver(context());
  driver.set_jobs(1);
  const auto direct = driver.compile(module, kSpec);
  ASSERT_TRUE(direct.ok) << direct.error;
  expect_matches_direct(response, direct);
  server.shutdown();
}

TEST_F(ServiceTest, KernelRequestMatchesDirectCompile) {
  service::CompileRequest request;
  request.spec = kSpec;
  request.kernels = {"crc32", "fir"};

  service::CompileServer server(context(), config());
  ASSERT_TRUE(server.start()) << server.error();
  const auto response = roundtrip(config().socket_path, request);
  EXPECT_TRUE(response.ok) << response.error;
  server.shutdown();

  ir::Module module;
  for (const std::string& name : request.kernels) {
    module.add_function(std::move(workload::make_kernel(name)->func));
  }
  pipeline::CompilationDriver driver(context());
  driver.set_jobs(1);
  const auto direct = driver.compile(module, kSpec);
  ASSERT_TRUE(direct.ok) << direct.error;
  expect_matches_direct(response, direct);
}

TEST_F(ServiceTest, ConcurrentClientsGetByteIdenticalResults) {
  // Four clients submit four distinct modules concurrently, twice each
  // (the second wave is served warm from the shared cache). Every
  // response — batched however the dispatcher chose, cold or warm —
  // must match a direct single-threaded compile of that module.
  namespace fs = std::filesystem;
  const fs::path cache_dir =
      fs::temp_directory_path() /
      ("tadfa-svc-concurrent-cache-" + std::to_string(::getpid()));
  fs::remove_all(cache_dir);

  service::ServerConfig cfg = config();
  cfg.cache_dir = cache_dir.string();
  service::CompileServer server(context(), cfg);
  ASSERT_TRUE(server.start()) << server.error();

  constexpr std::size_t kClients = 4;
  std::vector<ir::Module> modules;
  std::vector<pipeline::ModulePipelineResult> direct;
  pipeline::CompilationDriver driver(context());
  driver.set_jobs(1);
  for (std::size_t c = 0; c < kClients; ++c) {
    // Distinct seeds so the four modules do not share function names.
    modules.push_back(test_module(6, /*seed=*/100 + c));
    direct.push_back(driver.compile(modules.back(), kSpec));
    ASSERT_TRUE(direct.back().ok) << direct.back().error;
  }

  for (int wave = 0; wave < 2; ++wave) {
    std::vector<service::CompileResponse> responses(kClients);
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (std::size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        service::CompileRequest request;
        request.spec = kSpec;
        request.module_text = ir::to_string(modules[c]);
        responses[c] = roundtrip(cfg.socket_path, request);
      });
    }
    for (std::thread& t : clients) {
      t.join();
    }
    std::size_t hits = 0;
    for (std::size_t c = 0; c < kClients; ++c) {
      EXPECT_TRUE(responses[c].ok) << responses[c].error;
      expect_matches_direct(responses[c], direct[c]);
      hits += responses[c].cache_hits();
    }
    if (wave == 1) {
      // Every function of the second wave was compiled by the first.
      EXPECT_EQ(hits, kClients * 6);
    }
  }
  const auto metrics = server.metrics();
  EXPECT_EQ(metrics.requests, 2 * kClients);
  EXPECT_EQ(metrics.requests_ok, 2 * kClients);
  EXPECT_GE(metrics.warm_hit_rate, 0.49);  // second wave fully warm
  server.shutdown();
  fs::remove_all(cache_dir);
}

TEST_F(ServiceTest, WarmRequestsHitAtLeast95Percent) {
  namespace fs = std::filesystem;
  const fs::path cache_dir = fs::temp_directory_path() /
                             ("tadfa-svc-warm-" + std::to_string(::getpid()));
  fs::remove_all(cache_dir);
  service::ServerConfig cfg = config();
  cfg.cache_dir = cache_dir.string();
  service::CompileServer server(context(), cfg);
  ASSERT_TRUE(server.start()) << server.error();

  service::CompileRequest request;
  request.spec = kSpec;
  request.module_text = ir::to_string(test_module(12, /*seed=*/7));
  const auto cold = roundtrip(cfg.socket_path, request);
  ASSERT_TRUE(cold.ok) << cold.error;
  EXPECT_EQ(cold.cache_hits(), 0u);
  const auto warm = roundtrip(cfg.socket_path, request);
  ASSERT_TRUE(warm.ok) << warm.error;
  EXPECT_GE(warm.cache_hit_rate(), 0.95);
  ASSERT_EQ(warm.functions.size(), cold.functions.size());
  for (std::size_t i = 0; i < warm.functions.size(); ++i) {
    EXPECT_EQ(warm.functions[i].printed, cold.functions[i].printed);
  }
  server.shutdown();
  fs::remove_all(cache_dir);
}

TEST_F(ServiceTest, BadSpecAndUnknownKernelGetStructuredErrors) {
  service::CompileServer server(context(), config());
  ASSERT_TRUE(server.start()) << server.error();

  service::CompileRequest bad_spec;
  bad_spec.spec = "dce,no-such-pass";
  bad_spec.kernels = {"crc32"};
  const auto r1 = roundtrip(config().socket_path, bad_spec);
  EXPECT_FALSE(r1.ok);
  EXPECT_NE(r1.error.find("no-such-pass"), std::string::npos) << r1.error;

  service::CompileRequest unknown;
  unknown.spec = kSpec;
  unknown.kernels = {"no-such-kernel"};
  const auto r2 = roundtrip(config().socket_path, unknown);
  EXPECT_FALSE(r2.ok);
  EXPECT_NE(r2.error.find("no-such-kernel"), std::string::npos) << r2.error;

  service::CompileRequest empty;
  empty.spec = kSpec;
  const auto r3 = roundtrip(config().socket_path, empty);
  EXPECT_FALSE(r3.ok);
  EXPECT_NE(r3.error.find("empty request"), std::string::npos) << r3.error;
  server.shutdown();
}

TEST_F(ServiceTest, OutOfRangeNopsAndDeepNestingGetErrors) {
  service::CompileServer server(context(), config());
  ASSERT_TRUE(server.start()) << server.error();

  // A nops count past 64 per site is a spec error: INT_MAX would ask for
  // about 10^11 instructions, and one past it once failed an assertion.
  const std::string nops_spec = "alloc=linear:first_free,thermal-dfa,nops=";
  for (const char* count : {"2147483647", "2147483648"}) {
    service::CompileRequest huge_nops;
    huge_nops.spec = nops_spec + count;
    huge_nops.kernels = {"crc32"};
    const auto r1 = roundtrip(config().socket_path, huge_nops);
    EXPECT_FALSE(r1.ok);
    EXPECT_NE(r1.error.find("bad nops per_site"), std::string::npos)
        << r1.error;
  }

  // Source nested past the parser's limit is a parse error, not a stack
  // overflow.
  service::CompileRequest deep;
  deep.spec = kSpec;
  deep.frontend = "texpr";
  deep.module_text = "fn g(a) { return " + std::string(5000, '(') + "a" +
                     std::string(5000, ')') + "; }\n";
  const auto r2 = roundtrip(config().socket_path, deep);
  EXPECT_FALSE(r2.ok);
  EXPECT_NE(r2.error.find("nesting deeper than 256 levels"), std::string::npos)
      << r2.error;

  // The same server still compiles a valid request.
  service::CompileRequest valid;
  valid.spec = kSpec;
  valid.kernels = {"crc32"};
  const auto r3 = roundtrip(config().socket_path, valid);
  EXPECT_TRUE(r3.ok) << r3.error;
  server.shutdown();
}

// kInvalidReg as a register number once failed an assertion inside the
// parse, which runs on the request's connection thread: one request
// killed the server.
TEST_F(ServiceTest, OutOfRangeRegisterGetsErrorAndServerSurvives) {
  service::CompileServer server(context(), config());
  ASSERT_TRUE(server.start()) << server.error();

  service::CompileRequest bad;
  bad.spec = kSpec;
  bad.module_text =
      "func @f(%0) {\nentry:\n  %1 = add %0, %4294967295\n  ret %1\n}\n";
  const auto r1 = roundtrip(config().socket_path, bad);
  EXPECT_FALSE(r1.ok);
  EXPECT_EQ(r1.code, service::ResponseCode::kError);
  EXPECT_EQ(r1.error,
            "module text line 3: number out of range '%4294967295'");

  // The same server still compiles the next request.
  service::CompileRequest valid = bad;
  valid.module_text =
      "func @f(%0) {\nentry:\n  %1 = add %0, %0\n  ret %1\n}\n";
  const auto r2 = roundtrip(config().socket_path, valid);
  EXPECT_TRUE(r2.ok) << r2.error;
  ASSERT_EQ(r2.functions.size(), 1u);
  EXPECT_TRUE(r2.functions[0].ok) << r2.functions[0].error;
  server.shutdown();
}

TEST_F(ServiceTest, MalformedPayloadGetsErrorAndConnectionSurvives) {
  service::CompileServer server(context(), config());
  ASSERT_TRUE(server.start()) << server.error();

  std::string error;
  const int fd = service::connect_unix(config().socket_path, &error);
  ASSERT_GE(fd, 0) << error;
  // A well-framed frame whose payload is garbage: decode error, but the
  // stream stays consistent, so the connection must survive it.
  ASSERT_TRUE(service::write_frame(fd, "this is not a message", &error));
  auto response = service::read_response(fd, &error);
  ASSERT_TRUE(response.has_value()) << error;
  EXPECT_FALSE(response->ok);
  EXPECT_NE(response->error.find("malformed"), std::string::npos)
      << response->error;

  // The same connection then serves a real request.
  service::CompileRequest request;
  request.spec = kSpec;
  request.kernels = {"crc32"};
  ASSERT_TRUE(service::write_request(fd, request, &error)) << error;
  response = service::read_response(fd, &error);
  ASSERT_TRUE(response.has_value()) << error;
  EXPECT_TRUE(response->ok) << response->error;
  ::close(fd);
  server.shutdown();
}

TEST_F(ServiceTest, TruncatedFrameAndBadMagicGetStructuredErrors) {
  service::CompileServer server(context(), config());
  ASSERT_TRUE(server.start()) << server.error();
  std::string error;

  // Truncated: announce 1000 payload bytes, send 3, half-close.
  int fd = service::connect_unix(config().socket_path, &error);
  ASSERT_GE(fd, 0) << error;
  {
    ByteWriter header;
    header.u32(service::kFrameMagic);
    header.u32(service::kProtocolVersion);
    header.u64(1000);
    ASSERT_EQ(::send(fd, header.data().data(), header.data().size(),
                     MSG_NOSIGNAL),
              static_cast<ssize_t>(header.data().size()));
    ASSERT_EQ(::send(fd, "abc", 3, MSG_NOSIGNAL), 3);
    ::shutdown(fd, SHUT_WR);
  }
  auto response = service::read_response(fd, &error);
  ASSERT_TRUE(response.has_value()) << error;
  EXPECT_FALSE(response->ok);
  EXPECT_NE(response->error.find("truncated"), std::string::npos)
      << response->error;
  ::close(fd);

  // Bad magic: 16 bytes of garbage where a header should be.
  fd = service::connect_unix(config().socket_path, &error);
  ASSERT_GE(fd, 0) << error;
  const char garbage[16] = "GARBAGEGARBAGE!";
  ASSERT_EQ(::send(fd, garbage, sizeof(garbage), MSG_NOSIGNAL),
            static_cast<ssize_t>(sizeof(garbage)));
  response = service::read_response(fd, &error);
  ASSERT_TRUE(response.has_value()) << error;
  EXPECT_FALSE(response->ok);
  EXPECT_NE(response->error.find("magic"), std::string::npos)
      << response->error;
  ::close(fd);

  const auto metrics = server.metrics();
  EXPECT_GE(metrics.malformed, 2u);
  server.shutdown();
}

TEST_F(ServiceTest, OversizeFrameAnnouncementIsRejected) {
  service::CompileServer server(context(), config());
  ASSERT_TRUE(server.start()) << server.error();
  std::string error;
  const int fd = service::connect_unix(config().socket_path, &error);
  ASSERT_GE(fd, 0) << error;
  ByteWriter header;
  header.u32(service::kFrameMagic);
  header.u32(service::kProtocolVersion);
  header.u64(service::kMaxFrameBytes + 1);
  ASSERT_EQ(::send(fd, header.data().data(), header.data().size(),
                   MSG_NOSIGNAL),
            static_cast<ssize_t>(header.data().size()));
  const auto response = service::read_response(fd, &error);
  ASSERT_TRUE(response.has_value()) << error;
  EXPECT_FALSE(response->ok);
  EXPECT_NE(response->error.find("exceeds"), std::string::npos)
      << response->error;
  ::close(fd);
  server.shutdown();
}

TEST_F(ServiceTest, ShutdownDrainsInFlightRequests) {
  service::CompileServer server(context(), config());
  ASSERT_TRUE(server.start()) << server.error();

  // The client fires a request and the main thread immediately starts
  // shutting the server down; the response must still arrive complete.
  service::CompileRequest request;
  request.spec = kSpec;
  request.module_text = ir::to_string(test_module(10, /*seed=*/5));
  service::CompileResponse response;
  std::thread client([&] {
    response = roundtrip(config().socket_path, request);
  });
  // Give the request a moment to reach the server queue, then drain.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  server.shutdown();
  client.join();
  EXPECT_TRUE(response.ok) << response.error;
  EXPECT_EQ(response.functions.size(), 10u);
}

TEST_F(ServiceTest, StalePathHandlingOnStart) {
  // A leftover socket file is reclaimed; a regular file refuses.
  const std::string path = socket_path();
  {
    service::CompileServer first(context(), config());
    ASSERT_TRUE(first.start()) << first.error();
    first.shutdown();
  }
  // shutdown() unlinks; recreate a stale-looking server artifact by
  // starting and *not* connecting, then killing via destructor.
  {
    service::CompileServer again(context(), config());
    ASSERT_TRUE(again.start()) << again.error();
    again.shutdown();
  }
  std::ofstream(path) << "not a socket";
  service::CompileServer refused(context(), config());
  EXPECT_FALSE(refused.start());
  EXPECT_NE(refused.error().find("not a socket"), std::string::npos)
      << refused.error();
  std::filesystem::remove(path);
}

TEST_F(ServiceTest, TcpTransportMatchesDirectCompile) {
  service::ServerConfig cfg;
  cfg.tcp_host = "127.0.0.1";
  cfg.tcp_port = 0;  // ephemeral
  cfg.jobs = 2;
  cfg.default_spec = kSpec;
  service::CompileServer server(context(), cfg);
  ASSERT_TRUE(server.start()) << server.error();
  ASSERT_NE(server.tcp_port(), 0);

  service::CompileRequest request;
  request.spec = kSpec;
  request.kernels = {"crc32", "fir", "matmul", "vecsum", "stencil3", "idct8"};
  const auto response = roundtrip_tcp(server.tcp_port(), request);
  EXPECT_TRUE(response.ok) << response.error;
  EXPECT_EQ(response.code, service::ResponseCode::kOk);

  ir::Module module;
  for (const std::string& name : request.kernels) {
    module.add_function(std::move(workload::make_kernel(name)->func));
  }
  pipeline::CompilationDriver driver(context());
  driver.set_jobs(2);
  expect_matches_direct(response, driver.compile(module, kSpec));
  server.shutdown();
}

TEST_F(ServiceTest, BoundedQueueAnswersBusy) {
  // jobs=1 and max_queue=1: while the dispatcher compiles a large
  // module, the queue holds at most one follow-up; the next request is
  // shed with a structured BUSY.
  service::ServerConfig cfg = config();
  cfg.jobs = 1;
  cfg.max_queue = 1;
  service::CompileServer server(context(), cfg);
  ASSERT_TRUE(server.start()) << server.error();

  service::CompileRequest big;
  big.spec = kSpec;
  big.module_text = ir::to_string(test_module(48));

  service::CompileRequest small;
  small.spec = kSpec;
  small.kernels = {"crc32"};

  // BUSY requires a precise state — the big request *inside* the
  // dispatcher (the dispatcher drains the whole queue into each batch,
  // so a queued request alone is not enough) and a small one occupying
  // the queue's single slot. Wall-clock sleeps are flaky under
  // sanitizer slowdowns, so synchronize on the server's own metrics:
  // queue_peak rises when big is admitted, queue_depth falls back to 0
  // when the dispatcher takes it, and rises again when the small
  // request is queued behind the running compile.
  const auto wait_for = [&](auto&& pred, const char* what) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (!pred()) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline) << what;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  std::atomic<bool> big_done{false};
  std::thread big_client([&] {
    const auto response = roundtrip(cfg.socket_path, big);
    big_done.store(true);
    EXPECT_TRUE(response.ok) << response.error;
  });
  wait_for([&] { return server.metrics().queue_peak >= 1; },
           "big request never reached the queue");
  wait_for([&] { return server.metrics().queue_depth == 0; },
           "big request never left the queue");
  ASSERT_FALSE(big_done.load())
      << "big compile finished before the queue could fill; the module "
         "is too small for this machine";
  std::thread queued_client([&] {
    const auto response = roundtrip(cfg.socket_path, small);
    // Queued or shed are both legal for this one; it must simply
    // complete with a structured response.
    EXPECT_FALSE(response.functions.empty() && response.error.empty());
  });
  wait_for([&] { return server.metrics().queue_depth >= 1; },
           "small request never occupied the queue slot");
  ASSERT_FALSE(big_done.load())
      << "big compile finished before the probe; the module is too "
         "small for this machine";
  // Queue full, dispatcher pinned: the probe must come back as a
  // structured BUSY, not block.
  bool saw_busy = false;
  for (int i = 0; i < 3 && !saw_busy; ++i) {
    const auto probe = roundtrip(cfg.socket_path, small);
    if (!probe.ok && probe.code == service::ResponseCode::kBusy) {
      saw_busy = true;
      EXPECT_NE(probe.error.find("at capacity"), std::string::npos)
          << probe.error;
    }
  }
  // A burst of concurrent probes against the full queue: none may be
  // dropped or garbled — each decodes to OK (admitted once the queue
  // drained) or a structured BUSY.
  constexpr int kBurst = 8;
  std::vector<service::CompileResponse> burst(kBurst);
  std::vector<std::thread> probes;
  for (int i = 0; i < kBurst; ++i) {
    probes.emplace_back(
        [&, i] { burst[i] = roundtrip(cfg.socket_path, small); });
  }
  for (std::thread& t : probes) {
    t.join();
  }
  for (const service::CompileResponse& probe : burst) {
    EXPECT_TRUE(probe.code == service::ResponseCode::kOk ||
                probe.code == service::ResponseCode::kBusy)
        << probe.error;
  }
  big_client.join();
  queued_client.join();
  EXPECT_TRUE(saw_busy) << "no request was shed while the dispatcher was "
                           "pinned by a 48-function compile";
  const auto metrics = server.metrics();
  EXPECT_GT(metrics.requests_busy, 0u);
  EXPECT_GE(metrics.queue_peak, 1u);
  EXPECT_EQ(metrics.malformed, 0u);
  server.shutdown();
}

TEST_F(ServiceTest, SpoofedProtocolVersionGetsStructuredErrorBothTransports) {
  service::ServerConfig cfg = config();
  cfg.tcp_host = "127.0.0.1";
  cfg.tcp_port = 0;
  service::CompileServer server(context(), cfg);
  ASSERT_TRUE(server.start()) << server.error();

  service::CompileRequest request;
  request.spec = kSpec;
  request.kernels = {"crc32"};
  ByteWriter payload;
  request.serialize(payload);

  // A v2 frame: correct magic and framing, older version word.
  ByteWriter frame;
  frame.u32(service::kFrameMagic);
  frame.u32(2);
  frame.u64(payload.data().size());
  const std::string spoofed = frame.data() + payload.data();

  auto expect_mismatch = [&](int fd) {
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::send(fd, spoofed.data(), spoofed.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(spoofed.size()));
    std::string error;
    const auto response = service::read_response(fd, &error);
    ASSERT_TRUE(response.has_value()) << error;
    EXPECT_FALSE(response->ok);
    EXPECT_EQ(response->code, service::ResponseCode::kVersionMismatch);
    // The refusal names both versions: the spoofed one and whatever
    // this build actually speaks (don't hard-code the latter — it
    // bumps with the protocol).
    EXPECT_NE(response->error.find("v2"), std::string::npos)
        << response->error;
    EXPECT_NE(response->error.find(
                  "v" + std::to_string(service::kProtocolVersion)),
              std::string::npos)
        << response->error;
    ::close(fd);
  };

  std::string error;
  expect_mismatch(service::connect_unix(cfg.socket_path, &error));
  expect_mismatch(service::connect_tcp("127.0.0.1", server.tcp_port(),
                                       &error));
  const auto metrics = server.metrics();
  EXPECT_EQ(metrics.version_mismatches, 2u);
  server.shutdown();
}

TEST_F(ServiceTest, StallingClientGetsStructuredTimeout) {
  service::ServerConfig cfg = config();
  cfg.io_timeout_seconds = 0.2;
  service::CompileServer server(context(), cfg);
  ASSERT_TRUE(server.start()) << server.error();

  // Half a header, then silence: the handler must answer a structured
  // timeout shortly after the deadline, not hold the connection open.
  std::string error;
  const int fd = service::connect_unix(cfg.socket_path, &error);
  ASSERT_GE(fd, 0) << error;
  ByteWriter header;
  header.u32(service::kFrameMagic);
  header.u32(service::kProtocolVersion);
  const std::string partial = header.data();
  ASSERT_EQ(::send(fd, partial.data(), partial.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(partial.size()));

  const auto before = std::chrono::steady_clock::now();
  const auto response = service::read_response(fd, &error);
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - before)
          .count();
  ASSERT_TRUE(response.has_value()) << error;
  EXPECT_FALSE(response->ok);
  EXPECT_EQ(response->code, service::ResponseCode::kTimeout);
  EXPECT_LT(waited, 5.0);
  ::close(fd);

  // An idle connection (no bytes at all) is closed quietly: EOF, not
  // an error frame.
  const int idle = service::connect_unix(cfg.socket_path, &error);
  ASSERT_GE(idle, 0) << error;
  char byte = 0;
  const ssize_t got = ::recv(idle, &byte, 1, 0);
  EXPECT_EQ(got, 0);
  ::close(idle);

  const auto metrics = server.metrics();
  EXPECT_EQ(metrics.timeouts, 1u);
  server.shutdown();
}

}  // namespace
}  // namespace tadfa
