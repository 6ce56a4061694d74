// served_edits: an open loop of edit-aware resubmits into an in-process
// CompileServer, as `tadfa serve --incremental` runs it.
//
// Each sender owns one connection and one mixed module with `ref` edges,
// which set-up compiles once. Every request resubmits the sender's whole
// module; a seeded draw makes most of them unchanged (cache reads), some
// bump one immediate in one function (that function and its dependents
// recompile and new records are stored), and a few extend the flow by
// `bank-gating` (a resume from stage snapshots).
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <thread>

#include "ir/printer.hpp"
#include "pipeline/driver.hpp"
#include "pipeline/result_cache.hpp"
#include "seeds.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "open_loop.hpp"
#include "speed.hpp"
#include "workload/modules.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace fs = std::filesystem;
namespace tp = tadfa::pipeline;
namespace ts = tadfa::service;

namespace {

constexpr int kSetupRepeats = 5;
constexpr std::size_t kSenders = 2;
constexpr std::size_t kModuleFunctions = 24;
constexpr unsigned kServerJobs = 2;
/// Requests per second from each sender.
constexpr double kRatePerSender = 10;
/// Shares of the request mix; the rest are unchanged resubmits.
constexpr double kEditShare = 0.15;
constexpr double kGatingShare = 0.05;

const std::string kGatingSpec = std::string(kDefaultSpec) + ",bank-gating";

enum class Kind { kUnchanged, kEdit, kGating };

/// A function body by (name, ir::fingerprint): what a response's entry
/// must equal the direct compile of.
using BodyKey = std::pair<std::string, std::uint64_t>;

struct Response {
  Kind kind = Kind::kUnchanged;
  bool ok = false;
  std::string error;
  double server_seconds = 0;
  std::size_t from_cache = 0;
  std::size_t request_bytes = 0;
  std::size_t response_bytes = 0;
  /// Per function, module order: the input body and the hash of the
  /// printed output.
  std::vector<BodyKey> bodies;
  std::vector<std::uint64_t> printed;
};

/// Bumps the first immediate of `func`: a verifier-clean edit that
/// changes its fingerprint. False when it has none.
bool bump_immediate(tadfa::ir::Function& func) {
  for (tadfa::ir::BasicBlock& block : func.blocks()) {
    for (tadfa::ir::Instruction& inst : block.instructions()) {
      for (tadfa::ir::Operand& op : inst.operands()) {
        if (op.is_imm()) {
          op = tadfa::ir::Operand::imm(op.imm() + 1);
          return true;
        }
      }
    }
  }
  return false;
}

/// A corpus mixed module salted by the seed, whose names carry the
/// sender's prefix so each sender's dependency graph has its own slot.
tadfa::ir::Module sender_module(std::uint64_t seed, std::size_t sender) {
  tadfa::workload::ModuleConfig config;
  config.functions = kModuleFunctions;
  config.seed = mix_seed(kCorpusSeed, 100 + sender);
  const tadfa::ir::Module base = tadfa::workload::make_mixed_module(config);
  const std::string prefix = "s" + std::to_string(sender) + "_";
  SeedStream rng(mix_seed(seed, 100 + sender));
  tadfa::ir::Module module;
  for (tadfa::ir::Function f : base.functions()) {
    f.set_name(prefix + f.name());
    salt_function(f, rng.range(1, 1 << 20));
    module.add_function(std::move(f));
  }
  for (const tadfa::ir::ModuleReference& ref : base.references()) {
    module.add_reference(prefix + ref.from, prefix + ref.to);
  }
  return module;
}

int connect_socket(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return -1;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    ::close(fd);
    return -1;
  }
  path.copy(addr.sun_path, path.size());
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// One sender: its connection, its module as edited so far, and the
/// responses it collected.
struct Sender {
  std::size_t index = 0;
  int fd = -1;
  tadfa::ir::Module module;
  SeedStream rng{0};
  /// Edits visit the functions in this seeded order, round after round,
  /// so every function is edited equally often: recompiling a random
  /// program costs ten times a kernel's, and letting each draw pick the
  /// target would let luck decide the tail.
  std::vector<std::size_t> edit_order;
  std::size_t edits = 0;
  /// Every function body this sender has sent, for the reference.
  std::map<BodyKey, tadfa::ir::Function> bodies;
  std::vector<Response> responses;
  std::vector<RequestTiming> timings;
  /// Reference bursts run in the idle time before a request is due.
  SpeedProbe speed;

  Sender() = default;
  Sender(const Sender&) = delete;
  Sender& operator=(const Sender&) = delete;
  ~Sender() {
    if (fd >= 0) {
      ::close(fd);
    }
  }

  /// Applies the k-th draw of the mix to the module; returns its kind.
  Kind next_kind() {
    const double u = rng.uniform();
    if (u < kGatingShare) {
      return Kind::kGating;
    }
    if (u < kGatingShare + kEditShare) {
      auto& functions = module.functions();
      for (std::size_t i = 0; i < functions.size(); ++i) {
        tadfa::ir::Function& f =
            functions[edit_order[edits++ % edit_order.size()]];
        if (bump_immediate(f)) {
          bodies.emplace(BodyKey{f.name(), tadfa::ir::fingerprint(f)}, f);
          return Kind::kEdit;
        }
      }
    }
    return Kind::kUnchanged;
  }

  /// Sends the module (edit-aware) and reads the response; records it.
  bool request(Kind kind, const std::string& text, Tracer* tracer,
               Clock::time_point origin, double due_s) {
    ts::CompileRequest req;
    req.spec = kind == Kind::kGating ? kGatingSpec : "";
    req.module_text = text;
    req.edit_aware = true;
    Response r;
    r.kind = kind;
    r.request_bytes = text.size();
    for (const tadfa::ir::Function& f : module.functions()) {
      r.bodies.emplace_back(f.name(), tadfa::ir::fingerprint(f));
    }
    const Clock::time_point t0 = Clock::now();
    std::string error;
    std::optional<ts::CompileResponse> resp;
    if (ts::write_request(fd, req, &error)) {
      const Clock::time_point t1 = Clock::now();
      resp = ts::read_response(fd, &error);
      const Clock::time_point t2 = Clock::now();
      if (tracer != nullptr) {
        const auto us = [&](Clock::time_point t) { return tracer->us(t); };
        static constexpr const char* kKindNames[] = {"unchanged", "edit",
                                                     "gating"};
        const std::string id = "s" + std::to_string(index) + "/" +
                               std::to_string(responses.size()) + " " +
                               kKindNames[static_cast<int>(kind)];
        const double due_us =
            us(origin) + due_s * 1e6;
        const int lane = static_cast<int>(index) + 1;
        const int top =
            tracer->add("request", due_us, us(t2), kNoParent, id, lane);
        tracer->add("write_request", us(t0), us(t1), top, id, lane);
        const int read =
            tracer->add("read_response", us(t1), us(t2), top, id, lane);
        if (resp.has_value()) {
          const double end =
              std::min(us(t2), us(t1) + resp->server_seconds * 1e6);
          tracer->add("server.compile", us(t1), end, read, id, lane);
        }
      }
    }
    if (!resp.has_value()) {
      r.error = "transport: " + error;
    } else {
      r.ok = resp->ok && resp->code == ts::ResponseCode::kOk;
      if (!r.ok) {
        r.error = std::string(ts::response_code_name(resp->code)) + ": " +
                  resp->error;
      } else if (resp->functions.size() != r.bodies.size()) {
        r.ok = false;
        r.error = "response has " + std::to_string(resp->functions.size()) +
                  " functions, request had " + std::to_string(r.bodies.size());
      }
      r.server_seconds = resp->server_seconds;
      for (std::size_t i = 0; i < resp->functions.size(); ++i) {
        const ts::FunctionResult& f = resp->functions[i];
        r.from_cache += f.from_cache ? 1 : 0;
        r.response_bytes += f.printed.size();
        r.printed.push_back(text_hash(f.printed));
        if (i < r.bodies.size() && f.name != r.bodies[i].first) {
          r.ok = false;
          r.error = "response function " + f.name + " out of order";
        }
      }
    }
    const bool ok = r.ok;
    responses.push_back(std::move(r));
    return ok;
  }
};

/// The server, its working directory and the connected senders.
struct Service {
  fs::path dir;
  std::unique_ptr<ts::CompileServer> server;
  std::vector<std::unique_ptr<Sender>> senders;

  ~Service() {
    senders.clear();
    if (server != nullptr) {
      server->shutdown();
    }
    std::error_code ec;
    fs::remove_all(dir, ec);
  }
};

/// Starts a server on a fresh cache and compiles each sender's module
/// once through it. Returns "" or what went wrong.
std::string start_service(const Options& options, const tp::CompileRig& rig,
                          int attempt, Service& service) {
  service.dir =
      fs::path(options.work_dir) / ("served-" + std::to_string(attempt));
  std::error_code ec;
  fs::remove_all(service.dir, ec);
  fs::create_directories(service.dir, ec);
  if (ec) {
    return "cannot create " + service.dir.string() + ": " + ec.message();
  }
  ts::ServerConfig config;
  config.socket_path = (service.dir / "sock").string();
  config.jobs = kServerJobs;
  config.default_spec = kDefaultSpec;
  config.cache_dir = (service.dir / "cache").string();
  config.stage_policy.enabled = true;
  service.server = std::make_unique<ts::CompileServer>(rig.context(), config);
  if (!service.server->start()) {
    return "server start: " + service.server->error();
  }
  for (std::size_t s = 0; s < kSenders; ++s) {
    auto sender = std::make_unique<Sender>();
    sender->index = s;
    sender->module = sender_module(options.seed, s);
    for (const tadfa::ir::Function& f : sender->module.functions()) {
      sender->bodies.emplace(BodyKey{f.name(), tadfa::ir::fingerprint(f)}, f);
    }
    sender->rng = SeedStream(mix_seed(options.seed, 200 + s));
    for (std::size_t i = 0; i < sender->module.size(); ++i) {
      // Seeded Fisher-Yates.
      sender->edit_order.push_back(i);
      std::swap(sender->edit_order[i],
                sender->edit_order[sender->rng.next() % (i + 1)]);
    }
    sender->fd = connect_socket(config.socket_path);
    if (sender->fd < 0) {
      return "cannot connect to " + config.socket_path;
    }
    if (!sender->request(Kind::kUnchanged,
                         tadfa::ir::to_string(sender->module), nullptr,
                         Clock::now(), 0)) {
      return "pre-warm: " + sender->responses.back().error;
    }
    sender->responses.clear();
    service.senders.push_back(std::move(sender));
  }
  return "";
}

/// Idle time before a due request that leaves room for a reference burst.
constexpr double kBurstSlackSeconds = 0.005;

/// Runs every sender's open loop for `seconds`, with spans when `tracer`
/// is set; returns the host speed over the loop.
SpeedProbe run_senders(Service& service, double seconds, Tracer* tracer) {
  const double period = 1.0 / kRatePerSender;
  const auto count = static_cast<std::size_t>(seconds * kRatePerSender);
  const Clock::time_point origin = Clock::now();
  std::vector<std::thread> threads;
  for (auto& owned : service.senders) {
    Sender* sender = owned.get();
    sender->speed = SpeedProbe();
    threads.emplace_back([=] {
      const OpenLoopClock clock{
          [origin] { return seconds_since(origin); },
          [origin, sender](double t) {
            if (t - seconds_since(origin) > kBurstSlackSeconds) {
              sender->speed.sample();
            }
            std::this_thread::sleep_until(
                origin + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(t)));
          }};
      const double phase =
          period * static_cast<double>(sender->index) / kSenders;
      std::vector<RequestTiming> t = run_open_loop(
          count, period, phase, 3 * seconds + 10, clock,
          [&](std::size_t k) {
            const Kind kind = sender->next_kind();
            const std::string text = tadfa::ir::to_string(sender->module);
            sender->request(kind, text, tracer, origin,
                            phase + static_cast<double>(k) * period);
          });
      sender->timings.insert(sender->timings.end(), t.begin(), t.end());
      const std::size_t unsent = count - t.size();
      for (std::size_t i = 0; i < unsent; ++i) {
        Response r;
        r.error = "not sent: the run passed its deadline";
        sender->responses.push_back(std::move(r));
        sender->timings.push_back(RequestTiming{});
      }
    });
  }
  SpeedProbe speed;
  for (std::size_t s = 0; s < threads.size(); ++s) {
    threads[s].join();
    speed.merge(service.senders[s]->speed);
  }
  return speed;
}

/// Direct CompilationDriver compiles of every distinct (spec, body) the
/// responses cover; a response entry must print byte-identically.
class Reference {
 public:
  Reference(const tp::CompileRig& rig,
            const std::vector<std::unique_ptr<Sender>>& senders)
      : rig_(rig) {
    for (const auto& s : senders) {
      bodies_.insert(s->bodies.begin(), s->bodies.end());
      for (const tadfa::ir::Function& f : s->module.functions()) {
        final_.insert({f.name(), tadfa::ir::fingerprint(f)});
      }
    }
  }

  /// Compiles every body `responses` name under its spec.
  std::string compile(const std::vector<const Response*>& responses);

  /// Expected printed hash; nullopt when the body was never compiled.
  std::optional<std::uint64_t> expected(bool gating, const BodyKey& key) const {
    const auto& table = gating ? gating_ : default_;
    const auto it = table.find(key);
    return it == table.end() ? std::nullopt
                             : std::optional<std::uint64_t>(it->second);
  }

  /// Interpreter checks and quality of the senders' final modules.
  Quality check_final(RunResult& result) const;

 private:
  struct Output {
    tadfa::ir::Function input;
    tadfa::ir::Function output;
    tadfa::machine::RegisterAssignment assignment;
  };

  std::string compile_set(const std::set<BodyKey>& keys, bool gating);

  const tp::CompileRig& rig_;
  std::map<BodyKey, tadfa::ir::Function> bodies_;
  std::set<BodyKey> final_;
  std::map<BodyKey, std::uint64_t> default_;
  std::map<BodyKey, std::uint64_t> gating_;
  std::map<BodyKey, Output> final_outputs_;
};

std::string Reference::compile(const std::vector<const Response*>& responses) {
  std::set<BodyKey> plain, gating;
  for (const Response* r : responses) {
    for (const BodyKey& key : r->bodies) {
      (r->kind == Kind::kGating ? gating : plain).insert(key);
    }
  }
  plain.insert(final_.begin(), final_.end());
  std::string error = compile_set(plain, false);
  return error.empty() ? compile_set(gating, true) : error;
}

std::string Reference::compile_set(const std::set<BodyKey>& keys, bool gating) {
  // Bodies sharing a name go to different modules, so names stay unique.
  std::vector<tadfa::ir::Module> modules;
  std::vector<std::set<std::string>> names;
  for (const BodyKey& key : keys) {
    const auto body = bodies_.find(key);
    if (body == bodies_.end()) {
      return "no input body for " + key.first;
    }
    std::size_t m = 0;
    while (m < modules.size() && names[m].count(key.first) != 0) {
      ++m;
    }
    if (m == modules.size()) {
      modules.emplace_back();
      names.emplace_back();
    }
    modules[m].add_function(body->second);
    names[m].insert(key.first);
  }
  tp::CompilationDriver driver(rig_.context());
  driver.set_jobs(kServerJobs);
  const std::string spec = gating ? kGatingSpec : std::string(kDefaultSpec);
  for (const tadfa::ir::Module& module : modules) {
    const tp::ModulePipelineResult out = driver.compile(module, spec);
    if (!out.ok) {
      return "reference compile: " + out.error;
    }
    for (std::size_t i = 0; i < out.functions.size(); ++i) {
      const tadfa::ir::Function& input = module.functions()[i];
      const BodyKey key{input.name(), tadfa::ir::fingerprint(input)};
      const tp::PipelineState& state = out.functions[i].run.state;
      (gating ? gating_ : default_)[key] =
          text_hash(tadfa::ir::to_string(state.func));
      if (!gating && final_.count(key) != 0 && state.assignment() != nullptr) {
        final_outputs_.emplace(key,
                               Output{input, state.func, *state.assignment()});
      }
    }
  }
  return "";
}

Quality Reference::check_final(RunResult& result) const {
  Quality quality;
  for (const BodyKey& key : final_) {
    const auto it = final_outputs_.find(key);
    if (it == final_outputs_.end()) {
      result.fail(key.first + ": no reference output");
      continue;
    }
    const Output& o = it->second;
    const CheckInput in = seeded_input(o.input.params().size(), key.second);
    const std::string why =
        check_function(rig_, o.input, o.output, o.assignment, in, quality);
    if (!why.empty()) {
      result.fail(why);
    }
  }
  return quality;
}

}  // namespace

RunResult run_served_edits(const Options& options) {
  RunResult result;
  Clock::time_point phase_start = Clock::now();
  const auto phase = [&](const char* name) {
    result.phases.emplace_back(name, seconds_since(phase_start));
    phase_start = Clock::now();
  };
  std::unique_ptr<tp::CompileRig> rig;
  auto service = std::make_unique<Service>();
  std::string setup_error;
  int attempt = 0;
  const double setup_s = median_setup_seconds(kSetupRepeats, [&](bool last) {
    service.reset();
    rig = std::make_unique<tp::CompileRig>(default_machine());
    service = std::make_unique<Service>();
    const std::string error = start_service(options, *rig, attempt++, *service);
    if (!error.empty() && setup_error.empty()) {
      setup_error = error;
    }
    if (!last) {
      service.reset();
    }
  });
  result.config = {
      {"workload", "\"served_edits\""},
      {"seed", std::to_string(options.seed)},
      {"spec", "\"" + std::string(kDefaultSpec) + "\""},
      {"machine", "\"default\""},
      {"jobs", std::to_string(kServerJobs)},
      {"senders", std::to_string(kSenders)},
      {"rate_per_sender", std::to_string(kRatePerSender)},
      {"module_functions", std::to_string(kModuleFunctions)},
      {"edit_share", std::to_string(kEditShare)},
      {"gating_share", std::to_string(kGatingShare)},
      {"seconds", std::to_string(options.seconds)},
  };
  if (!setup_error.empty()) {
    result.attempted = 1;
    result.fail(setup_error);
    return result;
  }

  phase("setup");
  Service& svc = *service;
  const double timed = options.trace ? options.seconds / 2 : options.seconds;
  const SpeedProbe untraced_speed = run_senders(svc, timed, nullptr);
  result.speed_factor = untraced_speed.factor();
  std::vector<std::size_t> untraced_end;
  for (const auto& s : svc.senders) {
    untraced_end.push_back(s->responses.size());
  }
  SpeedProbe traced_speed;
  if (options.trace) {
    result.tracer = std::make_unique<Tracer>();
    traced_speed = run_senders(svc, timed, result.tracer.get());
    result.speed_factor = traced_speed.factor();
  }
  const double rss_mb = peak_rss_mb();
  const ts::ServerMetrics server = svc.server->metrics();
  svc.server->shutdown();
  const tp::ResultCache reopened((svc.dir / "cache").string());
  phase("timed");

  // Output checks: every response against a direct compile.
  Reference reference(*rig, svc.senders);
  std::vector<const Response*> all;
  for (const auto& s : svc.senders) {
    for (const Response& r : s->responses) {
      all.push_back(&r);
    }
  }
  const std::string ref_error = reference.compile(all);
  if (!ref_error.empty()) {
    result.fail(ref_error);
  }
  for (const Response* r : all) {
    ++result.attempted;
    if (!r->ok) {
      result.fail(r->error);
      continue;
    }
    for (std::size_t i = 0; i < r->bodies.size(); ++i) {
      const auto want =
          reference.expected(r->kind == Kind::kGating, r->bodies[i]);
      if (!want.has_value() || *want != r->printed[i]) {
        result.fail(r->bodies[i].first +
                    ": served output differs from a direct compile");
        break;
      }
    }
  }
  phase("reference compiles");
  const Quality quality = reference.check_final(result);
  phase("checks");

  // Samples of the untraced or the traced requests of every sender.
  struct Phase {
    std::vector<double> latency_s, server_s, per_function_s, overhead_s;
    std::vector<double> restore_s;
    double functions = 0, server_total_s = 0, lag_max_s = 0;
    double request_bytes = 0, response_bytes = 0, edits = 0, recompiled = 0;
    std::size_t ok = 0;
  };
  const auto samples = [&](bool traced) {
    Phase p;
    for (std::size_t s = 0; s < svc.senders.size(); ++s) {
      const Sender& sender = *svc.senders[s];
      const std::size_t from = traced ? untraced_end[s] : 0;
      const std::size_t to =
          traced ? sender.responses.size() : untraced_end[s];
      for (std::size_t k = from; k < to; ++k) {
        const Response& r = sender.responses[k];
        const RequestTiming& t = sender.timings[k];
        if (!r.ok) {
          continue;
        }
        const double n = static_cast<double>(r.bodies.size());
        ++p.ok;
        p.latency_s.push_back(t.latency_s());
        p.server_s.push_back(r.server_seconds);
        p.per_function_s.push_back(r.server_seconds / n);
        p.overhead_s.push_back(t.done_s - t.sent_s - r.server_seconds);
        p.functions += n;
        p.server_total_s += r.server_seconds;
        p.lag_max_s = std::max(p.lag_max_s, t.lag_s());
        p.request_bytes += static_cast<double>(r.request_bytes);
        p.response_bytes += static_cast<double>(r.response_bytes);
        if (r.from_cache == r.bodies.size()) {
          p.restore_s.push_back(r.server_seconds / n);
        }
        if (r.kind == Kind::kEdit) {
          ++p.edits;
          p.recompiled += n - static_cast<double>(r.from_cache);
        }
      }
    }
    return p;
  };
  const Phase untraced = samples(false);

  if (!options.trace) {
    result.add("setup_s", setup_s);
    result.add("functions_per_sec",
               untraced.server_total_s > 0
                   ? untraced.functions / untraced.server_total_s
                   : 0);
    result.add("function_p50_ms", median(untraced.per_function_s) * 1e3);
    result.add("function_tail_ms", tail(untraced.per_function_s).value * 1e3);
    result.add("request_p50_ms", median(untraced.latency_s) * 1e3);
    result.add("request_tail_ms", tail(untraced.latency_s).value * 1e3);
    result.add("peak_rss_mb", rss_mb);
    result.add("code_instrs", static_cast<double>(quality.code_instrs));
    result.add("exec_cycles", quality.exec_cycles());
    result.add("replay_peak_c", quality.replay_peak_c());
    const Tail t = tail(untraced.latency_s);
    result.config.emplace_back(
        "request_tail", "\"p" + std::to_string(t.pct) + " of " +
                            std::to_string(t.samples) + "\"");
    return result;
  }

  const Phase traced = samples(true);
  const double requests = std::max<double>(1, static_cast<double>(traced.ok));
  result.add("cache.hit_rate", server.cache.hit_rate());
  result.add("cache.stores", static_cast<double>(server.cache.stores));
  result.add("cache.stage_hits", static_cast<double>(server.cache.stage_hits));
  result.add("cache.graph_stores",
             static_cast<double>(server.cache.graph_stores));
  result.add("cache.bad_entries",
             static_cast<double>(server.cache.bad_entries));
  result.add("cache.disk_kb", reopened.total_bytes() / 1024.0);
  result.add("cache.restore_us_per_function", median(traced.restore_s) * 1e6);
  result.add("graph.recompiled_per_edit",
             traced.edits > 0 ? traced.recompiled / traced.edits : 0);
  result.add("server.compile_ms_p50", median(traced.server_s) * 1e3);
  result.add("server.compile_ms_tail", tail(traced.server_s).value * 1e3);
  result.add("service.overhead_ms_p50", median(traced.overhead_s) * 1e3);
  result.add("service.overhead_ms_tail", tail(traced.overhead_s).value * 1e3);
  result.add("service.request_kb", traced.request_bytes / requests / 1024.0);
  result.add("service.response_kb", traced.response_bytes / requests / 1024.0);
  result.add("server.queue_peak", static_cast<double>(server.queue_peak));
  result.add("server.busy", static_cast<double>(server.requests_busy));
  result.add("generator.lag_ms_max", traced.lag_max_s * 1e3);
  result.add("tracing.overhead_pct",
             (median(traced.latency_s) * traced_speed.factor() /
                  (median(untraced.latency_s) * untraced_speed.factor()) -
              1.0) *
                 100.0);
  return result;
}

}  // namespace perfbench
