// SERVICE THROUGHPUT — the compile server under concurrent clients.
//
// Spins an in-process service::CompileServer on a Unix socket with a
// fresh persistent cache, then drives it with C client threads, each
// submitting its own slice of a mixed module as a stream of requests —
// cold first (every function compiles and is persisted), then warm
// (every function should be restored without running a pass). Reports
// requests/sec and functions/sec for both phases plus the warm hit
// rate, and gates the serving-path determinism guarantee: every
// function served — batched however the dispatcher chose, cold or warm
// — must be byte-identical to a direct CompilationDriver compile of
// the same module (exit 1 otherwise; the CI bench-smoke job runs this).
//
// With --json=PATH the headline numbers are written as the repo's
// service benchmark artifact:
//
//   {"bench": "service_throughput", "config": {<inputs>},
//    "measured": {<cold rates>}, "requests_per_sec": <warm>,
//    "functions_per_sec": <warm>, "cache_hit_rate": <warm>,
//    "git_sha": ...}
//
//   bench_service_throughput [--functions=N] [--clients=N] [--jobs=N]
//                            [--per-request=N] [--cache-dir=DIR]
//                            [--json=PATH] [--git-sha=SHA] [--csv]
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "ir/printer.hpp"
#include "pipeline/driver.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "support/string_utils.hpp"
#include "workload/modules.hpp"

using namespace tadfa;

namespace {

constexpr const char* kSpec =
    "cse,dce,alloc=linear:first_free,thermal-dfa,"
    "alloc=coloring:coolest_first,schedule";

constexpr std::uint64_t kSeed = 7;

using bench::json_escape;
using bench::per_sec;

struct Phase {
  const char* name;
  double seconds = 0;
  std::size_t requests = 0;
  std::size_t functions = 0;
  std::size_t hits = 0;
  bool ok = true;
  std::string error;
};

}  // namespace

int main(int argc, char** argv) {
  std::size_t functions = 96;
  std::size_t clients = 4;
  std::size_t per_request = 4;
  unsigned jobs = 0;  // hardware concurrency
  std::string cache_dir;
  std::string json_path;
  std::string git_sha;
  bool csv = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    long long n = 0;
    if (starts_with(arg, "--functions=") && parse_int(arg.substr(12), n) &&
        n > 0) {
      functions = static_cast<std::size_t>(n);
    } else if (starts_with(arg, "--clients=") && parse_int(arg.substr(10), n) &&
               n > 0) {
      clients = static_cast<std::size_t>(n);
    } else if (starts_with(arg, "--per-request=") &&
               parse_int(arg.substr(14), n) && n > 0) {
      per_request = static_cast<std::size_t>(n);
    } else if (starts_with(arg, "--jobs=") && parse_int(arg.substr(7), n) &&
               n >= 0) {
      jobs = static_cast<unsigned>(n);
    } else if (starts_with(arg, "--cache-dir=")) {
      cache_dir = arg.substr(12);
    } else if (starts_with(arg, "--json=")) {
      json_path = arg.substr(7);
    } else if (starts_with(arg, "--git-sha=")) {
      git_sha = arg.substr(10);
    } else if (arg == "--csv") {
      csv = true;
    } else {
      std::cerr << "usage: " << argv[0]
                << " [--functions=N] [--clients=N] [--per-request=N]"
                   " [--jobs=N] [--cache-dir=DIR] [--json=PATH]"
                   " [--git-sha=SHA] [--csv]\n";
      return 2;
    }
  }
  if (git_sha.empty()) {
    const char* env = std::getenv("GITHUB_SHA");
    git_sha = env != nullptr ? env : "unknown";
  }

  namespace fs = std::filesystem;
  const fs::path root =
      cache_dir.empty() ? fs::temp_directory_path() : fs::path(cache_dir);
  const fs::path dir = root / "tadfa-service-bench-cache";
  const fs::path socket =
      fs::temp_directory_path() /
      ("tadfa-service-bench-" + std::to_string(::getpid()) + ".sock");
  std::error_code ec;
  fs::remove_all(dir, ec);

  workload::ModuleConfig mcfg;
  mcfg.functions = functions;
  mcfg.seed = kSeed;
  const ir::Module module = workload::make_mixed_module(mcfg);

  bench::Rig rig;
  pipeline::PipelineContext ctx;
  ctx.floorplan = &rig.fp;
  ctx.grid = &rig.grid;
  ctx.power = &rig.power;

  // The determinism reference: a direct single-threaded driver compile.
  pipeline::CompilationDriver reference_driver(ctx);
  reference_driver.set_jobs(1);
  const auto reference = reference_driver.compile(module, kSpec);
  if (!reference.ok) {
    std::cerr << "reference compile failed: " << reference.error << "\n";
    return 1;
  }

  service::ServerConfig scfg;
  scfg.socket_path = socket.string();
  scfg.jobs = jobs;
  scfg.default_spec = kSpec;
  scfg.cache_dir = dir.string();
  service::CompileServer server(ctx, scfg);
  if (!server.start()) {
    std::cerr << "server start failed: " << server.error() << "\n";
    return 1;
  }

  // Each client owns an interleaved slice of the module (client c takes
  // functions c, c+C, c+2C, ...) and streams them `per_request` at a
  // time; the module-order reference result for each function is known,
  // so every response can be diffed byte for byte.
  Phase phases[] = {{"cold"}, {"warm"}};
  for (Phase& phase : phases) {
    std::vector<Phase> per_client(clients);
    std::vector<std::thread> pool;
    pool.reserve(clients);
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t c = 0; c < clients; ++c) {
      pool.emplace_back([&, c] {
        Phase& mine = per_client[c];
        for (std::size_t base = c; base < module.size();
             base += clients * per_request) {
          service::CompileRequest request;
          request.spec = kSpec;
          std::vector<std::size_t> indices;
          for (std::size_t k = 0; k < per_request; ++k) {
            const std::size_t idx = base + k * clients;
            if (idx >= module.size()) {
              break;
            }
            indices.push_back(idx);
            request.module_text +=
                ir::to_string(module.functions()[idx]) + "\n";
          }
          if (indices.empty()) {
            break;
          }
          std::string error;
          const int fd = service::connect_unix(scfg.socket_path, &error);
          if (fd < 0) {
            mine.ok = false;
            mine.error = error;
            return;
          }
          std::optional<service::CompileResponse> response;
          if (service::write_request(fd, request, &error)) {
            response = service::read_response(fd, &error);
          }
          ::close(fd);
          if (!response.has_value() || !response->ok) {
            mine.ok = false;
            mine.error = response.has_value() ? response->error : error;
            return;
          }
          ++mine.requests;
          mine.functions += response->functions.size();
          mine.hits += response->cache_hits();
          for (std::size_t k = 0; k < indices.size(); ++k) {
            const auto& ref = reference.functions[indices[k]];
            if (response->functions[k].printed !=
                ir::to_string(ref.run.state.func)) {
              mine.ok = false;
              mine.error = "function '" + ref.name +
                           "' served differently than compiled directly";
              return;
            }
          }
        }
      });
    }
    for (std::thread& t : pool) {
      t.join();
    }
    phase.seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    for (const Phase& mine : per_client) {
      phase.requests += mine.requests;
      phase.functions += mine.functions;
      phase.hits += mine.hits;
      if (!mine.ok && phase.ok) {
        phase.ok = false;
        phase.error = mine.error;
      }
    }
  }
  server.shutdown();
  fs::remove_all(dir, ec);

  TextTable table("compile service — " + std::to_string(functions) +
                  " functions, " + std::to_string(clients) + " clients");
  table.set_header({"phase", "wall s", "requests", "reqs/sec", "funcs/sec",
                    "hit rate", "identical"});
  for (const Phase& phase : phases) {
    table.add_row(
        {phase.name, bench::fmt(phase.seconds, 3),
         std::to_string(phase.requests),
         bench::fmt(per_sec(phase.requests, phase.seconds), 1),
         bench::fmt(per_sec(phase.functions, phase.seconds), 1),
         bench::fmt(phase.functions == 0
                        ? 0.0
                        : 100.0 * static_cast<double>(phase.hits) /
                              static_cast<double>(phase.functions),
                    1) +
             "%",
         phase.ok ? "yes" : "NO"});
  }
  if (csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }

  const Phase& warm = phases[1];
  const double warm_hit_rate =
      warm.functions == 0 ? 0.0
                          : static_cast<double>(warm.hits) /
                                static_cast<double>(warm.functions);
  if (!json_path.empty()) {
    std::ostringstream json;
    json << "{\n"
         << "  \"bench\": \"service_throughput\",\n"
         << "  \"config\": {\n"
         << "    \"functions\": " << functions << ",\n"
         << "    \"clients\": " << clients << ",\n"
         << "    \"per_request\": " << per_request << ",\n"
         << "    \"jobs\": " << jobs << ",\n"
         << "    \"seed\": " << kSeed << ",\n"
         << "    \"spec\": \"" << json_escape(kSpec) << "\"\n"
         << "  },\n"
         << "  \"measured\": {\n"
         << "    \"requests_per_sec_cold\": "
         << per_sec(phases[0].requests, phases[0].seconds) << ",\n"
         << "    \"functions_per_sec_cold\": "
         << per_sec(phases[0].functions, phases[0].seconds) << "\n"
         << "  },\n"
         << "  \"requests_per_sec\": "
         << per_sec(warm.requests, warm.seconds) << ",\n"
         << "  \"functions_per_sec\": "
         << per_sec(warm.functions, warm.seconds) << ",\n"
         << "  \"cache_hit_rate\": " << warm_hit_rate << ",\n"
         << "  \"git_sha\": \"" << json_escape(git_sha) << "\"\n"
         << "}\n";
    std::ofstream out(json_path, std::ios::trunc);
    out << json.str();
    if (!out.good()) {
      std::cerr << "cannot write " << json_path << "\n";
      return 1;
    }
    std::cout << "wrote " << json_path << "\n";
  }

  for (const Phase& phase : phases) {
    if (!phase.ok) {
      std::cerr << "DETERMINISM VIOLATED (" << phase.name
                << "): " << phase.error << "\n";
      return 1;
    }
  }
  if (warm_hit_rate < 0.95) {
    std::cerr << "CACHE INEFFECTIVE: warm hit rate "
              << bench::fmt(warm_hit_rate * 100.0, 1)
              << "% is below the 95% floor\n";
    return 1;
  }
  return 0;
}
