// CompileServer: the pipeline as a long-lived service.
//
// `tadfa serve` wraps everything PR 3 and PR 4 built — the module-level
// CompilationDriver worker pool and the persistent ResultCache — behind
// a stream socket so compiles stop being one-shot CLI processes.
// Concurrent clients submit CompileRequests (protocol.hpp); a handler
// thread per connection resolves each request into ir::Functions and
// queues it; a single dispatcher drains the queue, batches compatible
// requests (same canonical spec and toggles, no function-name
// collisions) into one ir::Module, and runs it through the one shared
// driver + cache. Batching is the point of the service: ten clients
// each submitting one function cost one module compile over the full
// worker pool, and every warm function is served from the shared cache
// without running a single pass.
//
// Since PR 7 the server is listener-agnostic: it accepts the same
// framed protocol over a Unix-domain socket, a TCP endpoint, or both at
// once (transport.hpp), and both listeners feed one dispatcher queue.
// Overload is explicit, not emergent: the dispatcher queue is bounded
// (`max_queue`), a request arriving at a full queue is answered with a
// structured BUSY response instead of queuing unboundedly, and a
// connection that stalls mid-frame past `io_timeout_seconds` gets a
// structured timeout error instead of holding its handler thread
// forever.
//
// The per-function determinism guarantee carries over unchanged: a
// pipeline run is a pure function of (function, spec, context), so a
// function compiled inside a server batch is byte-identical to the same
// function compiled by a direct CompilationDriver::compile — the
// service tests and the CI smoke step gate on exactly that.
//
// Lifetime: start() binds the listeners and spawns the threads;
// shutdown() drains — it stops accepting, half-closes every
// connection's read side, lets in-flight requests finish compiling and
// responding, and only then stops the dispatcher. The cache needs no
// flush: its record files (and their mtimes, the LRU stamps) are its
// whole state, written as each store and hit happens.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <map>

#include "pipeline/driver.hpp"
#include "pipeline/result_cache.hpp"
#include "service/protocol.hpp"
#include "service/transport.hpp"
#include "support/table.hpp"

namespace tadfa::service {

struct ServerConfig {
  /// Filesystem path of the Unix-domain listening socket (empty = no
  /// Unix listener; at least one of socket_path / tcp_host required).
  std::string socket_path;
  /// TCP listening endpoint (host empty = no TCP listener; port 0
  /// binds ephemerally — CompileServer::tcp_port() reports the choice).
  std::string tcp_host;
  std::uint16_t tcp_port = 0;
  /// Worker-pool size per module compile (0 = hardware concurrency).
  unsigned jobs = 0;
  /// Pipeline used when a request leaves its spec empty.
  std::string default_spec;
  /// Persistent result cache directory; empty serves uncached.
  std::string cache_dir;
  /// ResultCache size budget (0 = unbounded).
  std::uint64_t cache_max_bytes = 0;
  /// Admission control: requests allowed to wait for the dispatcher
  /// (0 = unbounded). A request arriving at a full queue is answered
  /// with a structured BUSY response instead of queuing.
  std::size_t max_queue = 0;
  /// Per-connection read/write deadline in seconds (<= 0: no read
  /// deadline, 60 s write deadline). A peer stalling mid-frame past it
  /// gets a structured timeout error and the connection is closed.
  double io_timeout_seconds = 30.0;
  /// Incremental compilation: when enabled, the driver freezes
  /// pass-boundary snapshots into the cache and resumes from the
  /// longest cached spec prefix. No effect without a cache_dir.
  pipeline::StagePolicy stage_policy;
};

/// One (frontend, machine) pair's share of the server's aggregate
/// counters — metrics stay legible when one server fields the whole
/// grid.
struct PairMetrics {
  std::string frontend;
  std::string machine;
  std::uint64_t requests = 0;
  std::uint64_t requests_ok = 0;
  std::uint64_t functions = 0;
  std::uint64_t functions_from_cache = 0;
};

/// Aggregate counters since start(), snapshotted by metrics().
struct ServerMetrics {
  std::uint64_t connections = 0;
  std::uint64_t requests = 0;
  std::uint64_t requests_ok = 0;
  std::uint64_t requests_failed = 0;
  /// Requests shed at admission with a structured BUSY response.
  std::uint64_t requests_busy = 0;
  /// Frames or payloads that could not be decoded (answered with a
  /// structured error, never a hang).
  std::uint64_t malformed = 0;
  /// Connections that stalled mid-frame past the I/O deadline.
  std::uint64_t timeouts = 0;
  /// Frames announcing a different kProtocolVersion (answered with a
  /// structured VERSION_MISMATCH error).
  std::uint64_t version_mismatches = 0;
  std::uint64_t functions = 0;
  std::uint64_t functions_from_cache = 0;
  /// Functions that resumed from a cached stage snapshot (incremental
  /// mode), and the total passes those resumes skipped.
  std::uint64_t prefix_hits = 0;
  std::uint64_t passes_skipped = 0;
  /// Dispatcher batching: module compiles run, and the largest /
  /// average function count per batch.
  std::uint64_t batches = 0;
  std::uint64_t max_batch_functions = 0;
  double avg_batch_functions = 0;
  /// Requests waiting for the dispatcher right now / high-water mark.
  std::size_t queue_depth = 0;
  std::size_t queue_peak = 0;
  double uptime_seconds = 0;
  double requests_per_sec = 0;
  double functions_per_sec = 0;
  /// Request latency (frame decoded -> response written), over the
  /// most recent samples.
  double latency_p50_ms = 0;
  double latency_p95_ms = 0;
  double latency_p99_ms = 0;
  /// functions_from_cache over functions (0 when nothing served).
  double warm_hit_rate = 0;
  bool cache_attached = false;
  pipeline::ResultCacheStats cache;
  /// Per-(frontend, machine) breakdown of resolved requests, sorted by
  /// (frontend, machine). Requests rejected before resolution (bad
  /// frame, unknown frontend/machine name) appear only in the totals.
  std::vector<PairMetrics> pairs;
};

class CompileServer {
 public:
  /// The rig objects behind `ctx` must outlive the server.
  CompileServer(pipeline::PipelineContext ctx, ServerConfig config);
  /// Calls shutdown().
  ~CompileServer();
  CompileServer(const CompileServer&) = delete;
  CompileServer& operator=(const CompileServer&) = delete;

  /// Binds the listeners, opens the cache, spawns the accept and
  /// dispatch threads. False (with error()) when any of that fails.
  bool start();
  /// Graceful drain; safe to call twice (second call is a no-op).
  void shutdown();

  const std::string& error() const { return error_; }
  const ServerConfig& config() const { return config_; }
  bool running() const { return started_ && !stopping_.load(); }
  /// The bound TCP port once start() succeeded (0 without a TCP
  /// listener); the way tests find an ephemeral (`tcp_port = 0`) bind.
  std::uint16_t tcp_port() const { return host_.tcp_port(); }

  ServerMetrics metrics() const;
  TextTable metrics_table(const std::string& title = "compile server") const;
  /// The metrics snapshot as one machine-readable JSON object.
  std::string metrics_json() const;
  /// Writes metrics_json() to `path` atomically (tmp file + rename).
  bool write_metrics_json(const std::string& path, std::string* error) const;

  /// The shared persistent cache; nullptr when serving uncached.
  pipeline::ResultCache* cache() {
    return cache_.has_value() ? &*cache_ : nullptr;
  }

 private:
  /// One resolved request waiting for the dispatcher.
  struct Pending {
    std::vector<ir::Function> functions;
    /// Module-level `ref` edges from the request's module text; feed the
    /// dependency graph in edit-aware mode.
    std::vector<ir::ModuleReference> references;
    std::vector<pipeline::PassSpec> passes;
    std::string canonical_spec;
    bool checkpoints = true;
    bool analysis_cache = true;
    /// v4: the request asked for dependency-edge invalidation reporting.
    /// Edit-aware pendings compile in their own group — batching with
    /// strangers would change the module slot the dependency graph is
    /// keyed by, making every resubmit look like a first compile.
    bool edit_aware = false;
    /// v5: resolved frontend name (module text already parsed by it;
    /// kept for the per-pair metrics) and resolved machine name (picks
    /// the driver the group compiles on, so it joins the group key).
    std::string frontend;
    std::string machine;
    std::chrono::steady_clock::time_point accepted;
    /// Fulfilled by the dispatcher; the handler blocks on it. Always
    /// set exactly once (respond() guards), or the handler would wait
    /// forever and wedge shutdown.
    std::promise<CompileResponse> promise;
    bool responded = false;
  };

  /// Fulfills a pending's promise once; further calls are no-ops.
  static void respond(Pending& pending, CompileResponse response);

  /// A batch of compatible pendings compiled as one module.
  struct Group;

  void handle_connection(int fd);
  void dispatch_loop();
  /// Responds to every pending in `batch`, converting any escaped
  /// exception into internal-error responses (a promise left unset
  /// would wedge its handler and shutdown()).
  void process_batch(std::vector<std::unique_ptr<Pending>> batch);
  void process_batch_unguarded(std::vector<std::unique_ptr<Pending>>& batch);
  void compile_group(Group& group);

  /// Resolves a decoded request into a Pending, or a ready error
  /// response (bad spec, unknown kernel, unparsable module text).
  std::optional<CompileResponse> resolve(CompileRequest request,
                                         std::unique_ptr<Pending>* out);

  /// Admission: queues `pending` unless the bounded queue is full, in
  /// which case a ready BUSY response is returned instead.
  std::optional<CompileResponse> admit(std::unique_ptr<Pending> pending,
                                       std::future<CompileResponse>* future);

  /// The driver for a resolved machine name: the base driver for the
  /// context the server was constructed with, otherwise a lazily-built
  /// rig + driver for that registry machine (sharing the cache and job
  /// settings). Dispatcher thread only.
  pipeline::CompilationDriver& driver_for(const std::string& machine);

  void record_request(const CompileResponse& response, double latency_ms,
                      const std::string& frontend, const std::string& machine);
  void record_malformed();
  void record_timeout();
  void record_version_mismatch();

  ServerConfig config_;
  pipeline::PipelineContext base_ctx_;
  /// Machine name the base context answers for (its MachineConfig's
  /// name, or "default" for hand-assembled contexts).
  std::string base_machine_;
  pipeline::CompilationDriver driver_;
  /// Lazily-built rigs for requests naming other machines, keyed by
  /// machine name. Dispatcher thread only (compiles are serialized).
  struct MachineDriver;
  std::map<std::string, std::unique_ptr<MachineDriver>> machine_drivers_;
  std::optional<pipeline::ResultCache> cache_;
  std::string error_;

  ConnectionHost host_;
  bool started_ = false;
  std::atomic<bool> stopping_{false};

  std::thread dispatch_thread_;

  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<std::unique_ptr<Pending>> queue_;
  std::size_t queue_peak_ = 0;
  bool dispatcher_stop_ = false;

  mutable std::mutex metrics_mu_;
  std::uint64_t requests_ = 0;
  std::uint64_t requests_ok_ = 0;
  std::uint64_t requests_failed_ = 0;
  std::uint64_t requests_busy_ = 0;
  std::uint64_t malformed_ = 0;
  std::uint64_t timeouts_ = 0;
  std::uint64_t version_mismatches_ = 0;
  std::uint64_t functions_ = 0;
  std::uint64_t functions_from_cache_ = 0;
  std::uint64_t prefix_hits_ = 0;
  std::uint64_t passes_skipped_ = 0;
  std::uint64_t batches_ = 0;
  std::uint64_t batched_functions_ = 0;
  std::uint64_t max_batch_functions_ = 0;
  /// Per-(frontend, machine) counters for resolved requests.
  std::map<std::pair<std::string, std::string>, PairMetrics> pair_metrics_;
  /// Latency ring (most recent kLatencyWindow samples).
  static constexpr std::size_t kLatencyWindow = 4096;
  std::vector<double> latencies_ms_;
  std::size_t latency_next_ = 0;
  std::chrono::steady_clock::time_point start_time_;
};

}  // namespace tadfa::service
