#include "service/server.hpp"

#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

#include "frontend/frontend.hpp"
#include "ir/printer.hpp"
#include "ir/verifier.hpp"
#include "machine/machine_config.hpp"
#include "pipeline/rig.hpp"
#include "pipeline/spec.hpp"
#include "support/statistics.hpp"
#include "workload/kernels.hpp"

namespace tadfa::service {
namespace {

using Clock = std::chrono::steady_clock;

/// Ceiling on functions batched into one module compile.
constexpr std::size_t kMaxBatchFunctions = 256;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

std::string join_names(const std::vector<std::string>& names) {
  std::string out;
  for (const std::string& name : names) {
    if (!out.empty()) {
      out += ", ";
    }
    out += name;
  }
  return out;
}

/// "unknown frontend 'x' (available: tir, kernels, texpr)".
std::string unknown_frontend_error(const std::string& name) {
  return "unknown frontend '" + name + "' (available: " +
         join_names(frontend::default_frontend_registry().names()) + ")";
}

/// "unknown machine 'x' (available: default, small, ...)".
std::string unknown_machine_error(const std::string& name) {
  return "unknown machine '" + name + "' (available: " +
         join_names(machine::default_machine_registry().names()) + ")";
}

/// The frontend for a request's (possibly empty) frontend field: empty
/// means "tir" (the pre-v5 behavior). nullptr when unknown.
const frontend::Frontend* resolve_frontend(const std::string& name) {
  return frontend::find_frontend(name.empty() ? "tir" : name);
}

/// Formats a failed parse for the request-level error response:
/// "module text line 3: ..." for positioned diagnostics (byte-identical
/// to the pre-seam .tir error text), "module text: ..." otherwise.
std::string module_text_error(const frontend::ParseResult& result) {
  return "module text " + result.diagnostics_text();
}

}  // namespace

/// A batch of compatible pendings compiled as one module: every member
/// shares the canonical spec and manager toggles, and no two members'
/// functions collide on a name (module-level ir::verify would reject
/// duplicates, and results are demuxed back by position).
struct CompileServer::Group {
  std::string key;
  std::set<std::string> names;
  ir::Module module;
  /// Edit-aware groups are singletons: the dependency graph is keyed by
  /// the module's name set, so batching an edit-aware pending with
  /// strangers would move it into a different module slot on every mix.
  bool exclusive = false;
  std::vector<Pending*> members;
  /// members[i]'s functions occupy module positions
  /// [offsets[i], offsets[i] + counts[i]).
  std::vector<std::size_t> offsets;
  std::vector<std::size_t> counts;
};

/// A lazily-built rig + driver for requests naming a machine other than
/// the one the server was constructed around. The rig member must
/// precede the driver: the driver's context points into the rig.
struct CompileServer::MachineDriver {
  pipeline::CompileRig rig;
  pipeline::CompilationDriver driver;
  MachineDriver(machine::MachineConfig config, pipeline::RigOptions options)
      : rig(std::move(config), std::move(options)), driver(rig.context()) {}
};

CompileServer::CompileServer(pipeline::PipelineContext ctx,
                             ServerConfig config)
    : config_(std::move(config)),
      base_ctx_(ctx),
      base_machine_(ctx.machine != nullptr ? ctx.machine->name : "default"),
      driver_(base_ctx_) {
  driver_.set_jobs(config_.jobs);
}

CompileServer::~CompileServer() { shutdown(); }

pipeline::CompilationDriver& CompileServer::driver_for(
    const std::string& machine) {
  if (machine.empty() || machine == base_machine_) {
    return driver_;
  }
  auto it = machine_drivers_.find(machine);
  if (it == machine_drivers_.end()) {
    // resolve() only admits registry names, so the lookup cannot miss.
    const machine::MachineConfig* config = machine::find_machine(machine);
    pipeline::RigOptions options;
    options.subdivision = base_ctx_.grid->subdivision();
    options.dfa_config = base_ctx_.dfa_config;
    options.policy_seed = base_ctx_.policy_seed;
    auto built = std::make_unique<MachineDriver>(*config, options);
    built->driver.set_jobs(config_.jobs);
    if (cache_.has_value()) {
      built->driver.set_result_cache(&*cache_);
      built->driver.set_stage_policy(config_.stage_policy);
    }
    it = machine_drivers_.emplace(machine, std::move(built)).first;
  }
  return it->second->driver;
}

bool CompileServer::start() {
  if (started_) {
    error_ = "server already started";
    return false;
  }
  if (config_.socket_path.empty() && config_.tcp_host.empty()) {
    error_ = "no listener configured (need a socket path or a TCP endpoint)";
    return false;
  }
  if (!config_.cache_dir.empty()) {
    cache_.emplace(config_.cache_dir, config_.cache_max_bytes);
    if (!cache_->ok()) {
      error_ = cache_->error();
      cache_.reset();
      return false;
    }
    driver_.set_result_cache(&*cache_);
    driver_.set_stage_policy(config_.stage_policy);
  }

  if (!config_.socket_path.empty()) {
    host_.add_listener(make_unix_listener(config_.socket_path));
  }
  if (!config_.tcp_host.empty()) {
    host_.add_listener(make_tcp_listener(config_.tcp_host, config_.tcp_port));
  }
  host_.set_io_timeout(config_.io_timeout_seconds);

  start_time_ = Clock::now();
  stopping_.store(false);
  dispatcher_stop_ = false;
  dispatch_thread_ = std::thread(&CompileServer::dispatch_loop, this);
  if (!host_.start([this](int fd) { handle_connection(fd); }, &error_)) {
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      dispatcher_stop_ = true;
    }
    queue_cv_.notify_all();
    dispatch_thread_.join();
    return false;
  }
  started_ = true;
  return true;
}

void CompileServer::shutdown() {
  if (!started_) {
    return;
  }
  // Stop accepting and drain every live connection: a handler
  // mid-request still enqueues, waits for its response, and writes it.
  stopping_.store(true);
  host_.stop();

  // With every producer gone, let the dispatcher finish the queue (it
  // is already empty — each handler waited for its response) and stop.
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    dispatcher_stop_ = true;
  }
  queue_cv_.notify_all();
  dispatch_thread_.join();
  started_ = false;
}

void CompileServer::handle_connection(int fd) {
  std::string io_error;
  for (;;) {
    std::string payload;
    io_error.clear();
    std::uint32_t peer_version = 0;
    const FrameStatus status =
        read_frame(fd, &payload, &io_error, &peer_version);
    if (status == FrameStatus::kClosed || status == FrameStatus::kIdle) {
      // A clean close, or an idle connection past the I/O deadline:
      // free the handler thread without ceremony.
      break;
    }
    if (status == FrameStatus::kTimeout) {
      // The peer stalled mid-frame. Best-effort structured error, then
      // hang up — the stream position is unknowable.
      record_timeout();
      write_response(fd, timeout_response("request timed out: " + io_error),
                     &io_error);
      break;
    }
    if (status == FrameStatus::kVersionMismatch) {
      // Explicit version refusal: a v2 client gets a structured frame
      // naming both versions, never a hang.
      record_version_mismatch();
      write_response(fd, version_mismatch_response(peer_version), &io_error);
      break;
    }
    if (status == FrameStatus::kError) {
      // The stream cannot be trusted past a framing error; answer with
      // a structured error (best effort) and hang up.
      record_malformed();
      write_response(fd, error_response("malformed request: " + io_error),
                     &io_error);
      break;
    }
    const auto accepted = Clock::now();
    ByteReader reader(payload);
    auto request = CompileRequest::deserialize(reader);
    if (!request.has_value()) {
      // Framing was intact, the payload was not: respond and keep the
      // connection — the next frame may be fine.
      record_malformed();
      if (!write_response(
              fd, error_response("malformed request: undecodable payload"),
              &io_error)) {
        break;
      }
      continue;
    }

    std::unique_ptr<Pending> pending;
    CompileResponse response;
    std::string frontend_label;
    std::string machine_label;
    if (auto immediate = resolve(std::move(*request), &pending)) {
      response = std::move(*immediate);
    } else {
      frontend_label = pending->frontend;
      machine_label = pending->machine;
      pending->accepted = accepted;
      std::future<CompileResponse> future;
      if (auto shed = admit(std::move(pending), &future)) {
        response = std::move(*shed);
      } else {
        response = future.get();
      }
    }
    record_request(response, ms_since(accepted), frontend_label,
                   machine_label);
    if (!write_response(fd, response, &io_error)) {
      break;
    }
  }
}

std::optional<CompileResponse> CompileServer::admit(
    std::unique_ptr<Pending> pending, std::future<CompileResponse>* future) {
  *future = pending->promise.get_future();
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (config_.max_queue > 0 && queue_.size() >= config_.max_queue &&
        !dispatcher_stop_) {
      // Bounded queue full: shed with a structured BUSY instead of
      // queuing unboundedly. The client retries with backoff.
      return busy_response(
          "server at capacity: " + std::to_string(queue_.size()) +
          " requests queued (max " + std::to_string(config_.max_queue) +
          "); retry with backoff");
    }
    queue_.push_back(std::move(pending));
    queue_peak_ = std::max(queue_peak_, queue_.size());
  }
  queue_cv_.notify_one();
  return std::nullopt;
}

std::optional<CompileResponse> CompileServer::resolve(
    CompileRequest request, std::unique_ptr<Pending>* out) {
  const std::string spec_text =
      request.spec.empty() ? config_.default_spec : request.spec;
  pipeline::SpecError spec_error;
  auto passes = pipeline::parse_pipeline_spec(spec_text, &spec_error);
  if (!passes.has_value()) {
    return error_response("bad pipeline spec: " +
                          pipeline::format_spec_error(spec_error));
  }

  // v5: resolve the frontend and machine names before touching any
  // payload — an unknown name is a structured error, never a fallback.
  const frontend::Frontend* fe = resolve_frontend(request.frontend);
  if (fe == nullptr) {
    return error_response(unknown_frontend_error(request.frontend));
  }
  const std::string machine_name =
      request.machine.empty() ? base_machine_ : request.machine;
  if (machine_name != base_machine_ &&
      machine::find_machine(machine_name) == nullptr) {
    return error_response(unknown_machine_error(request.machine));
  }

  auto pending = std::make_unique<Pending>();
  pending->passes = std::move(*passes);
  pending->canonical_spec = pipeline::spec_to_string(pending->passes);
  pending->checkpoints = request.checkpoints;
  pending->analysis_cache = request.analysis_cache;
  pending->edit_aware = request.edit_aware;
  pending->frontend = fe->name();
  pending->machine = machine_name;

  std::set<std::string> names;
  for (const std::string& name : request.kernels) {
    auto kernel = workload::make_kernel(name);
    if (!kernel.has_value()) {
      return error_response("unknown kernel '" + name + "'");
    }
    if (!names.insert(kernel->func.name()).second) {
      return error_response("duplicate function name '" +
                            kernel->func.name() + "' in request");
    }
    pending->functions.push_back(std::move(kernel->func));
  }
  if (!request.module_text.empty()) {
    frontend::ParseResult parsed = fe->parse(request.module_text);
    if (!parsed.ok()) {
      // For the tir frontend this reproduces the pre-v5 error text
      // ("module text line N: message") byte for byte.
      return error_response(module_text_error(parsed));
    }
    ir::Module& module = *parsed.module;
    for (ir::Function& func : module.functions()) {
      if (!names.insert(func.name()).second) {
        return error_response("duplicate function name '" + func.name() +
                              "' in request");
      }
      pending->functions.push_back(std::move(func));
    }
    pending->references = module.references();
  }
  if (pending->functions.empty()) {
    return error_response("empty request: no kernels and no module text");
  }
  ir::Module check;
  for (ir::Function& func : pending->functions) {
    check.add_function(std::move(func));
  }
  for (const ir::ModuleReference& ref : pending->references) {
    check.add_reference(ref.from, ref.to);
  }
  if (const auto issues = ir::verify(check); !issues.empty()) {
    return error_response("malformed input module: " +
                          issues.front().message);
  }
  pending->functions = std::move(check.functions());

  *out = std::move(pending);
  return std::nullopt;
}

void CompileServer::dispatch_loop() {
  for (;;) {
    std::vector<std::unique_ptr<Pending>> batch;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [&] { return dispatcher_stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        return;  // woken only by stop, with nothing left to drain
      }
      while (!queue_.empty()) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
    }
    process_batch(std::move(batch));
  }
}

void CompileServer::respond(Pending& pending, CompileResponse response) {
  if (pending.responded) {
    return;
  }
  pending.responded = true;
  pending.promise.set_value(std::move(response));
}

void CompileServer::process_batch(
    std::vector<std::unique_ptr<Pending>> batch) {
  // Whatever happens below, every pending's promise must be fulfilled —
  // a handler is blocked on it, and an unfulfilled promise would wedge
  // that connection and any later shutdown(). An exception anywhere in
  // grouping or response assembly (bad_alloc under a huge batch, a bug)
  // degrades to an internal-error response, never a terminate or hang.
  try {
    process_batch_unguarded(batch);
  } catch (const std::exception& e) {
    for (auto& pending : batch) {
      respond(*pending, error_response(std::string("internal server error: ") +
                                       e.what()));
    }
  } catch (...) {
    for (auto& pending : batch) {
      respond(*pending, error_response("internal server error"));
    }
  }
}

void CompileServer::process_batch_unguarded(
    std::vector<std::unique_ptr<Pending>>& batch) {
  // Greedy batching in arrival order: a pending joins the first open
  // group with its (spec, toggles) key whose names it does not collide
  // with and whose function budget it fits; otherwise it opens one.
  std::vector<Group> groups;
  for (auto& pending : batch) {
    // v5: the machine joins the key — members of one group all compile
    // on the same driver, so mixed-machine batching would be a lie.
    const std::string key = pending->canonical_spec + '\x01' +
                            (pending->checkpoints ? '1' : '0') +
                            (pending->analysis_cache ? '1' : '0') +
                            (pending->edit_aware ? '1' : '0') + '\x01' +
                            pending->machine;
    Group* target = nullptr;
    for (Group& group : groups) {
      if (pending->edit_aware || group.exclusive || group.key != key ||
          group.module.size() + pending->functions.size() >
              kMaxBatchFunctions) {
        continue;
      }
      bool collides = false;
      for (const ir::Function& func : pending->functions) {
        if (group.names.count(func.name()) != 0) {
          collides = true;
          break;
        }
      }
      if (!collides) {
        target = &group;
        break;
      }
    }
    if (target == nullptr) {
      groups.emplace_back();
      target = &groups.back();
      target->key = key;
      target->exclusive = pending->edit_aware;
    }
    target->offsets.push_back(target->module.size());
    target->counts.push_back(pending->functions.size());
    for (ir::Function& func : pending->functions) {
      target->names.insert(func.name());
      target->module.add_function(std::move(func));
    }
    for (const ir::ModuleReference& ref : pending->references) {
      target->module.add_reference(ref.from, ref.to);
    }
    target->members.push_back(pending.get());
  }
  {
    std::lock_guard<std::mutex> lock(metrics_mu_);
    for (const Group& group : groups) {
      ++batches_;
      batched_functions_ += group.module.size();
      max_batch_functions_ = std::max<std::uint64_t>(max_batch_functions_,
                                                     group.module.size());
    }
  }
  for (Group& group : groups) {
    compile_group(group);
  }
}

void CompileServer::compile_group(Group& group) {
  Pending& lead = *group.members.front();
  pipeline::CompilationDriver& driver = driver_for(lead.machine);
  driver.set_checkpoints(lead.checkpoints);
  driver.set_analysis_caching(lead.analysis_cache);
  driver.set_edit_aware(lead.edit_aware);

  pipeline::ModulePipelineResult result;
  std::string failure;
  try {
    result = driver.compile(group.module, lead.passes);
  } catch (const std::exception& e) {
    failure = std::string("uncaught exception: ") + e.what();
  } catch (...) {
    failure = "uncaught non-standard exception";
  }
  if (failure.empty() && result.functions.empty()) {
    // The driver rejected the whole module up front (spec/pass
    // construction error) — every member gets that structured error.
    failure = result.error.empty() ? "module compilation produced no results"
                                   : result.error;
  }

  for (std::size_t m = 0; m < group.members.size(); ++m) {
    Pending& pending = *group.members[m];
    CompileResponse response;
    if (!failure.empty()) {
      response = error_response(failure);
    } else {
      // Slice this member's functions out of the module result and let
      // ModulePipelineResult do the merging it already knows.
      pipeline::ModulePipelineResult member;
      member.jobs = result.jobs;
      for (std::size_t i = 0; i < group.counts[m]; ++i) {
        member.functions.push_back(
            std::move(result.functions[group.offsets[m] + i]));
      }
      response.ok = true;
      response.code = ResponseCode::kOk;
      for (const pipeline::FunctionCompileResult& f : member.functions) {
        FunctionResult out;
        out.name = f.name;
        out.ok = f.run.ok;
        out.error = f.run.error;
        out.from_cache = f.from_cache;
        out.resumed_passes = f.resumed_passes;
        out.printed = ir::to_string(f.run.state.func);
        out.instructions = f.run.state.func.instruction_count();
        out.vregs = f.run.state.func.reg_count();
        out.spilled_regs = f.run.state.spilled_regs;
        out.seconds = f.run.total_seconds;
        out.invalidation = f.reason;
        out.invalidated_via = f.invalidated_via;
        if (!out.ok && response.ok) {
          response.ok = false;
          response.code = ResponseCode::kError;
          response.error = "function '" + out.name + "': " + out.error;
        }
        response.functions.push_back(std::move(out));
      }
      response.pass_stats = member.merged_pass_stats();
      response.analysis_stats = member.merged_analysis_stats();
    }
    if (cache_.has_value()) {
      response.cache_attached = true;
      response.cache = cache_->stats();
    }
    response.server_seconds = ms_since(pending.accepted) / 1e3;
    respond(pending, std::move(response));
  }
}

void CompileServer::record_request(const CompileResponse& response,
                                   double latency_ms,
                                   const std::string& frontend,
                                   const std::string& machine) {
  std::lock_guard<std::mutex> lock(metrics_mu_);
  ++requests_;
  if (response.ok) {
    ++requests_ok_;
  } else if (response.code == ResponseCode::kBusy) {
    ++requests_busy_;
  } else {
    ++requests_failed_;
  }
  if (!frontend.empty() && !machine.empty()) {
    PairMetrics& pair = pair_metrics_[{frontend, machine}];
    pair.frontend = frontend;
    pair.machine = machine;
    ++pair.requests;
    if (response.ok) {
      ++pair.requests_ok;
    }
    pair.functions += response.functions.size();
    pair.functions_from_cache += response.cache_hits();
  }
  functions_ += response.functions.size();
  functions_from_cache_ += response.cache_hits();
  prefix_hits_ += response.prefix_hits();
  passes_skipped_ += response.passes_skipped();
  if (latencies_ms_.size() < kLatencyWindow) {
    latencies_ms_.push_back(latency_ms);
  } else {
    latencies_ms_[latency_next_] = latency_ms;
    latency_next_ = (latency_next_ + 1) % kLatencyWindow;
  }
}

void CompileServer::record_malformed() {
  std::lock_guard<std::mutex> lock(metrics_mu_);
  ++malformed_;
}

void CompileServer::record_timeout() {
  std::lock_guard<std::mutex> lock(metrics_mu_);
  ++timeouts_;
}

void CompileServer::record_version_mismatch() {
  std::lock_guard<std::mutex> lock(metrics_mu_);
  ++version_mismatches_;
}

ServerMetrics CompileServer::metrics() const {
  ServerMetrics m;
  m.connections = host_.connections_accepted();
  {
    std::lock_guard<std::mutex> lock(metrics_mu_);
    m.requests = requests_;
    m.requests_ok = requests_ok_;
    m.requests_failed = requests_failed_;
    m.requests_busy = requests_busy_;
    m.malformed = malformed_;
    m.timeouts = timeouts_;
    m.version_mismatches = version_mismatches_;
    m.functions = functions_;
    m.functions_from_cache = functions_from_cache_;
    m.prefix_hits = prefix_hits_;
    m.passes_skipped = passes_skipped_;
    m.batches = batches_;
    m.max_batch_functions = max_batch_functions_;
    m.avg_batch_functions =
        batches_ == 0 ? 0.0
                      : static_cast<double>(batched_functions_) /
                            static_cast<double>(batches_);
    m.uptime_seconds =
        std::chrono::duration<double>(Clock::now() - start_time_).count();
    if (!latencies_ms_.empty()) {
      m.latency_p50_ms = stats::percentile(latencies_ms_, 50.0);
      m.latency_p95_ms = stats::percentile(latencies_ms_, 95.0);
      m.latency_p99_ms = stats::percentile(latencies_ms_, 99.0);
    }
    for (const auto& [key, pair] : pair_metrics_) {
      m.pairs.push_back(pair);
    }
  }
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    m.queue_depth = queue_.size();
    m.queue_peak = queue_peak_;
  }
  const double up = m.uptime_seconds > 0 ? m.uptime_seconds : 1e-12;
  m.requests_per_sec = static_cast<double>(m.requests) / up;
  m.functions_per_sec = static_cast<double>(m.functions) / up;
  m.warm_hit_rate =
      m.functions == 0 ? 0.0
                       : static_cast<double>(m.functions_from_cache) /
                             static_cast<double>(m.functions);
  if (cache_.has_value()) {
    m.cache_attached = true;
    m.cache = cache_->stats();
  }
  return m;
}

TextTable CompileServer::metrics_table(const std::string& title) const {
  const ServerMetrics m = metrics();
  TextTable table(title);
  table.set_header({"metric", "value"});
  table.add_row({"uptime s", TextTable::num(m.uptime_seconds, 1)});
  table.add_row({"connections", std::to_string(m.connections)});
  table.add_row({"requests", std::to_string(m.requests)});
  table.add_row({"requests ok", std::to_string(m.requests_ok)});
  table.add_row({"requests failed", std::to_string(m.requests_failed)});
  table.add_row({"requests busy", std::to_string(m.requests_busy)});
  table.add_row({"malformed", std::to_string(m.malformed)});
  table.add_row({"timeouts", std::to_string(m.timeouts)});
  table.add_row(
      {"version mismatches", std::to_string(m.version_mismatches)});
  table.add_row({"requests/sec", TextTable::num(m.requests_per_sec, 2)});
  table.add_row({"functions", std::to_string(m.functions)});
  table.add_row({"functions/sec", TextTable::num(m.functions_per_sec, 1)});
  table.add_row({"batches", std::to_string(m.batches)});
  table.add_row(
      {"avg batch functions", TextTable::num(m.avg_batch_functions, 1)});
  table.add_row(
      {"max batch functions", std::to_string(m.max_batch_functions)});
  table.add_row({"queue depth", std::to_string(m.queue_depth)});
  table.add_row({"queue peak", std::to_string(m.queue_peak)});
  table.add_row(
      {"warm hit rate", TextTable::num(m.warm_hit_rate * 100.0, 1) + "%"});
  table.add_row({"prefix hits", std::to_string(m.prefix_hits)});
  table.add_row({"passes skipped", std::to_string(m.passes_skipped)});
  table.add_row({"latency p50 ms", TextTable::num(m.latency_p50_ms, 2)});
  table.add_row({"latency p95 ms", TextTable::num(m.latency_p95_ms, 2)});
  table.add_row({"latency p99 ms", TextTable::num(m.latency_p99_ms, 2)});
  for (const PairMetrics& pair : m.pairs) {
    const std::string label = pair.frontend + "/" + pair.machine;
    table.add_row({label + " requests", std::to_string(pair.requests)});
    table.add_row({label + " functions", std::to_string(pair.functions)});
  }
  if (m.cache_attached) {
    table.add_row({"cache hits", std::to_string(m.cache.hits)});
    table.add_row({"cache misses", std::to_string(m.cache.misses)});
    table.add_row({"cache stores", std::to_string(m.cache.stores)});
    table.add_row(
        {"cache store failures", std::to_string(m.cache.store_failures)});
    table.add_row(
        {"cache lookup faults", std::to_string(m.cache.lookup_faults)});
    table.add_row({"stage hits", std::to_string(m.cache.stage_hits)});
    table.add_row({"stage misses", std::to_string(m.cache.stage_misses)});
    table.add_row({"stage stores", std::to_string(m.cache.stage_stores)});
  }
  return table;
}

std::string CompileServer::metrics_json() const {
  const ServerMetrics m = metrics();
  std::ostringstream json;
  json << "{\n"
       << "  \"uptime_seconds\": " << m.uptime_seconds << ",\n"
       << "  \"connections\": " << m.connections << ",\n"
       << "  \"requests\": " << m.requests << ",\n"
       << "  \"requests_ok\": " << m.requests_ok << ",\n"
       << "  \"requests_failed\": " << m.requests_failed << ",\n"
       << "  \"requests_busy\": " << m.requests_busy << ",\n"
       << "  \"malformed\": " << m.malformed << ",\n"
       << "  \"timeouts\": " << m.timeouts << ",\n"
       << "  \"version_mismatches\": " << m.version_mismatches << ",\n"
       << "  \"requests_per_sec\": " << m.requests_per_sec << ",\n"
       << "  \"functions\": " << m.functions << ",\n"
       << "  \"functions_per_sec\": " << m.functions_per_sec << ",\n"
       << "  \"functions_from_cache\": " << m.functions_from_cache << ",\n"
       << "  \"warm_hit_rate\": " << m.warm_hit_rate << ",\n"
       << "  \"prefix_hits\": " << m.prefix_hits << ",\n"
       << "  \"passes_skipped\": " << m.passes_skipped << ",\n"
       << "  \"batches\": " << m.batches << ",\n"
       << "  \"avg_batch_functions\": " << m.avg_batch_functions << ",\n"
       << "  \"max_batch_functions\": " << m.max_batch_functions << ",\n"
       << "  \"queue_depth\": " << m.queue_depth << ",\n"
       << "  \"queue_peak\": " << m.queue_peak << ",\n"
       << "  \"latency_p50_ms\": " << m.latency_p50_ms << ",\n"
       << "  \"latency_p95_ms\": " << m.latency_p95_ms << ",\n"
       << "  \"latency_p99_ms\": " << m.latency_p99_ms << ",\n";
  json << "  \"pairs\": [";
  for (std::size_t i = 0; i < m.pairs.size(); ++i) {
    const PairMetrics& pair = m.pairs[i];
    json << (i == 0 ? "" : ", ") << "{\"frontend\": \"" << pair.frontend
         << "\", \"machine\": \"" << pair.machine
         << "\", \"requests\": " << pair.requests
         << ", \"requests_ok\": " << pair.requests_ok
         << ", \"functions\": " << pair.functions
         << ", \"functions_from_cache\": " << pair.functions_from_cache
         << "}";
  }
  json << "],\n"
       << "  \"cache_attached\": " << (m.cache_attached ? "true" : "false");
  if (m.cache_attached) {
    json << ",\n  \"cache\": {\n"
         << "    \"hits\": " << m.cache.hits << ",\n"
         << "    \"misses\": " << m.cache.misses << ",\n"
         << "    \"stores\": " << m.cache.stores << ",\n"
         << "    \"bad_entries\": " << m.cache.bad_entries << ",\n"
         << "    \"evictions\": " << m.cache.evictions << ",\n"
         << "    \"store_failures\": " << m.cache.store_failures << ",\n"
         << "    \"lookup_faults\": " << m.cache.lookup_faults << ",\n"
         << "    \"stage_hits\": " << m.cache.stage_hits << ",\n"
         << "    \"stage_misses\": " << m.cache.stage_misses << ",\n"
         << "    \"stage_stores\": " << m.cache.stage_stores << ",\n"
         << "    \"graph_hits\": " << m.cache.graph_hits << ",\n"
         << "    \"graph_misses\": " << m.cache.graph_misses << ",\n"
         << "    \"graph_stores\": " << m.cache.graph_stores << "\n"
         << "  }";
  }
  json << "\n}\n";
  return json.str();
}

bool CompileServer::write_metrics_json(const std::string& path,
                                       std::string* error) const {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    out << metrics_json();
    if (!out.good()) {
      if (error != nullptr) {
        *error = "cannot write '" + tmp + "'";
      }
      return false;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    if (error != nullptr) {
      *error = "cannot rename '" + tmp + "' to '" + path +
               "': " + std::strerror(errno);
    }
    return false;
  }
  return true;
}

}  // namespace tadfa::service
