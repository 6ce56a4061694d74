// The metric catalogue: every name the result line can carry, with its
// unit. BENCHMARK.json lists the same names; an untraced run prints
// every end-to-end metric and a traced run every per-layer metric, on
// every workload (a layer a workload does not exercise reads 0).
#pragma once

namespace perfbench {

struct MetricDef {
  const char* name;
  const char* unit;
};

inline constexpr MetricDef kEndToEndMetrics[] = {
    {"setup_s", "s"},
    {"functions_per_sec", "1/s"},
    {"function_p50_ms", "ms"},
    {"function_tail_ms", "ms"},
    {"request_p50_ms", "ms"},
    {"request_tail_ms", "ms"},
    {"peak_rss_mb", "MB"},
    {"code_instrs", "count"},
    {"exec_cycles", "ratio"},
    {"replay_peak_c", "degC"},
};

inline constexpr MetricDef kPerLayerMetrics[] = {
    {"frontend.parse_ms", "ms"},
    {"frontend.source_kb", "KB"},
    {"pass.alloc-linear.ms", "ms"},
    {"pass.alloc-linear.instrs_after", "count"},
    {"pass.thermal-dfa.ms", "ms"},
    {"pass.thermal-dfa.instrs_after", "count"},
    {"pass.split-hot.ms", "ms"},
    {"pass.split-hot.instrs_after", "count"},
    {"pass.spill-critical.ms", "ms"},
    {"pass.spill-critical.instrs_after", "count"},
    {"pass.alloc-coloring.ms", "ms"},
    {"pass.alloc-coloring.instrs_after", "count"},
    {"pass.schedule.ms", "ms"},
    {"pass.schedule.instrs_after", "count"},
    {"regalloc.spilled_regs", "count"},
    {"dfa.ms", "ms"},
    {"dfa.iterations", "count"},
    {"dfa.transfers", "count"},
    {"dfa.us_per_transfer", "us"},
    {"dfa.nonconverged", "count"},
    {"driver.wall_s", "s"},
    {"driver.work_s", "s"},
    {"driver.pool_efficiency", "ratio"},
    {"cache.hit_rate", "ratio"},
    {"cache.stores", "count"},
    {"cache.stage_hits", "count"},
    {"cache.graph_stores", "count"},
    {"cache.bad_entries", "count"},
    {"cache.disk_kb", "KB"},
    {"cache.restore_us_per_function", "us"},
    {"graph.recompiled_per_edit", "count"},
    {"server.compile_ms_p50", "ms"},
    {"server.compile_ms_tail", "ms"},
    {"service.overhead_ms_p50", "ms"},
    {"service.overhead_ms_tail", "ms"},
    {"service.request_kb", "KB"},
    {"service.response_kb", "KB"},
    {"server.queue_peak", "count"},
    {"server.busy", "count"},
    {"generator.lag_ms_max", "ms"},
    {"tracing.overhead_pct", "%"},
};

}  // namespace perfbench
