// Self-tests for the benchmark's own code: the tail-percentile rule,
// open-loop timing from the due time, span self time, and the seeded
// generators.
//
//   python3 perfbench/run.py --self-test
#include <gtest/gtest.h>

#include <set>

#include "frontend/frontend.hpp"
#include "nest_gen.hpp"
#include "open_loop.hpp"
#include "speed.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) {
    v.push_back(static_cast<double>(i));
  }
  return v;
}

TEST(TailRule, LeavesAtLeastTenSamplesBeyond) {
  for (std::size_t n = 11; n <= 2000; ++n) {
    const Tail t = tail(ramp(n));
    ASSERT_LT(t.pct, 100) << n;
    // On 1..n the tail value is its own rank.
    const auto beyond = n - static_cast<std::size_t>(t.value);
    EXPECT_GE(beyond, kTailBeyond) << n;
    // One whole percentile higher would leave fewer than ten.
    if (t.pct < 99) {
      const std::size_t next_rank = ((t.pct + 1) * n + 99) / 100;
      EXPECT_LT(n - next_rank, kTailBeyond) << n;
    }
  }
}

TEST(TailRule, KnownCounts) {
  EXPECT_EQ(tail_percentile(100), 90);
  EXPECT_EQ(tail_percentile(1000), 99);
  EXPECT_EQ(tail_percentile(20), 50);
  EXPECT_EQ(tail(ramp(100)).value, 90);
  // Too few samples for any percentile: the maximum.
  EXPECT_EQ(tail_percentile(10), 100);
  EXPECT_EQ(tail(ramp(10)).value, 10);
  EXPECT_EQ(median({3, 1, 2}), 2);
  EXPECT_EQ(median({4, 1, 2, 3}), 2.5);
}

/// A clock that only moves when told to: waiting jumps to the target,
/// and each request takes a scripted service time.
struct FakeClock {
  double t = 0;
  OpenLoopClock clock() {
    return {[this] { return t; },
            [this](double until) { t = std::max(t, until); }};
  }
};

TEST(OpenLoop, LatencyIsTimedFromTheDueTime) {
  FakeClock fake;
  const std::vector<double> service = {0.01, 0.01, 0.35, 0.01, 0.01, 0.01};
  const auto timings =
      run_open_loop(service.size(), 0.1, 0.0, 100, fake.clock(),
                    [&](std::size_t k) { fake.t += service[k]; });
  ASSERT_EQ(timings.size(), service.size());
  // Before the stall every request is sent on time.
  EXPECT_NEAR(timings[1].lag_s(), 0, 1e-12);
  EXPECT_NEAR(timings[1].latency_s(), 0.01, 1e-12);
  // Request 2 stalls 0.35 s: due at 0.2, done at 0.55.
  EXPECT_NEAR(timings[2].latency_s(), 0.35, 1e-12);
  // Requests 3 and 4 were due at 0.3 and 0.4 but could only be sent
  // after 0.55; their wait counts in their latency.
  EXPECT_NEAR(timings[3].lag_s(), 0.25, 1e-12);
  EXPECT_NEAR(timings[3].latency_s(), 0.26, 1e-12);
  EXPECT_NEAR(timings[4].latency_s(), 0.17, 1e-12);
  // Request 5 (due 0.5, sent 0.57) is nearly caught up.
  EXPECT_NEAR(timings[5].latency_s(), 0.08, 1e-12);
}

TEST(OpenLoop, StopsAtTheDeadline) {
  FakeClock fake;
  const auto timings = run_open_loop(10, 0.1, 0.0, 0.25, fake.clock(),
                                     [&](std::size_t) { fake.t += 0.2; });
  EXPECT_EQ(timings.size(), 2u);
}

TEST(Trace, SelfTimeSubtractsTheChildrenOnce) {
  Tracer tracer;
  const int parent = tracer.add("request", 0, 100, kNoParent, "r");
  tracer.add("write_request", 10, 30, parent, "r");
  // Overlapping children count once; a child poking out of its parent
  // counts only inside it.
  tracer.add("read_response", 20, 50, parent, "r");
  const int late = tracer.add("read_response", 90, 120, parent, "r");
  tracer.add("server.compile", 95, 110, late, "r");
  EXPECT_DOUBLE_EQ(tracer.self_us(static_cast<std::size_t>(parent)),
                   100 - 40 - 10);
  EXPECT_DOUBLE_EQ(tracer.self_us(static_cast<std::size_t>(late)), 30 - 15);
  const auto totals = tracer.totals_by_name();
  EXPECT_DOUBLE_EQ(totals.at("read_response").total_us, 60);
  EXPECT_EQ(totals.at("read_response").count, 2u);
  EXPECT_NE(tracer.chrome_json().find("\"name\":\"server.compile\""),
            std::string::npos);
}

TEST(Speed, FactorScalesToTheNominalBurst) {
  SpeedProbe probe;
  EXPECT_EQ(probe.factor(), 1.0);
  // A host running the reference at half speed doubles measured times;
  // the factor halves them back.
  probe.add(2 * kNominalBurstSeconds);
  probe.add(2 * kNominalBurstSeconds);
  EXPECT_DOUBLE_EQ(probe.factor(), 0.5);
  SpeedProbe fast;
  fast.add(kNominalBurstSeconds / 2);
  probe.merge(fast);
  EXPECT_DOUBLE_EQ(probe.factor(), 3 * kNominalBurstSeconds /
                                       (4.5 * kNominalBurstSeconds));
  EXPECT_GT(reference_burst_seconds(), 0);
}

std::vector<std::uint64_t> fingerprints(const std::vector<PoolModule>& pool) {
  const auto* texpr = tadfa::frontend::find_frontend("texpr");
  std::vector<std::uint64_t> out;
  for (const PoolModule& pm : pool) {
    tadfa::ir::Module module = pm.module;
    if (!pm.source.empty()) {
      auto parsed = texpr->parse(pm.source);
      EXPECT_TRUE(parsed.ok()) << parsed.diagnostics_text();
      EXPECT_TRUE(parsed.diagnostics.empty());
      if (!parsed.ok()) {
        continue;
      }
      module = *parsed.module;
    }
    for (const tadfa::ir::Function& f : module.functions()) {
      out.push_back(tadfa::ir::fingerprint(f));
    }
  }
  return out;
}

TEST(Generators, SameSeedSameInputsNewSeedNewInputs) {
  for (auto make : {&cold_module_pool, &deep_loops_pool}) {
    const auto a = fingerprints(make(7));
    EXPECT_EQ(a, fingerprints(make(7)));
    const auto b = fingerprints(make(8));
    ASSERT_EQ(a.size(), b.size());
    std::size_t same = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
      same += a[i] == b[i] ? 1 : 0;
    }
    EXPECT_LT(same, a.size() / 10);
  }
}

TEST(Generators, EveryNestParsesCleanly) {
  const auto* texpr = tadfa::frontend::find_frontend("texpr");
  for (const NestShape shape :
       {NestShape::kMatmul, NestShape::kStencil, NestShape::kConv2d}) {
    for (int depth = kMinNestDepth; depth <= kMaxNestDepth; ++depth) {
      for (std::uint64_t seed = 0; seed < 20; ++seed) {
        const Nest nest = make_nest(shape, depth, seed, "f");
        const auto parsed = texpr->parse(nest.source);
        ASSERT_TRUE(parsed.ok()) << nest.source << parsed.diagnostics_text();
        EXPECT_TRUE(parsed.diagnostics.empty());
        EXPECT_EQ(parsed.module->size(), 1u);
      }
    }
  }
}

TEST(Generators, NestStructureDoesNotDependOnTheSeed) {
  const auto* texpr = tadfa::frontend::find_frontend("texpr");
  for (int depth = kMinNestDepth; depth <= kMaxNestDepth; ++depth) {
    std::set<std::size_t> sizes;
    for (std::uint64_t seed = 0; seed < 10; ++seed) {
      const auto parsed =
          texpr->parse(make_nest(NestShape::kConv2d, depth, seed, "f").source);
      ASSERT_TRUE(parsed.ok());
      sizes.insert(parsed.module->functions()[0].instruction_count());
    }
    EXPECT_EQ(sizes.size(), 1u) << "depth " << depth;
  }
}

}  // namespace
}  // namespace perfbench
