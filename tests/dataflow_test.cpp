// Unit and property tests for src/dataflow: CFG, the generic solver (via
// liveness), dominators, loops, frequency estimates, live intervals, and
// interference.
#include <gtest/gtest.h>

#include "dataflow/cfg.hpp"
#include "dataflow/dominators.hpp"
#include "dataflow/interference.hpp"
#include "dataflow/live_intervals.hpp"
#include "dataflow/liveness.hpp"
#include "dataflow/loop_info.hpp"
#include "ir/builder.hpp"
#include "ir/parser.hpp"
#include "workload/random_program.hpp"

namespace tadfa::dataflow {
namespace {

ir::Function parse(const std::string& text) {
  auto f = ir::parse_function(text);
  EXPECT_TRUE(f.has_value());
  return std::move(*f);
}

// entry -> head -> {body -> head, exit}
ir::Function loop_function() {
  return parse(
      "func @loop(%0) {\n"
      "entry:\n"
      "  %1 = const 0\n"
      "  jmp head\n"
      "head:\n"
      "  %2 = cmplt %1, %0\n"
      "  br %2, body, exit\n"
      "body:\n"
      "  %1 = add %1, 1\n"
      "  jmp head\n"
      "exit:\n"
      "  ret %1\n"
      "}\n");
}

ir::Function diamond_function() {
  return parse(
      "func @diamond(%0) {\n"
      "entry:\n"
      "  %1 = cmplt %0, 10\n"
      "  br %1, then, other\n"
      "then:\n"
      "  %2 = const 1\n"
      "  jmp join\n"
      "other:\n"
      "  %2 = const 2\n"
      "  jmp join\n"
      "join:\n"
      "  ret %2\n"
      "}\n");
}

// ------------------------------------------------------------------ CFG ----

TEST(Cfg, SuccessorsAndPredecessors) {
  const ir::Function f = loop_function();
  const Cfg cfg(f);
  EXPECT_EQ(cfg.successors(0), (std::vector<ir::BlockId>{1}));
  EXPECT_EQ(cfg.successors(1), (std::vector<ir::BlockId>{2, 3}));
  EXPECT_EQ(cfg.predecessors(1), (std::vector<ir::BlockId>{0, 2}));
}

TEST(Cfg, ReversePostOrderStartsAtEntry) {
  const ir::Function f = loop_function();
  const Cfg cfg(f);
  EXPECT_EQ(cfg.reverse_post_order().front(), 0u);
  EXPECT_EQ(cfg.reverse_post_order().size(), 4u);
}

TEST(Cfg, RpoVisitsPredecessorsFirstForAcyclic) {
  const ir::Function f = diamond_function();
  const Cfg cfg(f);
  const auto& rpo = cfg.reverse_post_order();
  std::vector<std::size_t> pos(f.block_count());
  for (std::size_t i = 0; i < rpo.size(); ++i) {
    pos[rpo[i]] = i;
  }
  EXPECT_LT(pos[0], pos[1]);
  EXPECT_LT(pos[0], pos[2]);
  EXPECT_LT(pos[1], pos[3]);
  EXPECT_LT(pos[2], pos[3]);
}

TEST(Cfg, DetectsUnreachableBlocks) {
  ir::Function f = parse(
      "func @u() {\n"
      "entry:\n"
      "  ret\n"
      "dead:\n"
      "  ret\n"
      "}\n");
  const Cfg cfg(f);
  EXPECT_TRUE(cfg.reachable(0));
  EXPECT_FALSE(cfg.reachable(1));
  EXPECT_EQ(cfg.reverse_post_order().size(), 2u);
}

// ------------------------------------------------------------- liveness ----

TEST(Liveness, LoopVariableLiveAroundBackEdge) {
  const ir::Function f = loop_function();
  const Cfg cfg(f);
  const Liveness lv(cfg);
  EXPECT_TRUE(lv.live_in(1).test(1));
  EXPECT_TRUE(lv.live_in(2).test(1));
  EXPECT_TRUE(lv.live_in(3).test(1));
  EXPECT_TRUE(lv.live_in(1).test(0));
  EXPECT_FALSE(lv.live_in(3).test(0));
}

TEST(Liveness, DeadAfterLastUse) {
  const ir::Function f = diamond_function();
  const Cfg cfg(f);
  const Liveness lv(cfg);
  EXPECT_FALSE(lv.live_in(1).test(1));
  EXPECT_FALSE(lv.live_in(2).test(1));
  EXPECT_TRUE(lv.live_in(3).test(2));
}

TEST(Liveness, LiveAfterEachWalksBackward) {
  const ir::Function f = loop_function();
  const Cfg cfg(f);
  const Liveness lv(cfg);
  const auto after = lv.live_after_each(0);
  ASSERT_EQ(after.size(), 2u);
  EXPECT_TRUE(after[0].test(1));
  EXPECT_TRUE(after[1].test(1));
}

TEST(Liveness, ConvergesInFewIterations) {
  const ir::Function f = loop_function();
  const Cfg cfg(f);
  const Liveness lv(cfg);
  EXPECT_LE(lv.iterations(), 5);
}

TEST(Liveness, MaxPressureCountsOverlap) {
  ir::Function f = parse(
      "func @p() {\n"
      "entry:\n"
      "  %0 = const 1\n"
      "  %1 = const 2\n"
      "  %2 = const 3\n"
      "  %3 = add %0, %1\n"
      "  %4 = add %3, %2\n"
      "  ret %4\n"
      "}\n");
  const Cfg cfg(f);
  const Liveness lv(cfg);
  EXPECT_EQ(lv.max_pressure(), 3u);
}

TEST(Liveness, FixedPointIsIdempotent) {
  const ir::Function f = loop_function();
  const Cfg cfg(f);
  const Liveness a(cfg);
  const Liveness b(cfg);
  for (ir::BlockId blk = 0; blk < f.block_count(); ++blk) {
    EXPECT_EQ(a.live_in(blk), b.live_in(blk));
    EXPECT_EQ(a.live_out(blk), b.live_out(blk));
  }
}

// ------------------------------------------------------------ dominators ----

TEST(Dominators, LinearChain) {
  const ir::Function f = loop_function();
  const Cfg cfg(f);
  const Dominators doms(cfg);
  EXPECT_EQ(doms.idom(0), 0u);
  EXPECT_EQ(doms.idom(1), 0u);
  EXPECT_EQ(doms.idom(2), 1u);
  EXPECT_EQ(doms.idom(3), 1u);
}

TEST(Dominators, DiamondJoinDominatedByFork) {
  const ir::Function f = diamond_function();
  const Cfg cfg(f);
  const Dominators doms(cfg);
  EXPECT_EQ(doms.idom(3), 0u);
  EXPECT_TRUE(doms.dominates(0, 3));
  EXPECT_FALSE(doms.dominates(1, 3));
}

TEST(Dominators, DominatesIsReflexive) {
  const ir::Function f = diamond_function();
  const Cfg cfg(f);
  const Dominators doms(cfg);
  for (ir::BlockId b = 0; b < f.block_count(); ++b) {
    EXPECT_TRUE(doms.dominates(b, b));
  }
}

TEST(Dominators, DepthsIncreaseDownTree) {
  const ir::Function f = loop_function();
  const Cfg cfg(f);
  const Dominators doms(cfg);
  EXPECT_EQ(doms.depth(0), 0u);
  EXPECT_EQ(doms.depth(1), 1u);
  EXPECT_EQ(doms.depth(2), 2u);
}

// ------------------------------------------------------------- loop info ----

TEST(LoopInfo, FindsNaturalLoop) {
  const ir::Function f = loop_function();
  const Cfg cfg(f);
  const Dominators doms(cfg);
  const LoopInfo li(cfg, doms);
  ASSERT_EQ(li.loops().size(), 1u);
  EXPECT_EQ(li.loops()[0].header, 1u);
  EXPECT_EQ(li.loops()[0].latches, (std::vector<ir::BlockId>{2}));
  EXPECT_TRUE(li.is_header(1));
  EXPECT_FALSE(li.is_header(0));
}

TEST(LoopInfo, DepthInsideVsOutside) {
  const ir::Function f = loop_function();
  const Cfg cfg(f);
  const Dominators doms(cfg);
  const LoopInfo li(cfg, doms);
  EXPECT_EQ(li.depth(0), 0u);
  EXPECT_EQ(li.depth(1), 1u);
  EXPECT_EQ(li.depth(2), 1u);
  EXPECT_EQ(li.depth(3), 0u);
}

TEST(LoopInfo, NestedLoopsStackDepth) {
  ir::Function f = parse(
      "func @nest(%0) {\n"
      "entry:\n"
      "  %1 = const 0\n"
      "  jmp oh\n"
      "oh:\n"
      "  %2 = cmplt %1, %0\n"
      "  br %2, ih_pre, exit\n"
      "ih_pre:\n"
      "  %3 = const 0\n"
      "  jmp ih\n"
      "ih:\n"
      "  %4 = cmplt %3, %0\n"
      "  br %4, ibody, otail\n"
      "ibody:\n"
      "  %3 = add %3, 1\n"
      "  jmp ih\n"
      "otail:\n"
      "  %1 = add %1, 1\n"
      "  jmp oh\n"
      "exit:\n"
      "  ret %1\n"
      "}\n");
  const Cfg cfg(f);
  const Dominators doms(cfg);
  const LoopInfo li(cfg, doms);
  EXPECT_EQ(li.loops().size(), 2u);
  EXPECT_EQ(li.depth(3), 2u);
  EXPECT_EQ(li.depth(4), 2u);
  EXPECT_EQ(li.depth(1), 1u);
}

TEST(LoopInfo, FrequenciesScaleWithDepth) {
  const ir::Function f = loop_function();
  const Cfg cfg(f);
  const Dominators doms(cfg);
  const LoopInfo li(cfg, doms);
  const auto freq = estimate_block_frequencies(cfg, li, 10.0);
  EXPECT_DOUBLE_EQ(freq[0], 1.0);
  EXPECT_DOUBLE_EQ(freq[1], 10.0);
  EXPECT_DOUBLE_EQ(freq[2], 10.0);
  EXPECT_DOUBLE_EQ(freq[3], 1.0);
}

TEST(LoopInfo, DiamondArmsHalved) {
  const ir::Function f = diamond_function();
  const Cfg cfg(f);
  const Dominators doms(cfg);
  const LoopInfo li(cfg, doms);
  const auto freq = estimate_block_frequencies(cfg, li, 10.0);
  EXPECT_DOUBLE_EQ(freq[0], 1.0);
  EXPECT_DOUBLE_EQ(freq[1], 0.5);
  EXPECT_DOUBLE_EQ(freq[2], 0.5);
}

// --------------------------------------------------------- live intervals ----

TEST(LiveIntervals, PositionsAreBlockOrdered) {
  const ir::Function f = loop_function();
  const Cfg cfg(f);
  const Liveness lv(cfg);
  const LiveIntervals li(cfg, lv);
  EXPECT_EQ(li.position({0, 0}), 0u);
  EXPECT_EQ(li.position({1, 0}), 2u);
  EXPECT_EQ(li.position_count(), f.instruction_count());
}

TEST(LiveIntervals, LoopVariableSpansLoop) {
  const ir::Function f = loop_function();
  const Cfg cfg(f);
  const Liveness lv(cfg);
  const LiveIntervals li(cfg, lv);
  const auto iv = li.interval(1);
  ASSERT_TRUE(iv.has_value());
  EXPECT_EQ(iv->start, 0u);
  EXPECT_EQ(iv->end, li.position({3, 0}));
  // def (const), use (cmp), def+use (add), use (ret) = 5 accesses.
  EXPECT_EQ(iv->access_count, 5u);
}

TEST(LiveIntervals, SortedByStart) {
  const ir::Function f = loop_function();
  const Cfg cfg(f);
  const Liveness lv(cfg);
  const LiveIntervals li(cfg, lv);
  const auto& ivs = li.intervals();
  for (std::size_t i = 1; i < ivs.size(); ++i) {
    EXPECT_LE(ivs[i - 1].start, ivs[i].start);
  }
}

TEST(LiveIntervals, OverlapPredicate) {
  const LiveInterval a{0, 0, 5, 0};
  const LiveInterval b{1, 5, 9, 0};
  const LiveInterval c{2, 6, 9, 0};
  EXPECT_TRUE(a.overlaps(b));
  EXPECT_FALSE(a.overlaps(c));
}

// ----------------------------------------------------------- interference ----

TEST(Interference, SimultaneouslyLiveValuesInterfere) {
  ir::Function f = parse(
      "func @i() {\n"
      "entry:\n"
      "  %0 = const 1\n"
      "  %1 = const 2\n"
      "  %2 = add %0, %1\n"
      "  ret %2\n"
      "}\n");
  const Cfg cfg(f);
  const Liveness lv(cfg);
  const InterferenceGraph g(cfg, lv);
  EXPECT_TRUE(g.interferes(0, 1));
  EXPECT_FALSE(g.interferes(0, 2));
}

TEST(Interference, MoveSourceExempted) {
  ir::Function f = parse(
      "func @m() {\n"
      "entry:\n"
      "  %0 = const 1\n"
      "  %1 = mov %0\n"
      "  %2 = add %1, %0\n"
      "  ret %2\n"
      "}\n");
  const Cfg cfg(f);
  const Liveness lv(cfg);
  const InterferenceGraph g(cfg, lv);
  EXPECT_FALSE(g.interferes(1, 0));
}

TEST(Interference, ParamsMutuallyInterfere) {
  ir::Function f = parse(
      "func @p(%0, %1) {\n"
      "entry:\n"
      "  %2 = add %0, %1\n"
      "  ret %2\n"
      "}\n");
  const Cfg cfg(f);
  const Liveness lv(cfg);
  const InterferenceGraph g(cfg, lv);
  EXPECT_TRUE(g.interferes(0, 1));
}

TEST(Interference, DegreeAndEdgeCount) {
  ir::Function f = parse(
      "func @d() {\n"
      "entry:\n"
      "  %0 = const 1\n"
      "  %1 = const 2\n"
      "  %2 = const 3\n"
      "  %3 = add %0, %1\n"
      "  %4 = add %3, %2\n"
      "  ret %4\n"
      "}\n");
  const Cfg cfg(f);
  const Liveness lv(cfg);
  const InterferenceGraph g(cfg, lv);
  EXPECT_EQ(g.degree(0), 2u);
  EXPECT_GE(g.edge_count(), 3u);
  EXPECT_EQ(g.neighbors(0), (std::vector<ir::Reg>{1, 2}));
}

class InterferenceRandomTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(InterferenceRandomTest, SymmetricAndIrreflexive) {
  workload::RandomProgramConfig cfg_rp;
  cfg_rp.seed = GetParam();
  cfg_rp.target_instructions = 80;
  ir::Function f = workload::random_program(cfg_rp);
  const Cfg cfg(f);
  const Liveness lv(cfg);
  const InterferenceGraph g(cfg, lv);
  for (ir::Reg a = 0; a < f.reg_count(); ++a) {
    for (ir::Reg b : g.neighbors(a)) {
      EXPECT_TRUE(g.interferes(b, a));
      EXPECT_NE(a, b);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, InterferenceRandomTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace tadfa::dataflow
