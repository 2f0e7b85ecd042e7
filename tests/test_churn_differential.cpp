// Differential churn suite: the incremental re-solve path must be
// BIT-IDENTICAL to a from-scratch solve of the same mutated instance.
//
// Every seed derives a stream-DAG instance plus a seeded churn schedule
// (tests/churn_schedule.hpp), applies the schedule through an
// IncrementalSolver (patched forest + clean-subtree DP reuse), and then
// solves the SAME patched forest from scratch with reuse disabled.  The
// two arms must agree exactly: same cost bits, same placement, same
// per-tree feasible-state counts — reuse may only change how tables are
// obtained, never their content.  The merge counters are where the arms
// are allowed to differ, and must differ in the right direction: the
// incremental arm re-merges only dirty subtrees.  Any mismatch prints the
// seed so the instance and its schedule replay in isolation, mirroring
// tests/test_dp_differential.cpp.
//
// The scratch arm is solve_on_forest, so the suite also pins it to
// solve_hgp: both entry points run the same tree stage, and on the same
// forest they must agree bit for bit — plain, with one tree killed, resumed
// from a checkpoint, and in how they report a total failure.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "churn_schedule.hpp"
#include "decomp/cutter.hpp"
#include "graph/fingerprint.hpp"
#include "hierarchy/placement.hpp"
#include "runtime/forest_cache.hpp"
#include "runtime/incremental.hpp"
#include "util/fault_injector.hpp"
#include "util/status.hpp"

namespace hgp {
namespace {

using testchurn::ChurnInstance;
using testchurn::make_churn_instance;

ForestSolveOptions scratch_options(const IncrementalSolver& solver) {
  ForestSolveOptions fo;
  fo.epsilon = 0.25;
  fo.units_override = solver.units();
  return fo;
}

TEST(ChurnDifferential, TwoHundredSeedsBitIdenticalToScratch) {
  int resolved = 0;
  int structural = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const ChurnInstance inst = make_churn_instance(seed);
    SCOPED_TRACE(::testing::Message()
                 << "seed=" << seed << " n=" << inst.graph->vertex_count()
                 << " h=" << inst.hierarchy.height()
                 << " units=" << inst.opt.units_override
                 << " trees=" << inst.opt.num_trees
                 << " ops=" << inst.churn.ops);

    IncrementalSolver solver(inst.graph, inst.hierarchy, inst.opt);
    const std::shared_ptr<MutationLog> log = solver.begin_batch();
    testchurn::apply_schedule(*log, inst);
    if (log->empty()) continue;

    ResolveStats rs;
    HgpResult inc;
    try {
      inc = solver.resolve(*log, ResolveOptions{}, &rs);
    } catch (const SolveError& e) {
      // Only infeasibility is an acceptable way out, and the scratch arm
      // must then agree (the sizing makes this rare; a disagreement or any
      // other error is a bug).
      ASSERT_EQ(e.status().code, StatusCode::kInfeasible) << e.what();
      const MutationLog::Materialized mat = log->materialize();
      const ForestPatch patch = patch_forest(solver.forest(), *log, mat);
      EXPECT_THROW(solve_on_forest(mat.graph, inst.hierarchy, patch.forest,
                                   scratch_options(solver)),
                   SolveError);
      continue;
    }
    ++resolved;
    if (rs.patch.added_leaves > 0 || rs.patch.removed_leaves > 0) {
      ++structural;
    }

    // From-scratch arm: full DP on the SAME patched forest (committed by
    // the successful resolve), reuse disabled.
    const Graph& g = *solver.graph();
    const HgpResult scratch = solve_on_forest(
        g, inst.hierarchy, solver.forest(), scratch_options(solver));

    // Bit-identical outcome: cost, winning tree, placement.
    ASSERT_EQ(inc.cost, scratch.cost);
    ASSERT_EQ(inc.best_tree, scratch.best_tree);
    ASSERT_EQ(inc.placement.leaf_of, scratch.placement.leaf_of);
    ASSERT_EQ(inc.tree_costs.size(), scratch.tree_costs.size());
    for (std::size_t i = 0; i < inc.tree_costs.size(); ++i) {
      ASSERT_EQ(inc.tree_costs[i], scratch.tree_costs[i]);
    }
    validate_placement(g, inst.hierarchy, inc.placement);

    // Identical DP tables: rehydration may never create or lose states.
    ASSERT_EQ(inc.telemetry.dp_feasible_states,
              scratch.telemetry.dp_feasible_states);

    // The arms split the same node set differently: scratch builds every
    // node, incremental builds dirty ones and rehydrates the rest.
    ASSERT_EQ(scratch.telemetry.dp_nodes_reused, 0u);
    ASSERT_EQ(inc.telemetry.dp_nodes_built + inc.telemetry.dp_nodes_reused,
              scratch.telemetry.dp_nodes_built);

    // Merge work only ever shrinks: clean subtrees skip their merge loops.
    ASSERT_LE(inc.telemetry.dp_merge_operations,
              scratch.telemetry.dp_merge_operations);

    // Stability metric bookkeeping is exact.
    ASSERT_LE(rs.moved_vertices, rs.surviving_vertices);
    ASSERT_LE(rs.surviving_vertices, inst.graph->vertex_count());
  }
  // The sweep must keep exercising both regimes; if the generator drifts,
  // fail loudly instead of silently weakening the suite.
  EXPECT_GE(resolved, 150);
  EXPECT_GE(structural, 40);
}

TEST(ChurnDifferential, SmallChurnReusesAtLeastFiveFoldMerges) {
  // Acceptance floor: a drift-dominant churn run touching ≤ 10% of the
  // vertices must cost ≥ 5x fewer merge relaxations than re-solving every
  // batch from scratch.  Two effects compound: demand drift that rounds to
  // the same units leaves the whole forest content-hash clean (zero
  // merges), and a volume reweight re-merges only its two leaf→LCA paths.
  // (Single-batch ratios sit around 3-6x because the rebuilt root path
  // carries the biggest merge loops; the run-level ratio is the metric the
  // E12 bench reports and is comfortably ≥ 10x — 5 here is the floor.)
  Rng rng(977);
  gen::StreamDagOptions sopt;
  sopt.sources = 6;
  sopt.sinks = 3;
  sopt.stages = 8;
  sopt.stage_width = 24;
  sopt.demand_lo = 0.01;
  sopt.demand_hi = 0.05;
  auto g = std::make_shared<const Graph>(gen::stream_dag(sopt, rng));

  IncrementalOptions iopt;
  iopt.num_trees = 2;
  iopt.units_override = 3;
  iopt.seed = 11;
  const Hierarchy h = Hierarchy::uniform(1, 24, {2.0, 0.0});
  IncrementalSolver solver(g, h, iopt);

  std::uint64_t inc_merges = 0;
  std::uint64_t scratch_merges = 0;
  std::uint64_t built = 0;
  std::uint64_t reused = 0;
  std::size_t touched_total = 0;
  for (int batch = 0; batch < 8; ++batch) {
    SCOPED_TRACE(::testing::Message() << "batch=" << batch);
    gen::ChurnOptions copt;
    copt.ops = 2;
    copt.w_add_vertex = 0;
    copt.w_remove_vertex = 0;
    copt.w_add_edge = 0;
    copt.w_remove_edge = 0;
    copt.w_reweight_edge = 1;
    copt.w_set_demand = 6;
    copt.demand_lo = 0.01;
    copt.demand_hi = 0.05;
    const std::shared_ptr<MutationLog> log = solver.begin_batch();
    Rng crng(SplitMix64(1000 + static_cast<std::uint64_t>(batch)).next());
    gen::churn(*log, copt, crng);
    ASSERT_FALSE(log->empty());
    touched_total += log->touched().size();

    ResolveStats rs;
    const HgpResult inc = solver.resolve(*log, ResolveOptions{}, &rs);
    const HgpResult scratch = solve_on_forest(
        *solver.graph(), h, solver.forest(), scratch_options(solver));
    ASSERT_EQ(inc.cost, scratch.cost);
    ASSERT_EQ(inc.placement.leaf_of, scratch.placement.leaf_of);
    inc_merges += inc.telemetry.dp_merge_operations;
    scratch_merges += scratch.telemetry.dp_merge_operations;
    built += rs.nodes_built;
    reused += rs.nodes_reused;
  }
  ASSERT_LE(touched_total, static_cast<std::size_t>(g->vertex_count() / 10));
  EXPECT_GT(reused, built);
  ASSERT_GT(scratch_merges, 0u);
  ASSERT_GT(inc_merges, 0u);  // the run did hit the rebuild path
  EXPECT_GE(scratch_merges, 5 * inc_merges)
      << "scratch=" << scratch_merges << " incremental=" << inc_merges;
}

TEST(ChurnDifferential, ChainedResolvesStayIdenticalToScratch) {
  // Five successive batches against one solver: every commit becomes the
  // next batch's base, and each step must still match scratch exactly.
  const ChurnInstance inst = make_churn_instance(7);
  IncrementalSolver solver(inst.graph, inst.hierarchy, inst.opt);
  for (std::uint64_t step = 0; step < 5; ++step) {
    SCOPED_TRACE(::testing::Message() << "step=" << step);
    const std::shared_ptr<MutationLog> log = solver.begin_batch();
    Rng rng(SplitMix64(inst.churn_seed + step).next());
    gen::ChurnOptions copt = inst.churn;
    copt.ops = 6;
    gen::churn(*log, copt, rng);
    if (log->empty()) continue;
    const HgpResult inc = solver.resolve(*log);
    const HgpResult scratch = solve_on_forest(
        *solver.graph(), inst.hierarchy, solver.forest(),
        scratch_options(solver));
    ASSERT_EQ(inc.cost, scratch.cost);
    ASSERT_EQ(inc.placement.leaf_of, scratch.placement.leaf_of);
    ASSERT_EQ(inc.telemetry.dp_feasible_states,
              scratch.telemetry.dp_feasible_states);
    ASSERT_EQ(solver.fingerprint(), graph_fingerprint(*solver.graph()));
  }
}

TEST(ChurnDifferential, StaleLogIsRejectedWithoutStateDamage) {
  const ChurnInstance inst = make_churn_instance(3);
  IncrementalSolver solver(inst.graph, inst.hierarchy, inst.opt);
  const std::shared_ptr<MutationLog> log = solver.begin_batch();
  testchurn::apply_schedule(*log, inst);
  ASSERT_FALSE(log->empty());
  const HgpResult first = solver.resolve(*log);

  // The same log is now stale: its base is the pre-commit snapshot.
  try {
    solver.resolve(*log);
    FAIL() << "stale log must be rejected";
  } catch (const SolveError& e) {
    EXPECT_EQ(e.status().code, StatusCode::kInvalidInput);
  }
  // Committed state undamaged: a fresh batch still resolves.
  EXPECT_EQ(solver.last().cost, first.cost);
  const std::shared_ptr<MutationLog> fresh = solver.begin_batch();
  fresh->set_demand(0, 0.2);
  EXPECT_NO_THROW(solver.resolve(*fresh));
}

TEST(ChurnDifferential, ReusePinsPruneFlagCompatibility) {
  // A resolve that flips force_prune must still be exact — the store is
  // ignored (prune flag mismatch) and every node rebuilt, never mixed.
  const ChurnInstance inst = make_churn_instance(12);
  IncrementalSolver solver(inst.graph, inst.hierarchy, inst.opt);
  const std::shared_ptr<MutationLog> log = solver.begin_batch();
  testchurn::apply_schedule(*log, inst);
  if (log->empty()) GTEST_SKIP();
  ResolveOptions ro;
  ro.force_prune = true;
  const HgpResult inc = solver.resolve(*log, ro);
  ForestSolveOptions fo = scratch_options(solver);
  fo.force_prune = true;
  const HgpResult scratch =
      solve_on_forest(*solver.graph(), inst.hierarchy, solver.forest(), fo);
  ASSERT_EQ(inc.cost, scratch.cost);
  ASSERT_EQ(inc.placement.leaf_of, scratch.placement.leaf_of);
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// solve_hgp and solve_on_forest must leave no trace of which one ran:
/// same answer, same per-tree record, same DP work.
void expect_same_solve(const HgpResult& hgp, const HgpResult& fixed) {
  EXPECT_TRUE(same_bits(hgp.cost, fixed.cost))
      << hgp.cost << " vs " << fixed.cost;
  EXPECT_EQ(hgp.placement.leaf_of, fixed.placement.leaf_of);
  EXPECT_EQ(hgp.best_tree, fixed.best_tree);
  ASSERT_EQ(hgp.tree_costs.size(), fixed.tree_costs.size());
  for (std::size_t i = 0; i < hgp.tree_costs.size(); ++i) {
    EXPECT_TRUE(same_bits(hgp.tree_costs[i], fixed.tree_costs[i]))
        << "tree " << i;
  }
  ASSERT_EQ(hgp.attempts.size(), fixed.attempts.size());
  for (std::size_t i = 0; i < hgp.attempts.size(); ++i) {
    EXPECT_EQ(hgp.attempts[i].status, fixed.attempts[i].status)
        << "tree " << i;
    EXPECT_EQ(hgp.attempts[i].error, fixed.attempts[i].error) << "tree " << i;
    EXPECT_EQ(hgp.attempts[i].from_checkpoint,
              fixed.attempts[i].from_checkpoint)
        << "tree " << i;
  }
  const SolveTelemetry& a = hgp.telemetry;
  const SolveTelemetry& b = fixed.telemetry;
  EXPECT_EQ(a.trees_attempted, b.trees_attempted);
  EXPECT_EQ(a.trees_succeeded, b.trees_succeeded);
  EXPECT_EQ(a.checkpoint_trees, b.checkpoint_trees);
  EXPECT_EQ(a.dp_signatures, b.dp_signatures);
  EXPECT_EQ(a.dp_feasible_states, b.dp_feasible_states);
  EXPECT_EQ(a.dp_merge_operations, b.dp_merge_operations);
  EXPECT_EQ(a.dp_merges_rejected, b.dp_merges_rejected);
  EXPECT_EQ(a.dp_states_pruned, b.dp_states_pruned);
  EXPECT_EQ(a.dp_nodes_built, b.dp_nodes_built);
  EXPECT_EQ(a.dp_nodes_reused, b.dp_nodes_reused);
}

FaultInjector::Fault fault(FaultInjector::Action action) {
  FaultInjector::Fault f;
  f.action = action;
  return f;
}

TEST(ChurnDifferential, SolveHgpAndSolveOnForestAgreeOnTheSameForest) {
  if (!ForestCache::global().enabled()) {
    GTEST_SKIP() << "needs the forest cache to hand solve_hgp's forest over";
  }
  const FmCutter cutter;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const ChurnInstance inst = make_churn_instance(seed);
    const Graph& g = *inst.graph;
    SCOPED_TRACE(::testing::Message() << "seed=" << seed
                                      << " n=" << g.vertex_count()
                                      << " trees=" << inst.opt.num_trees);
    SolverOptions so;
    so.num_trees = inst.opt.num_trees;
    so.epsilon = inst.opt.epsilon;
    so.units_override = inst.opt.units_override;
    so.seed = inst.opt.seed;
    ForestSolveOptions fo;
    fo.epsilon = so.epsilon;
    fo.units_override = so.units_override;
    fo.seed = so.seed;

    const HgpResult plain = solve_hgp(g, inst.hierarchy, so);
    const CachedForest forest = ForestCache::global().find(ForestCacheKey{
        graph_fingerprint(g), so.seed, so.num_trees, cutter.name()});
    ASSERT_NE(forest, nullptr);
    expect_same_solve(plain, solve_on_forest(g, inst.hierarchy, *forest, fo));

    {
      // One tree killed: both record the same failed attempt and pick the
      // same winner among the survivors.
      const FaultScope kill("solve_one_tree", 1,
                            fault(FaultInjector::Action::kThrow));
      const HgpResult hgp = solve_hgp(g, inst.hierarchy, so);
      ASSERT_EQ(hgp.attempts[1].status, StatusCode::kInternal);
      expect_same_solve(hgp,
                        solve_on_forest(g, inst.hierarchy, *forest, fo));
    }

    {
      // Checkpoint resume: a first attempt with tree 0 killed banks the
      // other trees; the retry serves them from the checkpoint and solves
      // only tree 0.  The two entry points bind the same checkpoint key.
      SolveCheckpoint hgp_ck;
      SolveCheckpoint fixed_ck;
      so.checkpoint = &hgp_ck;
      fo.checkpoint = &fixed_ck;
      {
        const FaultScope kill("solve_one_tree", 0,
                              fault(FaultInjector::Action::kThrow));
        (void)solve_hgp(g, inst.hierarchy, so);
        (void)solve_on_forest(g, inst.hierarchy, *forest, fo);
      }
      EXPECT_TRUE(hgp_ck.key() == fixed_ck.key());
      const HgpResult resumed = solve_hgp(g, inst.hierarchy, so);
      EXPECT_EQ(resumed.telemetry.checkpoint_trees, so.num_trees - 1);
      expect_same_solve(resumed,
                        solve_on_forest(g, inst.hierarchy, *forest, fo));
      EXPECT_TRUE(same_bits(resumed.cost, plain.cost));
      EXPECT_EQ(resumed.placement.leaf_of, plain.placement.leaf_of);
      so.checkpoint = nullptr;
      fo.checkpoint = nullptr;
    }

    {
      // Every tree infeasible: solve_hgp without a fallback and
      // solve_on_forest classify the total failure identically.
      const FaultScope all("solve_one_tree", FaultInjector::kEveryIndex,
                           fault(FaultInjector::Action::kInfeasible));
      SolverOptions strict = so;
      strict.fallback = FallbackPolicy::kNone;
      Status from_hgp;
      Status from_forest;
      try {
        (void)solve_hgp(g, inst.hierarchy, strict);
      } catch (const SolveError& e) {
        from_hgp = e.status();
      }
      try {
        (void)solve_on_forest(g, inst.hierarchy, *forest, fo);
      } catch (const SolveError& e) {
        from_forest = e.status();
      }
      EXPECT_EQ(from_hgp.code, StatusCode::kInfeasible);
      EXPECT_EQ(from_hgp.code, from_forest.code);
      EXPECT_EQ(from_hgp.message, from_forest.message);
    }
  }
}

}  // namespace
}  // namespace hgp
