// Randomized differential harness for the DP hot-path optimizations.
//
// Every seed builds a random instance (tree shape, edge weights, demands,
// hierarchy height/degree/multipliers, rounding resolution) and solves it
// under several DP configurations that must agree exactly:
//   * pruning ON vs pruning OFF (dominance pruning is provably lossless);
//   * sequential vs parallel subtree DP (scheduling must be bit-identical);
//   * DP vs the exhaustive brute-force oracle on instances small enough to
//     enumerate (dp_reference.hpp).
// Any mismatch prints the seed so the instance can be replayed in
// isolation.  The HGP_DP_PRUNE environment knob is read once per process;
// CI runs this whole binary under both HGP_DP_PRUNE=1 and =0, which drags
// every in-process configuration through both global modes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "core/rhgpt.hpp"
#include "core/tree_dp.hpp"
#include "dp_reference.hpp"
#include "graph/generators.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"
#include "util/prng.hpp"

namespace hgp {
namespace {

struct Instance {
  Tree tree;
  Hierarchy hierarchy;
  DemandUnits units = 2;
};

/// Deterministically derives one random instance from `seed`, sized so the
/// full 200-seed sweep stays in test-suite time (deeper hierarchies get
/// smaller trees and coarser rounding — the signature space is the cost
/// driver, not the tree).
Instance make_instance(std::uint64_t seed) {
  Rng rng(seed * 7919 + 17);
  const int height = 1 + static_cast<int>(seed % 3);
  int max_n = 40;
  DemandUnits max_units = 8;
  if (height == 2) {
    max_n = 24;
    max_units = 5;
  } else if (height == 3) {
    max_n = 12;
    max_units = 3;
  }
  const auto n = static_cast<Vertex>(rng.next_int(6, max_n));
  const int deg = static_cast<int>(rng.next_int(2, 3));
  const Graph g =
      gen::random_tree(n, rng, gen::WeightRange{1.0, 9.0});
  Tree t = Tree::from_graph(g, 0);

  // Strictly decreasing cost multipliers ending at cm(h) = 0.
  std::vector<double> cm(static_cast<std::size_t>(height) + 1, 0.0);
  double acc = 0.0;
  for (int j = height - 1; j >= 0; --j) {
    acc += rng.next_double(0.5, 4.0);
    cm[static_cast<std::size_t>(j)] = acc;
  }
  Hierarchy h = Hierarchy::uniform(height, deg, std::move(cm));

  // Demands targeting a random fill of the root capacity, clamped to the
  // (0,1] leaf-demand domain; rescale if rounding pressure overshoots.
  const double cap0 = static_cast<double>(h.capacity(0));
  const double fill = rng.next_double(0.3, 0.85);
  const double mean = fill * cap0 / static_cast<double>(t.leaf_count());
  std::vector<double> d(static_cast<std::size_t>(t.leaf_count()));
  double total = 0.0;
  for (double& x : d) {
    x = std::clamp(mean * rng.next_double(0.4, 1.6), 0.02, 1.0);
    total += x;
  }
  if (total > fill * cap0) {
    for (double& x : d) x = std::max(0.02, x * fill * cap0 / total);
  }
  t.set_leaf_demands(d);

  Instance inst{std::move(t), std::move(h)};
  inst.units = static_cast<DemandUnits>(rng.next_int(2, max_units));
  return inst;
}

TreeDpResult run_dp(const Instance& inst, bool prune, ThreadPool* pool) {
  TreeDpOptions opt;
  opt.units_override = inst.units;
  opt.prune_dominated = prune;
  opt.pool = pool;
  opt.min_parallel_nodes = 2;  // force the parallel phase on small trees
  return solve_rhgpt(inst.tree, inst.hierarchy, opt);
}

TEST(DpDifferential, TwoHundredSeedsAgreeAcrossConfigurations) {
  ThreadPool pool(4);
  int brute_checked = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const Instance inst = make_instance(seed);
    SCOPED_TRACE(::testing::Message()
                 << "seed=" << seed << " leaves=" << inst.tree.leaf_count()
                 << " h=" << inst.hierarchy.height()
                 << " units=" << inst.units);

    const TreeDpResult baseline = run_dp(inst, /*prune=*/false, nullptr);
    const TreeDpResult pruned = run_dp(inst, /*prune=*/true, nullptr);
    const TreeDpResult parallel = run_dp(inst, /*prune=*/true, &pool);

    // Pruning is lossless: same optimum, never more surviving states.
    ASSERT_NEAR(baseline.cost, pruned.cost, 1e-9);
    ASSERT_LE(pruned.stats.feasible_states, baseline.stats.feasible_states);

    // Parallel subtree scheduling is bit-identical to the sequential
    // sweep: same optimum AND the same amount of DP work.
    ASSERT_EQ(pruned.cost, parallel.cost);
    ASSERT_EQ(pruned.stats.feasible_states, parallel.stats.feasible_states);
    ASSERT_EQ(pruned.stats.merge_operations, parallel.stats.merge_operations);
    ASSERT_EQ(pruned.stats.states_pruned, parallel.stats.states_pruned);

    // The reported cost is the Definition-4 cost of the reported solution.
    ASSERT_NEAR(pruned.cost,
                rhgpt_cost(inst.tree, inst.hierarchy, pruned.solution), 1e-9);

    // Exhaustive oracle on instances small enough to enumerate.
    if (inst.tree.leaf_count() <= 5 && inst.hierarchy.height() <= 2) {
      ++brute_checked;
      const double brute = testref::brute_force_rhgpt(
          inst.tree, inst.hierarchy, pruned.scaled);
      ASSERT_NEAR(pruned.cost, brute, 1e-9);
    }
  }
  // The size distribution must keep feeding the oracle; if a generator
  // change starves it, this fails loudly instead of silently weakening.
  EXPECT_GE(brute_checked, 3);
}

// Absolute DP counters for a handful of seeds, with pruning forced ON and
// OFF (independent of HGP_DP_PRUNE).  The sweep above only compares
// configurations of the same kernel with each other, so a kernel that
// skipped or double-counted merges in every configuration would still pass
// it; these pinned values would not.  Each seed is also solved four times
// at once on a 4-worker pool, all sharing one SignatureSpace (the first to
// ask builds it): every such solve must reproduce the pinned counters and
// the private-space solve's cost and solution.  On drift the test prints
// the measured rows.
struct PinnedDp {
  std::uint64_t seed;
  bool prune;
  std::size_t merges;
  std::size_t rejected;
  std::size_t feasible;
  std::size_t pruned;
};

constexpr PinnedDp kPinnedDp[] = {
    {1, true, 4014, 108, 197, 53},   {1, false, 9177, 208, 289, 0},
    {2, true, 3837, 30, 166, 45},    {2, false, 4935, 38, 262, 0},
    {3, true, 547, 6, 130, 11},      {3, false, 718, 8, 151, 0},
    {4, true, 199, 1, 33, 9},        {4, false, 252, 1, 43, 0},
    {5, true, 3478, 21, 114, 12},    {5, false, 5110, 22, 126, 0},
    {6, true, 191, 3, 61, 2},        {6, false, 200, 3, 66, 0},
    {100, true, 406, 3, 76, 3},      {100, false, 423, 3, 82, 0},
    {200, true, 426, 1, 51, 0},      {200, false, 426, 1, 51, 0},
};

TEST(DpDifferential, CountersMatchPinnedValues) {
  ThreadPool pool(4);
  for (const PinnedDp& pin : kPinnedDp) {
    const Instance inst = make_instance(pin.seed);
    SCOPED_TRACE(::testing::Message()
                 << "seed=" << pin.seed << " prune=" << pin.prune);
    TreeDpOptions opt;
    opt.units_override = inst.units;
    opt.prune_dominated = pin.prune;
    opt.force_prune = pin.prune;
    const TreeDpResult ref = solve_rhgpt(inst.tree, inst.hierarchy, opt);
    const TreeDpStats& s = ref.stats;
    EXPECT_EQ(s.merge_operations, pin.merges);
    EXPECT_EQ(s.merges_rejected, pin.rejected);
    EXPECT_EQ(s.feasible_states, pin.feasible);
    EXPECT_EQ(s.states_pruned, pin.pruned);

    SharedSignatureSpace shared;
    TreeDpOptions shared_opt = opt;
    shared_opt.shared_space = &shared;
    std::vector<TreeDpResult> got(4);
    parallel_for(pool, 0, got.size(), [&](std::size_t i) {
      got[i] = solve_rhgpt(inst.tree, inst.hierarchy, shared_opt);
    });
    for (const TreeDpResult& r : got) {
      EXPECT_EQ(r.stats.merge_operations, pin.merges);
      EXPECT_EQ(r.stats.merges_rejected, pin.rejected);
      EXPECT_EQ(r.stats.feasible_states, pin.feasible);
      EXPECT_EQ(r.stats.states_pruned, pin.pruned);
      EXPECT_EQ(r.stats.signature_count, s.signature_count);
      EXPECT_EQ(r.cost, ref.cost);
      EXPECT_EQ(r.solution.sets, ref.solution.sets);
    }
    if (::testing::Test::HasFailure()) {
      std::printf("measured: {%llu, %s, %zu, %zu, %zu, %zu},\n",
                  static_cast<unsigned long long>(pin.seed),
                  pin.prune ? "true" : "false", s.merge_operations,
                  s.merges_rejected, s.feasible_states, s.states_pruned);
    }
  }
}

TEST(DpDifferential, ParallelPhaseActuallyRuns) {
  // A solve large enough for plan_subtrees to emit tasks — guards against
  // the parallel path silently degrading to sequential forever.
  ThreadPool pool(4);
  Rng rng(42);
  const Graph g = gen::random_tree(300, rng, gen::WeightRange{1.0, 5.0});
  Tree t = Tree::from_graph(g, 0);
  std::vector<double> d(static_cast<std::size_t>(t.leaf_count()));
  for (double& x : d) x = rng.next_double(0.01, 0.03);
  t.set_leaf_demands(d);
  const Hierarchy h = Hierarchy::uniform(2, 4, {4.0, 1.0, 0.0});

  TreeDpOptions seq;
  seq.units_override = 3;
  TreeDpOptions par = seq;
  par.pool = &pool;
  const TreeDpResult a = solve_rhgpt(t, h, seq);
  const TreeDpResult b = solve_rhgpt(t, h, par);
  EXPECT_GT(b.stats.subtree_tasks, 1u);
  EXPECT_EQ(a.stats.subtree_tasks, 0u);
  EXPECT_EQ(a.cost, b.cost);
  EXPECT_EQ(a.stats.merge_operations, b.stats.merge_operations);
  EXPECT_EQ(a.stats.feasible_states, b.stats.feasible_states);
}

TEST(DpDifferential, WorkerThreadFallsBackToSequentialDp) {
  // A DP called from inside one of the pool's own workers must not fan
  // subtrees back into that pool (deadlock risk); it runs sequentially.
  ThreadPool pool(2);
  Rng rng(7);
  const Graph g = gen::random_tree(200, rng, gen::WeightRange{1.0, 5.0});
  Tree t = Tree::from_graph(g, 0);
  std::vector<double> d(static_cast<std::size_t>(t.leaf_count()));
  for (double& x : d) x = rng.next_double(0.01, 0.03);
  t.set_leaf_demands(d);
  const Hierarchy h = Hierarchy::uniform(1, 8, {2.0, 0.0});

  TreeDpOptions opt;
  opt.units_override = 2;
  opt.pool = &pool;
  const TreeDpResult nested =
      pool.submit([&] { return solve_rhgpt(t, h, opt); }).get();
  EXPECT_EQ(nested.stats.subtree_tasks, 0u);
  const TreeDpResult outer = solve_rhgpt(t, h, opt);
  EXPECT_EQ(nested.cost, outer.cost);
}

}  // namespace
}  // namespace hgp
