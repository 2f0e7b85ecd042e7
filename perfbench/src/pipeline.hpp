// Traced replicas of the solver's entry points.  Each replica makes the same
// sequence of public calls as the entry point it mirrors (solve_hgp,
// solve_forest_tree, IncrementalSolver::resolve) and opens a span around
// every call, so the traced run can attribute an operation's time to the
// layers.  The harness checks every replica's answer against the entry
// point's, bit for bit, so a replica that drifts from the program fails the
// run instead of measuring something else.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/tree_dp.hpp"
#include "decomp/decomp_tree.hpp"
#include "graph/mutation_log.hpp"
#include "hierarchy/placement.hpp"
#include "runtime/forest_cache.hpp"
#include "runtime/incremental.hpp"
#include "runtime/solver.hpp"

namespace bench {

/// DP work summed over every traced tree solve.
struct DpCounters {
  double signatures = 0;
  double signature_bytes = 0;
  double merges = 0;
  double merges_rejected = 0;
  double feasible_states = 0;
  double states_pruned = 0;
  double arena_bytes_max = 0;
  double nodes_built = 0;
  double nodes_reused = 0;
};
extern DpCounters g_dp;

/// solve_forest_tree, traced: probes of binarize / scale_demands /
/// SignatureSpace (timed separately, then solve_rhgpt repeats them), the DP,
/// the Theorem-5 conversion, tree evaluation, map back and Eq.-1 cost.
hgp::ForestTreeResult traced_tree_solve(const hgp::Graph& g,
                                        const hgp::Hierarchy& h,
                                        const hgp::DecompTree& dt,
                                        const hgp::TreeSolverOptions& opt);

struct ReplicaResult {
  hgp::Placement placement;
  double cost = 0;
  hgp::LoadReport loads;
  bool degraded = false;
};

/// solve_hgp, traced: fingerprint, forest (through `cache` when non-null),
/// per-tree solves, arg-min, and the multilevel → greedy fallback chain.
ReplicaResult traced_solve_hgp(const hgp::Graph& g, const hgp::Hierarchy& h,
                               const hgp::SolverOptions& opt,
                               hgp::ForestCache* cache);

/// The arg-min over a fixed forest as solve_on_forest computes it, traced
/// per tree.  `reuse_in`/`reuse_out` as in ForestSolveOptions.
ReplicaResult traced_solve_on_forest(
    const hgp::Graph& g, const hgp::Hierarchy& h,
    const std::vector<hgp::DecompTree>& forest,
    const hgp::TreeSolverOptions& base,
    const std::vector<hgp::DpReuseStore>* reuse_in,
    std::vector<hgp::DpReuseStore>* reuse_out);

/// IncrementalSolver, traced: keeps its own forest and reuse stores,
/// advanced by the same mutation logs as the solver it shadows.
class TracedIncremental {
 public:
  /// Builds the forest of `base` and runs the base solve, as the solver's
  /// constructor does.
  TracedIncremental(const hgp::Graph& base, const hgp::Hierarchy& h,
                    const hgp::IncrementalOptions& opt, hgp::DemandUnits units);

  /// `log` was recorded against a graph with the same content as graph().
  ReplicaResult resolve(const hgp::MutationLog& log, double timeout_ms,
                        hgp::PatchStats* patch_stats);

  const std::vector<hgp::DecompTree>& forest() const { return forest_; }

 private:
  const hgp::Hierarchy* h_;
  hgp::IncrementalOptions opt_;
  hgp::DemandUnits units_;
  std::vector<hgp::DecompTree> forest_;
  std::vector<hgp::DpReuseStore> stores_;
};

/// True when two forests have identical tree shapes and leaf maps.
bool same_forest(const std::vector<hgp::DecompTree>& a,
                 const std::vector<hgp::DecompTree>& b);

}  // namespace bench
