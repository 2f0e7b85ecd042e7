#include "pipeline.hpp"

#include <algorithm>
#include <utility>

#include "baseline/greedy.hpp"
#include "baseline/multilevel.hpp"
#include "common.hpp"
#include "core/binarize.hpp"
#include "core/demand.hpp"
#include "core/signature.hpp"
#include "core/tree_solver.hpp"
#include "decomp/builder.hpp"
#include "decomp/cutter.hpp"
#include "decomp/patch.hpp"
#include "graph/fingerprint.hpp"
#include "hierarchy/cost.hpp"
#include "util/deadline.hpp"
#include "util/prng.hpp"
#include "util/status.hpp"

namespace bench {

DpCounters g_dp;

namespace {

hgp::ExecContext make_exec(double timeout_ms) {
  hgp::ExecContext exec;
  exec.deadline = timeout_ms > 0 ? hgp::Deadline::after_ms(timeout_ms)
                                 : hgp::Deadline::never();
  return exec;
}

/// Keeps a computed value observable so the call producing it is not elided.
volatile double g_sink = 0;

}  // namespace

hgp::ForestTreeResult traced_tree_solve(const hgp::Graph& g,
                                        const hgp::Hierarchy& h,
                                        const hgp::DecompTree& dt,
                                        const hgp::TreeSolverOptions& opt) {
  const Scope tree_span("runtime.tree_solve");
  const hgp::Tree& t = dt.tree();
  {
    // Probes: the DP runs these three itself; timing them here splits the
    // DP's set-up from its sweep.
    hgp::BinarizedTree bin;
    {
      const Scope s("core.binarize");
      bin = hgp::binarize(t);
    }
    hgp::ScaledDemands sd;
    {
      const Scope s("core.round");
      sd = hgp::scale_demands(bin.tree, h, opt.epsilon, opt.units_override);
    }
    if (sd.total <= sd.capacity_at(0)) {
      const Scope s("core.signature_space");
      const hgp::SignatureSpace space(sd, h.height());
      g_dp.signature_bytes += static_cast<double>(space.interned_bytes());
    }
  }
  hgp::TreeDpOptions dp_opt;
  dp_opt.epsilon = opt.epsilon;
  dp_opt.units_override = opt.units_override;
  dp_opt.pool = opt.pool;
  dp_opt.exec = opt.exec;
  dp_opt.force_prune = opt.force_prune;
  dp_opt.reuse_in = opt.reuse_in;
  dp_opt.reuse_out = opt.reuse_out;
  hgp::TreeDpResult dp;
  {
    const Scope s("core.dp");
    dp = hgp::solve_rhgpt(t, h, dp_opt);
  }
  hgp::TreeAssignment assignment;
  {
    const Scope s("core.convert");
    assignment = hgp::convert_to_assignment(t, h, dp.solution, dp.scaled.units);
  }
  {
    const Scope s("core.tree_eval");
    g_sink = hgp::assignment_cost(t, h, assignment) +
             hgp::assignment_violation(t, h, assignment).back();
  }
  hgp::ForestTreeResult out;
  out.placement.leaf_of.assign(static_cast<std::size_t>(g.vertex_count()), 0);
  for (hgp::Vertex v = 0; v < g.vertex_count(); ++v) {
    out.placement.leaf_of[static_cast<std::size_t>(v)] =
        assignment.of(dt.leaf_of_vertex(v));
  }
  {
    const Scope s("hierarchy.eval");
    out.cost = hgp::placement_cost(g, h, out.placement);
  }
  out.stats = dp.stats;

  const hgp::TreeDpStats& st = dp.stats;
  g_dp.signatures += static_cast<double>(st.signature_count);
  g_dp.merges += static_cast<double>(st.merge_operations);
  g_dp.merges_rejected += static_cast<double>(st.merges_rejected);
  g_dp.feasible_states += static_cast<double>(st.feasible_states);
  g_dp.states_pruned += static_cast<double>(st.states_pruned);
  g_dp.arena_bytes_max =
      std::max(g_dp.arena_bytes_max, static_cast<double>(st.arena_bytes));
  g_dp.nodes_built += static_cast<double>(st.nodes_built);
  g_dp.nodes_reused += static_cast<double>(st.nodes_reused);
  return out;
}

namespace {

/// Per-tree solves (a tree that throws SolveError drops out, as in the
/// solver's fault isolation), then the arg-min (first strictly smaller cost
/// wins) and its load report.  Returns false when no tree survived.
bool solve_trees(const hgp::Graph& g, const hgp::Hierarchy& h,
                 const std::vector<hgp::DecompTree>& forest,
                 const hgp::TreeSolverOptions& base,
                 const std::vector<hgp::DpReuseStore>* reuse_in,
                 std::vector<hgp::DpReuseStore>* reuse_out,
                 ReplicaResult& out) {
  if (reuse_out != nullptr) {
    reuse_out->assign(forest.size(), hgp::DpReuseStore{});
  }
  std::vector<hgp::ForestTreeResult> outcomes(forest.size());
  int best = -1;
  for (std::size_t i = 0; i < forest.size(); ++i) {
    try {
      if (base.exec != nullptr) base.exec->check("tree solve start");
      hgp::TreeSolverOptions topt = base;
      if (reuse_in != nullptr) topt.reuse_in = &(*reuse_in)[i];
      if (reuse_out != nullptr) topt.reuse_out = &(*reuse_out)[i];
      outcomes[i] = traced_tree_solve(g, h, forest[i], topt);
    } catch (const hgp::SolveError&) {
      continue;
    }
    if (best < 0 ||
        outcomes[i].cost < outcomes[static_cast<std::size_t>(best)].cost) {
      best = static_cast<int>(i);
    }
  }
  if (best < 0) return false;
  hgp::ForestTreeResult& win = outcomes[static_cast<std::size_t>(best)];
  out.placement = std::move(win.placement);
  out.cost = win.cost;
  const Scope s("hierarchy.load_report");
  out.loads = hgp::load_report(g, h, out.placement);
  return true;
}

}  // namespace

ReplicaResult traced_solve_on_forest(
    const hgp::Graph& g, const hgp::Hierarchy& h,
    const std::vector<hgp::DecompTree>& forest,
    const hgp::TreeSolverOptions& base,
    const std::vector<hgp::DpReuseStore>* reuse_in,
    std::vector<hgp::DpReuseStore>* reuse_out) {
  const Scope s("runtime.solve_on_forest");
  ReplicaResult out;
  if (!solve_trees(g, h, forest, base, reuse_in, reuse_out, out)) {
    throw hgp::SolveError(hgp::StatusCode::kInternal,
                          "replica: no tree of the fixed forest survived");
  }
  return out;
}

ReplicaResult traced_solve_hgp(const hgp::Graph& g, const hgp::Hierarchy& h,
                               const hgp::SolverOptions& opt,
                               hgp::ForestCache* cache) {
  const hgp::ExecContext exec = make_exec(opt.timeout_ms);
  const hgp::FmCutter cutter;
  std::uint64_t fingerprint = 0;
  {
    const Scope s("graph.fingerprint");
    fingerprint = hgp::graph_fingerprint(g);
  }
  ReplicaResult out;
  const hgp::ForestCacheKey key{fingerprint, opt.seed, opt.num_trees,
                                cutter.name()};
  hgp::CachedForest forest;
  if (cache != nullptr) {
    const Scope s("runtime.forest_cache");
    forest = cache->find(key);
  }
  if (forest == nullptr) {
    try {
      const Scope s("decomp.forest_build");
      forest = std::make_shared<const std::vector<hgp::DecompTree>>(
          hgp::build_decomposition_forest(g, opt.num_trees, opt.seed, cutter,
                                          nullptr, &exec));
      if (cache != nullptr) cache->insert(key, forest);
    } catch (const hgp::SolveError&) {
      forest = std::make_shared<const std::vector<hgp::DecompTree>>();
    }
  }

  hgp::TreeSolverOptions topt;
  topt.epsilon = opt.epsilon;
  topt.units_override = opt.units_override;
  topt.exec = &exec;
  topt.force_prune = opt.force_prune;
  if (solve_trees(g, h, *forest, topt, nullptr, nullptr, out)) return out;

  out.degraded = true;
  try {
    const Scope s("baseline.multilevel");
    hgp::Rng rng(opt.seed);
    out.placement = hgp::multilevel_placement(g, h, rng);
  } catch (const hgp::SolveError&) {
    const Scope s("baseline.greedy");
    out.placement = hgp::greedy_placement(g, h);
  }
  {
    const Scope s("hierarchy.eval");
    out.cost = hgp::placement_cost(g, h, out.placement);
  }
  const Scope s("hierarchy.load_report");
  out.loads = hgp::load_report(g, h, out.placement);
  return out;
}

TracedIncremental::TracedIncremental(const hgp::Graph& base,
                                     const hgp::Hierarchy& h,
                                     const hgp::IncrementalOptions& opt,
                                     hgp::DemandUnits units)
    : h_(&h), opt_(opt), units_(units) {
  const hgp::FmCutter cutter;
  forest_ = hgp::build_decomposition_forest(base, opt_.num_trees, opt_.seed,
                                            cutter);
  hgp::ForestSolveOptions fo;
  fo.epsilon = opt_.epsilon;
  fo.units_override = units_;
  fo.seed = opt_.seed;
  fo.reuse_out = &stores_;
  (void)hgp::solve_on_forest(base, h, forest_, fo);
}

ReplicaResult TracedIncremental::resolve(const hgp::MutationLog& log,
                                         double timeout_ms,
                                         hgp::PatchStats* patch_stats) {
  hgp::MutationLog::Materialized mat;
  {
    const Scope s("graph.materialize");
    mat = log.materialize();
  }
  hgp::ForestPatch patch;
  {
    const Scope s("decomp.patch");
    patch = hgp::patch_forest(forest_, log, mat);
  }
  if (patch_stats != nullptr) *patch_stats = patch.stats;
  // Same as resolve: the next snapshot lives on the heap.
  const auto next = std::make_shared<const hgp::Graph>(std::move(mat.graph));

  const hgp::ExecContext exec = make_exec(timeout_ms);
  hgp::TreeSolverOptions topt;
  topt.epsilon = opt_.epsilon;
  topt.units_override = units_;
  topt.exec = &exec;
  topt.force_prune = opt_.force_prune;
  std::vector<hgp::DpReuseStore> fresh;
  ReplicaResult out =
      traced_solve_on_forest(*next, *h_, patch.forest, topt, &stores_, &fresh);
  {
    const Scope s("graph.fingerprint");
    g_sink = static_cast<double>(hgp::graph_fingerprint(*next));
  }
  forest_ = std::move(patch.forest);
  stores_ = std::move(fresh);
  return out;
}

bool same_forest(const std::vector<hgp::DecompTree>& a,
                 const std::vector<hgp::DecompTree>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const hgp::Tree& ta = a[i].tree();
    const hgp::Tree& tb = b[i].tree();
    if (ta.node_count() != tb.node_count() ||
        a[i].graph_vertex_count() != b[i].graph_vertex_count()) {
      return false;
    }
    for (hgp::Vertex v = 0; v < ta.node_count(); ++v) {
      if (ta.parent(v) != tb.parent(v) ||
          (ta.parent(v) >= 0 && ta.parent_weight(v) != tb.parent_weight(v))) {
        return false;
      }
    }
    for (hgp::Vertex v = 0; v < a[i].graph_vertex_count(); ++v) {
      if (a[i].leaf_of_vertex(v) != b[i].leaf_of_vertex(v)) return false;
    }
  }
  return true;
}

}  // namespace bench
