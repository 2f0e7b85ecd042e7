// churn_resolve: eight IncrementalSolvers, each over its own stream DAG
// (building them is set-up), then a seeded serial stream of mutation
// batches, each applied by IncrementalSolver::resolve; the solvers take
// turns in blocks of 32 batches.  Three drift batches (a channel reweight
// and two demand nudges) alternate with one structural batch (a task joins
// or leaves, a channel appears or disappears).  Eight instances rather than
// one keep a run's figures from hanging on a single random graph.
#include <cstdio>
#include <memory>

#include "hierarchy/cost.hpp"
#include "inputs.hpp"
#include "pipeline.hpp"
#include "runtime/incremental.hpp"
#include "workloads.hpp"

namespace bench {
namespace {

constexpr int kSetupRepeats = 7;
constexpr int kSolvers = 8;
constexpr int kBlock = 32;
constexpr int kStructuralEvery = 4;
/// Every fourth resolve carries a deadline far above its run time.
constexpr int kDeadlineEvery = 4;
constexpr double kGenerousDeadlineMs = 60000;
/// Every this many resolves, the answer is compared with a from-scratch
/// solve_on_forest of the same patched forest (the churn invariant).
constexpr int kScratchCheckEvery = 16;
/// Resolves the answer-quality metrics cover: about two thirds of what the
/// slowest 30 s run measured has completed.
constexpr std::size_t kQualityOps = 4096;

GraphSpec base_spec(std::uint64_t seed, int solver) {
  Prng rng(seed * 0x9E3779B97F4A7C15ull + 0xC4 +
           static_cast<std::uint64_t>(solver));
  return make_stream_dag(6, 8, 24, 3, {10, 20, 30, 40, 50}, rng);
}

hgp::IncrementalOptions solver_options(std::uint64_t seed) {
  hgp::IncrementalOptions o;
  o.num_trees = 4;
  o.units_override = 3;
  o.seed = seed;
  return o;
}

}  // namespace

RunResult run_churn_resolve(const Args& args) {
  RunResult r;
  for (int k = 0; k < kSolvers; ++k) {
    if (!same_shape(base_spec(args.seed, k),
                    base_spec(args.seed ^ 0x5EEDF00Dull, k))) {
      r.fail("held-out seed gives a differently shaped base graph");
    }
  }
  const hgp::Hierarchy h = hgp::Hierarchy::uniform(1, 24, {2.0, 0.0});
  const auto solve_seed = [&](int k) {
    return args.seed * 31 + 7 + static_cast<std::uint64_t>(k);
  };
  std::vector<std::unique_ptr<hgp::IncrementalSolver>> solvers;
  const double setup_s = median_setup(kSetupRepeats, [&] {
    solvers.clear();
    for (int k = 0; k < kSolvers; ++k) {
      auto base =
          std::make_shared<const hgp::Graph>(base_spec(args.seed, k).build());
      solvers.push_back(std::make_unique<hgp::IncrementalSolver>(
          base, h, solver_options(solve_seed(k))));
    }
  });
  const hgp::Vertex base_n = solvers.front()->graph()->vertex_count();

  std::vector<std::unique_ptr<TracedIncremental>> replicas;
  for (int k = 0; args.trace && k < kSolvers; ++k) {
    const hgp::IncrementalSolver& s = *solvers[static_cast<std::size_t>(k)];
    replicas.push_back(std::make_unique<TracedIncremental>(
        *s.graph(), h, solver_options(solve_seed(k)), s.units()));
  }
  Tracer tracer;
  std::vector<double> untraced_s;
  double surviving = 0, moved = 0, dirty = 0, leaf_edits = 0, weight_edits = 0;
  bool role_ok = true;

  Prng rng(args.seed * 0x9E3779B97F4A7C15ull + 0xBA7C);
  std::vector<OpRecord> ops;
  double busy_s = 0;
  const double cpu0 = self_cpu_s();
  const double t_end = now_s() + args.seconds;
  while (now_s() < t_end) {
    const int i = static_cast<int>(ops.size());
    const int k = (i / kBlock) % kSolvers;
    hgp::IncrementalSolver* solver = solvers[static_cast<std::size_t>(k)].get();
    TracedIncremental* replica =
        args.trace ? replicas[static_cast<std::size_t>(k)].get() : nullptr;
    const std::shared_ptr<hgp::MutationLog> log = solver->begin_batch();
    if (i % kStructuralEvery == kStructuralEvery - 1) {
      author_structural_batch(*log, base_n, rng);
    } else {
      author_drift_batch(*log, rng);
    }
    OpRecord rec;
    rec.deadline = i % kDeadlineEvery == 1;
    hgp::ResolveOptions ro;
    ro.timeout_ms = rec.deadline ? kGenerousDeadlineMs : 0;
    hgp::ResolveStats rs;
    ++r.attempted;
    const double t0 = now_s();
    try {
      const hgp::HgpResult res = solver->resolve(*log, ro, &rs);
      rec.latency_s = now_s() - t0;
      busy_s += rec.latency_s;
      const hgp::Graph& g = *solver->graph();
      hgp::validate_placement(g, h, res.placement);
      if (hgp::placement_cost(g, h, res.placement) != res.cost) {
        throw std::runtime_error("reported cost differs from placement_cost");
      }
      if (i % kScratchCheckEvery == 0) {
        hgp::ForestSolveOptions fo;
        fo.units_override = solver->units();
        fo.seed = solve_seed(k);
        const hgp::HgpResult scratch =
            hgp::solve_on_forest(g, h, solver->forest(), fo);
        if (scratch.cost != res.cost ||
            scratch.placement.leaf_of != res.placement.leaf_of) {
          throw std::runtime_error("resolve differs from a from-scratch solve");
        }
      }
      rec.answered = true;
      rec.cost = res.cost;
      rec.violation = res.loads.max_violation();
      surviving += rs.surviving_vertices;
      moved += rs.moved_vertices;

      if (replica != nullptr) {
        untraced_s.push_back(rec.latency_s);
        g_tracer = &tracer;
        tracer.begin_op(i);
        hgp::PatchStats ps;
        ReplicaResult rr;
        {
          const Scope root("op");
          rr = replica->resolve(*log, ro.timeout_ms, &ps);
        }
        g_tracer = nullptr;
        dirty += ps.dirty_vertices;
        leaf_edits += ps.removed_leaves + ps.added_leaves;
        weight_edits += static_cast<double>(ps.weight_edits);
        if (rr.cost != res.cost ||
            rr.placement.leaf_of != res.placement.leaf_of) {
          throw std::runtime_error("traced replica differs from resolve");
        }
        // No forest build in churn: the solver's forest must be the patched
        // one, identical to the replica's.
        role_ok &= same_forest(replica->forest(), solver->forest());
      }
    } catch (const std::exception& e) {
      if (rec.latency_s == 0) rec.latency_s = now_s() - t0;
      ++r.failed;
      r.fail("resolve " + std::to_string(i) + ": " + e.what());
    }
    ops.push_back(rec);
  }
  const double cpu_util = busy_s > 0 ? (self_cpu_s() - cpu0) / busy_s : 0;

  if (!args.trace) {
    add_end_to_end(r, ops, tail_percentile("churn_resolve"), kQualityOps,
                   busy_s, setup_s, self_peak_rss_mb());
    r.note("moved_share", surviving > 0 ? moved / surviving : 0, "share");
    return r;
  }
  role_ok &= tracer.total("decomp.forest_build") == 0;
  if (!role_ok) {
    std::fprintf(stderr, "role check: churn_resolve rebuilt a forest\n");
  }
  const double n =
      std::max<double>(1.0, static_cast<double>(tracer.op_seconds().size()));
  add_per_layer(r, tracer,
                {{"decomp.patch_dirty_vertices", dirty / n},
                 {"decomp.patch_leaf_edits", leaf_edits / n},
                 {"decomp.patch_weight_edits", weight_edits / n},
                 {"runtime.resolve_other_s", tracer.self_total("op") / n},
                 {"runtime.moved_share", surviving > 0 ? moved / surviving : 0},
                 {"parallel.cpu_util", cpu_util},
                 {"trace.overhead_share",
                  median(tracer.op_seconds()) / median(untraced_s) - 1},
                 {"trace.role_ok", role_ok ? 1 : 0}});
  tracer.write_json(r.spans_json);
  return r;
}

}  // namespace bench
