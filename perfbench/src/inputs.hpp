// Seeded input generation.  The benchmark owns its generators (they use
// only the standard library's PRNG), so the inputs depend on the seed alone
// and not on any generator inside the program under test.
#pragma once

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "graph/mutation_log.hpp"
#include "hierarchy/hierarchy.hpp"

namespace bench {

using Prng = std::mt19937_64;

/// Uniform integer in [lo, hi].
int uniform_int(Prng& rng, int lo, int hi);

/// An undirected task graph with integer channel volumes and demands in
/// thousandths (the METIS weight convention of hgp_solve).
struct GraphSpec {
  int n = 0;
  struct Edge {
    int u, v, w;
  };
  std::vector<Edge> edges;
  std::vector<int> demand_milli;

  hgp::Graph build() const;
  /// Writes METIS with vertex and edge weights (format code 011).
  void write_metis(const std::string& path) const;
};

/// Same task count and total demand, edge counts within 25%: what a
/// held-out seed must reproduce.
bool same_shape(const GraphSpec& a, const GraphSpec& b);

/// `n` demands drawn as a shuffled copy of a fixed multiset, so every
/// instance of one size has the same total demand.
std::vector<int> demand_multiset(int n, const std::vector<int>& levels,
                                 Prng& rng);

/// rows × cols grid; channel volumes uniform in [1, wmax].
GraphSpec make_grid(int rows, int cols, int wmax,
                    const std::vector<int>& demand_levels, Prng& rng);

/// Layered stream DAG (sources, `stages` layers of `width`, sinks): each
/// task sends to 1..3 tasks of the next layer, and every task has at least
/// one producer.  Volumes light (1..4) or, one channel in five, heavy
/// (20..50).
GraphSpec make_stream_dag(int sources, int stages, int width, int sinks,
                          const std::vector<int>& demand_levels, Prng& rng);

/// Regular pipeline DAG: `layers` stages of `width` tasks; task i of a
/// stage feeds tasks i and i+1 (mod width) of the next; unit volumes.
GraphSpec make_pipeline(int layers, int width,
                        const std::vector<int>& demand_levels, Prng& rng);

/// The h=3 machine the DP-heavy workloads solve against.
hgp::Hierarchy dp_machine();
/// Its hgp_solve flags (everything but --graph/--seed/--out).
std::vector<std::string> dp_machine_flags();
constexpr int kDpUnits = 8;

/// One cold_solve-shaped instance: a 4×8 grid (even index) or a 4×8
/// pipeline (odd index), unit volumes, 32 demands from a fixed multiset.
/// Fixed shapes keep the DP time of one instance within ~20% of another's,
/// so a run's median settles in tens of solves.
GraphSpec make_cold_instance(int index, Prng& rng);

/// Churn batches (serial, seeded).  Drift batches reweight channels and
/// nudge demands; structural batches add/remove tasks and channels while
/// keeping the task count within ±8 of `base_n`.
void author_drift_batch(hgp::MutationLog& log, Prng& rng);
void author_structural_batch(hgp::MutationLog& log, hgp::Vertex base_n,
                             Prng& rng);

}  // namespace bench
