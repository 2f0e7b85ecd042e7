// Golden regression suite: committed METIS instances with committed
// end-to-end costs.
//
// Guards the whole pipeline — METIS parsing, demand handling, forest
// sampling, the signature DP, conversion and mapped-back costing — against
// silent behavior drift: any change that shifts a canonical-solve cost
// fails here and must refresh the corpus deliberately with tools/hgp_golden
// (see golden_corpus.hpp for the rules).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "golden_corpus.hpp"
#include "graph/io.hpp"
#include "parallel/thread_pool.hpp"
#include "util/env.hpp"

#ifndef HGP_GOLDEN_DIR
#error "HGP_GOLDEN_DIR must point at the committed corpus directory"
#endif

namespace hgp {
namespace {

struct Expected {
  std::string name;
  std::string hierarchy;
  double cost = 0;
};

std::vector<Expected> load_expected() {
  std::ifstream tsv(std::string(HGP_GOLDEN_DIR) + "/expected.tsv");
  std::vector<Expected> rows;
  std::string line;
  while (std::getline(tsv, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream row(line);
    Expected e;
    row >> e.name >> e.hierarchy >> e.cost;
    rows.push_back(std::move(e));
  }
  return rows;
}

TEST(Golden, CorpusCoversEverySpec) {
  const std::vector<Expected> rows = load_expected();
  ASSERT_GE(rows.size(), 12u);
  std::set<std::string> names;
  for (const Expected& e : rows) names.insert(e.name);
  for (const golden::Spec& spec : golden::corpus()) {
    EXPECT_TRUE(names.count(spec.name))
        << "spec " << spec.name
        << " missing from expected.tsv; run tools/hgp_golden to refresh";
  }
}

// DP work counters of the canonical solve (summed over its trees), pinned
// per pruning mode in golden/dp_counters.tsv.  The differential suites
// compare two runs of the same kernel with each other; these absolute
// values catch a kernel that skips or double-counts merges everywhere.
struct PinnedCounters {
  std::string name;
  int prune = 1;
  std::uint64_t merges = 0;
  std::uint64_t rejected = 0;
  std::uint64_t feasible = 0;
  std::uint64_t pruned = 0;
};

std::vector<PinnedCounters> load_pinned_counters() {
  std::ifstream tsv(std::string(HGP_GOLDEN_DIR) + "/dp_counters.tsv");
  std::vector<PinnedCounters> rows;
  std::string line;
  while (std::getline(tsv, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream row(line);
    PinnedCounters c;
    row >> c.name >> c.prune >> c.merges >> c.rejected >> c.feasible >>
        c.pruned;
    rows.push_back(std::move(c));
  }
  return rows;
}

// Costs and DP counters of the canonical solve, which is sequential, and of
// the same solve with its trees on a 4-worker pool: placements, costs and
// counters must not depend on the pool.  Pruning follows the process
// (HGP_DP_PRUNE, on by default); the ctest entry
// Golden.CommittedCostsReproduce.PruneOff reruns this with it off.  Once
// anything has failed, the test prints the counter row it measured.
TEST(Golden, CommittedCostsReproduce) {
  ThreadPool pool(4);
  const std::vector<Expected> rows = load_expected();
  ASSERT_GE(rows.size(), 12u) << "corpus missing or unreadable";
  const std::vector<PinnedCounters> pinned = load_pinned_counters();
  ASSERT_EQ(pinned.size(), 2 * rows.size())
      << "dp_counters.tsv needs one row per instance and pruning mode";
  const int prune = env_flag("HGP_DP_PRUNE", true) ? 1 : 0;
  for (const Expected& e : rows) {
    SCOPED_TRACE(e.name + (prune != 0 ? " prune=1" : " prune=0"));
    const Graph g = io::read_metis_file(std::string(HGP_GOLDEN_DIR) + "/" +
                                        e.name + ".graph");
    const Hierarchy h = golden::hierarchy_by_name(e.hierarchy);
    const HgpResult r = solve_hgp(g, h, golden::canonical_options());
    ASSERT_FALSE(r.degraded()) << r.status.to_string();
    SolverOptions pooled_opt = golden::canonical_options();
    pooled_opt.pool = &pool;
    const HgpResult pooled = solve_hgp(g, h, pooled_opt);
    ASSERT_FALSE(pooled.degraded()) << pooled.status.to_string();
    EXPECT_EQ(pooled.placement.leaf_of, r.placement.leaf_of);
    EXPECT_EQ(pooled.cost, r.cost);
    EXPECT_EQ(pooled.tree_costs, r.tree_costs);
    const SolveTelemetry& pt = pooled.telemetry;
    EXPECT_EQ(pt.dp_merge_operations, r.telemetry.dp_merge_operations);
    EXPECT_EQ(pt.dp_merges_rejected, r.telemetry.dp_merges_rejected);
    EXPECT_EQ(pt.dp_feasible_states, r.telemetry.dp_feasible_states);
    EXPECT_EQ(pt.dp_states_pruned, r.telemetry.dp_states_pruned);
    EXPECT_EQ(pt.dp_signatures, r.telemetry.dp_signatures);
    EXPECT_NEAR(r.cost, e.cost, 1e-6 * std::max(1.0, std::abs(e.cost)))
        << "cost drift; if intended, refresh with tools/hgp_golden";

    const auto it = std::find_if(pinned.begin(), pinned.end(),
                                 [&](const PinnedCounters& c) {
                                   return c.name == e.name && c.prune == prune;
                                 });
    ASSERT_NE(it, pinned.end());
    const SolveTelemetry& t = r.telemetry;
    EXPECT_EQ(t.dp_merge_operations, it->merges);
    EXPECT_EQ(t.dp_merges_rejected, it->rejected);
    EXPECT_EQ(t.dp_feasible_states, it->feasible);
    EXPECT_EQ(t.dp_states_pruned, it->pruned);
    if (::testing::Test::HasFailure()) {
      std::printf("measured row: %s\t%d\t%llu\t%llu\t%llu\t%llu\n",
                  e.name.c_str(), prune,
                  static_cast<unsigned long long>(t.dp_merge_operations),
                  static_cast<unsigned long long>(t.dp_merges_rejected),
                  static_cast<unsigned long long>(t.dp_feasible_states),
                  static_cast<unsigned long long>(t.dp_states_pruned));
    }
  }
}

TEST(Golden, MetisRoundTripPreservesFingerprintRelevantContent) {
  // The corpus files are the canonical serialization: writing what we read
  // must reproduce the identical graph (vertices, edges, weights, demands
  // at file precision).
  for (const golden::Spec& spec : golden::corpus()) {
    SCOPED_TRACE(spec.name);
    const std::string path =
        std::string(HGP_GOLDEN_DIR) + "/" + spec.name + ".graph";
    const Graph g = io::read_metis_file(path);
    std::ostringstream out;
    io::write_metis(g, out);
    std::istringstream in(out.str());
    const Graph again = io::read_metis(in);
    ASSERT_EQ(g.vertex_count(), again.vertex_count());
    ASSERT_EQ(g.edge_count(), again.edge_count());
    for (EdgeId e = 0; e < g.edge_count(); ++e) {
      EXPECT_EQ(g.edge(e).u, again.edge(e).u);
      EXPECT_EQ(g.edge(e).v, again.edge(e).v);
      EXPECT_DOUBLE_EQ(g.edge(e).weight, again.edge(e).weight);
    }
    ASSERT_EQ(g.has_demands(), again.has_demands());
    for (Vertex v = 0; v < g.vertex_count(); ++v) {
      if (g.has_demands()) {
        EXPECT_DOUBLE_EQ(g.demand(v), again.demand(v));
      }
    }
  }
}

}  // namespace
}  // namespace hgp
