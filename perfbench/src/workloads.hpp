// The three workloads.  Each builds its inputs from Args::seed, measures for
// Args::seconds, checks every answer, and returns end-to-end metrics (or,
// in a traced run, per-layer metrics).
#pragma once

#include "common.hpp"

namespace bench {

/// hgp_solve, one process at a time, on fresh DP-heavy instances.
RunResult run_cold_solve(const Args& args);

/// A SolverService with default options kept 4 requests deep.
RunResult run_service_stream(const Args& args);

/// IncrementalSolver::resolve over a seeded serial churn stream.
RunResult run_churn_resolve(const Args& args);

/// The fixed tail percentile of each workload's latency_tail_s: the highest
/// of 50/75/80/90/95/99 that leaves at least ten samples beyond it at the
/// benchmark's run length (30 s) on the 4-core reference machine.
double tail_percentile(const std::string& workload);

}  // namespace bench
