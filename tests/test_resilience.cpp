// Resilience-layer tests: status taxonomy, deadlines/cancellation,
// per-tree fault isolation, and the hgp → multilevel → greedy fallback
// chain (see docs/RESILIENCE.md).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "baseline/multilevel.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"  // TraceBuffer directly: obs.hpp omits it under OFF
#include "decomp/builder.hpp"
#include "graph/generators.hpp"
#include "parallel/parallel_for.hpp"
#include "runtime/solver.hpp"
#include "util/deadline.hpp"
#include "util/fault_injector.hpp"
#include "util/status.hpp"

namespace hgp {
namespace {

Graph workload(std::uint64_t seed, Vertex n = 24) {
  Rng rng(seed);
  Graph g = gen::planted_partition(n, 4, 0.75, 0.05, rng,
                                   gen::WeightRange{2.0, 6.0},
                                   gen::WeightRange{1.0, 2.0});
  gen::set_uniform_demands(g, 4.0 / n);
  return g;
}

const Hierarchy& hier() {
  static const Hierarchy h({2, 2}, {4.0, 1.0, 0.0});
  return h;
}

FaultInjector::Fault throw_fault() {
  FaultInjector::Fault f;
  f.action = FaultInjector::Action::kThrow;
  return f;
}

FaultInjector::Fault stall_fault(double ms) {
  FaultInjector::Fault f;
  f.action = FaultInjector::Action::kStall;
  f.stall_ms = ms;
  return f;
}

// Captures the global trace buffer for one test.  Tracing is off by default
// process-wide, so flipping it on/off here cannot leak into other tests.
struct TraceCapture {
  TraceCapture() {
    obs::TraceBuffer::global().clear();
    obs::TraceBuffer::global().set_enabled(true);
  }
  ~TraceCapture() {
    obs::TraceBuffer::global().set_enabled(false);
    obs::TraceBuffer::global().clear();
  }
  // A span is recorded only when its destructor runs, so presence in the
  // snapshot is proof the span closed (including during unwinding).
  static std::size_t closed(const char* name) {
    std::size_t n = 0;
    for (const obs::TraceEvent& e : obs::TraceBuffer::global().snapshot()) {
      if (std::string_view(e.name) == name) ++n;
    }
    return n;
  }
};

FaultInjector::Fault infeasible_fault() {
  FaultInjector::Fault f;
  f.action = FaultInjector::Action::kInfeasible;
  return f;
}

TEST(StatusTaxonomy, CodesHaveStableNames) {
  EXPECT_STREQ(status_code_name(StatusCode::kOk), "OK");
  EXPECT_STREQ(status_code_name(StatusCode::kInvalidInput), "INVALID_INPUT");
  EXPECT_STREQ(status_code_name(StatusCode::kInfeasible), "INFEASIBLE");
  EXPECT_STREQ(status_code_name(StatusCode::kDeadlineExceeded),
               "DEADLINE_EXCEEDED");
  EXPECT_STREQ(status_code_name(StatusCode::kCancelled), "CANCELLED");
  EXPECT_STREQ(status_code_name(StatusCode::kInternal), "INTERNAL");
}

TEST(StatusTaxonomy, SolveErrorIsACheckError) {
  // API compatibility: pre-taxonomy call sites catch CheckError.
  const SolveError err(StatusCode::kDeadlineExceeded, "budget gone");
  EXPECT_EQ(err.code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(std::string(err.what()).find("DEADLINE_EXCEEDED"),
            std::string::npos);
  const CheckError* base = &err;
  EXPECT_NE(base, nullptr);
}

TEST(StatusTaxonomy, ClassifiesInFlightExceptions) {
  try {
    throw SolveError(StatusCode::kInfeasible, "too big");
  } catch (...) {
    const Status s = status_from_current_exception();
    EXPECT_EQ(s.code, StatusCode::kInfeasible);
    EXPECT_EQ(s.message, "too big");
  }
  try {
    throw CheckError("bare invariant failure");
  } catch (...) {
    EXPECT_EQ(status_from_current_exception().code, StatusCode::kInternal);
  }
  try {
    throw 42;
  } catch (...) {
    EXPECT_EQ(status_from_current_exception().code, StatusCode::kInternal);
  }
}

TEST(DeadlineTest, NeverAndExpiry) {
  const Deadline never = Deadline::never();
  EXPECT_TRUE(never.is_never());
  EXPECT_FALSE(never.expired());
  const Deadline gone = Deadline::after_ms(-1);
  EXPECT_TRUE(gone.expired());
  EXPECT_EQ(gone.remaining_ms(), 0);  // clamped, never negative
  const Deadline later = Deadline::after_ms(60'000);
  EXPECT_FALSE(later.expired());
  EXPECT_GT(later.remaining_ms(), 0);
}

TEST(DeadlineTest, HugeBudgetSaturatesInsteadOfOverflowing) {
  // --timeout-ms near int64 max used to overflow the steady_clock addition
  // inside after_ms; the clamp pins such budgets at the clock's horizon.
  const double huge = 9.2e18;  // ~int64 max in ms, far past the ns range
  const Deadline d = Deadline::after_ms(huge);
  EXPECT_FALSE(d.is_never());  // armed, but effectively unbounded
  EXPECT_FALSE(d.expired());
  EXPECT_GT(d.remaining_ms(), 1e9);

  const Deadline inf_d =
      Deadline::after_ms(std::numeric_limits<double>::infinity());
  EXPECT_FALSE(inf_d.expired());
  const Deadline nan_d =
      Deadline::after_ms(std::numeric_limits<double>::quiet_NaN());
  EXPECT_FALSE(nan_d.expired());
}

TEST(DeadlineTest, ExecContextChecksThrowTyped) {
  ExecContext unconstrained;
  unconstrained.check("test");  // no-throw

  ExecContext past;
  past.deadline = Deadline::after_ms(-1);
  try {
    past.check("test stage");
    FAIL() << "expected SolveError";
  } catch (const SolveError& e) {
    EXPECT_EQ(e.code(), StatusCode::kDeadlineExceeded);
  }

  CancelToken token;
  token.request_cancel();
  ExecContext cancelled;
  cancelled.cancel = &token;
  // Cancellation wins over an expired deadline.
  cancelled.deadline = Deadline::after_ms(-1);
  try {
    cancelled.check("test stage");
    FAIL() << "expected SolveError";
  } catch (const SolveError& e) {
    EXPECT_EQ(e.code(), StatusCode::kCancelled);
  }
}

TEST(FaultInjectorTest, NoOpByDefault) {
  FaultInjector::instance().on_site("solve_one_tree", 0);  // must not throw
}

TEST(Resilience, SurvivingTreeWinsWhenOthersThrow) {
  const Graph g = workload(1);
  SolverOptions opt;
  opt.num_trees = 4;
  // Kill every tree except the last; the forest arg-min must run over the
  // lone survivor.
  // Each scope disarms only its own (site, index) key, so all three must
  // be scoped — a raw arm() here would leak into later tests.
  FaultScope f0("solve_one_tree", 0, throw_fault());
  FaultScope f1("solve_one_tree", 1, throw_fault());
  FaultScope f2("solve_one_tree", 2, throw_fault());
  const HgpResult r = solve_hgp(g, hier(), opt);
  EXPECT_EQ(r.method, SolveMethod::kHgp);
  EXPECT_TRUE(r.status.ok());
  EXPECT_EQ(r.best_tree, 3);
  ASSERT_EQ(r.attempts.size(), 4u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(r.attempts[static_cast<std::size_t>(i)].status,
              StatusCode::kInternal);
    EXPECT_FALSE(r.attempts[static_cast<std::size_t>(i)].error.empty());
    EXPECT_TRUE(std::isinf(r.tree_costs[static_cast<std::size_t>(i)]));
  }
  EXPECT_TRUE(r.attempts[3].ok());
  EXPECT_EQ(r.placement.leaf_of.size(),
            static_cast<std::size_t>(g.vertex_count()));
  EXPECT_NEAR(r.cost, placement_cost(g, hier(), r.placement), 1e-9);
}

TEST(Resilience, SurvivorBeatsTimedOutTreesUnderPool) {
  const Graph g = workload(2);
  ThreadPool pool(2);
  SolverOptions opt;
  opt.num_trees = 4;
  opt.pool = &pool;
  opt.timeout_ms = 2000;
  // Tree 0 stalls far past the deadline; its chunk-mate (tree 1) then sees
  // the expired deadline too.  Trees 2 and 3 run on the other worker and
  // finish long before the budget is gone, so the arg-min has survivors.
  FaultScope stall("solve_one_tree", 0, stall_fault(2500));
  const HgpResult r = solve_hgp(g, hier(), opt);
  EXPECT_EQ(r.method, SolveMethod::kHgp);
  EXPECT_TRUE(r.status.ok());
  ASSERT_EQ(r.attempts.size(), 4u);
  EXPECT_EQ(r.attempts[0].status, StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(r.attempts[2].ok());
  EXPECT_TRUE(r.attempts[3].ok());
  EXPECT_TRUE(r.best_tree == 2 || r.best_tree == 3) << r.best_tree;
}

TEST(Resilience, AllTreesThrowFallsBackToMultilevel) {
  const Graph g = workload(3);
  SolverOptions opt;
  opt.num_trees = 3;
  opt.seed = 9;
  FaultScope all("solve_one_tree", FaultInjector::kEveryIndex, throw_fault());
  const HgpResult r = solve_hgp(g, hier(), opt);
  EXPECT_EQ(r.method, SolveMethod::kMultilevel);
  EXPECT_TRUE(r.degraded());
  EXPECT_EQ(r.status.code, StatusCode::kInternal);
  EXPECT_EQ(r.best_tree, -1);
  ASSERT_EQ(r.attempts.size(), 3u);
  for (const TreeAttempt& a : r.attempts) {
    EXPECT_EQ(a.status, StatusCode::kInternal);
  }
  // The fallback is the deterministic multilevel run under the same seed.
  Rng rng(opt.seed);
  const Placement direct = multilevel_placement(g, hier(), rng);
  EXPECT_EQ(r.placement.leaf_of, direct.leaf_of);
  EXPECT_NEAR(r.cost, placement_cost(g, hier(), direct), 1e-9);
}

TEST(Resilience, DeadlineKillingAllTreesDegradesWithDeadlineStatus) {
  const Graph g = workload(4);
  SolverOptions opt;
  opt.num_trees = 2;
  opt.timeout_ms = 40;
  // Both trees stall past the 40ms budget, so the whole primary pipeline is
  // killed by the deadline and the solve must still hand back a placement.
  FaultScope all("solve_one_tree", FaultInjector::kEveryIndex,
                 stall_fault(120));
  const HgpResult r = solve_hgp(g, hier(), opt);
  EXPECT_TRUE(r.degraded());
  EXPECT_EQ(r.method, SolveMethod::kMultilevel);
  EXPECT_EQ(r.status.code, StatusCode::kDeadlineExceeded);
  EXPECT_EQ(r.placement.leaf_of.size(),
            static_cast<std::size_t>(g.vertex_count()));
  for (const TreeAttempt& a : r.attempts) {
    EXPECT_EQ(a.status, StatusCode::kDeadlineExceeded);
  }
}

TEST(Resilience, InjectedInfeasibilityClassifiedAndDegraded) {
  const Graph g = workload(5);
  SolverOptions opt;
  opt.num_trees = 2;
  FaultScope all("solve_one_tree", FaultInjector::kEveryIndex,
                 infeasible_fault());
  const HgpResult r = solve_hgp(g, hier(), opt);
  EXPECT_TRUE(r.degraded());
  EXPECT_EQ(r.status.code, StatusCode::kInfeasible);
  for (const TreeAttempt& a : r.attempts) {
    EXPECT_EQ(a.status, StatusCode::kInfeasible);
  }
}

TEST(Resilience, FallbackNoneThrowsClassifiedError) {
  const Graph g = workload(6);
  SolverOptions opt;
  opt.num_trees = 2;
  opt.fallback = FallbackPolicy::kNone;
  FaultScope all("solve_one_tree", FaultInjector::kEveryIndex, throw_fault());
  try {
    solve_hgp(g, hier(), opt);
    FAIL() << "expected SolveError";
  } catch (const SolveError& e) {
    EXPECT_EQ(e.code(), StatusCode::kInternal);
    EXPECT_NE(std::string(e.what()).find("injected fault"),
              std::string::npos);
  }
}

TEST(Resilience, DeadlineMidSolveDegradesInsteadOfThrowing) {
  const Graph g = workload(7);
  SolverOptions opt;
  opt.num_trees = 4;
  opt.timeout_ms = 0.01;  // expires before any real work is possible
  const HgpResult r = solve_hgp(g, hier(), opt);
  EXPECT_TRUE(r.degraded());
  EXPECT_EQ(r.status.code, StatusCode::kDeadlineExceeded);
  EXPECT_EQ(r.placement.leaf_of.size(),
            static_cast<std::size_t>(g.vertex_count()));
  EXPECT_NEAR(r.cost, placement_cost(g, hier(), r.placement), 1e-9);
}

TEST(Resilience, CancellationThrowsInsteadOfDegrading) {
  const Graph g = workload(8);
  CancelToken token;
  token.request_cancel();
  SolverOptions opt;
  opt.num_trees = 2;
  opt.cancel = &token;
  try {
    solve_hgp(g, hier(), opt);
    FAIL() << "expected SolveError";
  } catch (const SolveError& e) {
    EXPECT_EQ(e.code(), StatusCode::kCancelled);
  }
}

TEST(Resilience, InvalidInputIsTyped) {
  const Graph g = gen::grid2d(3, 3);  // no demands
  try {
    solve_hgp(g, hier(), {});
    FAIL() << "expected SolveError";
  } catch (const SolveError& e) {
    EXPECT_EQ(e.code(), StatusCode::kInvalidInput);
  }
  const Graph w = workload(9);
  SolverOptions bad;
  bad.num_trees = 0;
  EXPECT_THROW(solve_hgp(w, hier(), bad), SolveError);
}

TEST(Resilience, TreeDpHonoursDeadline) {
  const Graph g = workload(10);
  Rng rng(1);
  const FmCutter cutter;
  const DecompTree dt = build_decomp_tree(g, rng, cutter);
  ExecContext exec;
  exec.deadline = Deadline::after_ms(-1);
  TreeSolverOptions opt;
  opt.exec = &exec;
  try {
    solve_hgpt(dt.tree(), hier(), opt);
    FAIL() << "expected SolveError";
  } catch (const SolveError& e) {
    EXPECT_EQ(e.code(), StatusCode::kDeadlineExceeded);
  }
}

// Units of work done when an expired deadline is first reported, feeding
// `batches` to one PeriodicCheck (a batch of 1 is a single tick()); 0 when
// it never fires.
std::size_t units_until_deadline(const std::vector<std::size_t>& batches,
                                 std::uint32_t stride) {
  ExecContext exec;
  exec.deadline = Deadline::after_ms(-1);
  PeriodicCheck guard(&exec, "test loop", stride);
  std::size_t done = 0;
  for (const std::size_t n : batches) {
    done += n;
    try {
      if (n == 1) {
        guard.tick();
      } else {
        guard.tick(n);
      }
    } catch (const SolveError& e) {
      EXPECT_EQ(e.code(), StatusCode::kDeadlineExceeded);
      return done;
    }
  }
  return 0;
}

TEST(PeriodicCheckTest, BatchedTicksKeepTheSingleTickCadence) {
  // n single ticks: the deadline check fires on the stride-th.
  EXPECT_EQ(units_until_deadline(std::vector<std::size_t>(5000, 1), 4096),
            4096u);
  // Batched: it fires in the batch holding the stride-th unit of work.
  EXPECT_EQ(units_until_deadline({4095, 1}, 4096), 4096u);
  EXPECT_EQ(units_until_deadline({4096}, 4096), 4096u);
  EXPECT_EQ(units_until_deadline({1000, 1000, 1000, 1000, 1000}, 4096),
            5000u);
  EXPECT_EQ(units_until_deadline({10000}, 4096), 10000u);
  EXPECT_EQ(units_until_deadline({4095, 0, 0}, 4096), 0u);
  // Random batchings fire in exactly the batch holding unit 4096.
  Rng rng(5);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::size_t> batches;
    std::size_t total = 0;
    std::size_t holding = 0;
    while (total < 6000) {
      const auto n = static_cast<std::size_t>(rng.next_int(0, 700));
      batches.push_back(n);
      total += n;
      if (holding == 0 && total >= 4096) holding = total;
    }
    EXPECT_EQ(units_until_deadline(batches, 4096), holding);
  }
}

TEST(PeriodicCheckTest, BatchedTicksCarryTheRemainder) {
  // Checks fall on units 4096 and 8192 whether the work came in single
  // ticks or batches: the overshoot of a batch counts toward the next
  // stride.
  ExecContext exec;
  PeriodicCheck guard(&exec, "test loop", 4096);
  guard.tick(3000);
  guard.tick(2000);  // unit 4096 falls here: checked, not yet expired
  exec.deadline = Deadline::after_ms(-1);
  std::size_t done = 5000;
  try {
    for (;;) {
      guard.tick();
      ++done;
    }
  } catch (const SolveError& e) {
    EXPECT_EQ(e.code(), StatusCode::kDeadlineExceeded);
    ++done;
  }
  EXPECT_EQ(done, 8192u);
}

TEST(PeriodicCheckTest, BatchedTickReadsCancellationEveryCall) {
  CancelToken token;
  ExecContext exec;
  exec.cancel = &token;
  PeriodicCheck guard(&exec, "test loop", 4096);
  guard.tick(10);
  token.request_cancel();
  try {
    guard.tick(0);
    FAIL() << "expected SolveError";
  } catch (const SolveError& e) {
    EXPECT_EQ(e.code(), StatusCode::kCancelled);
  }
}

// A cold_solve-class tree (4×8 grid, 32 tasks, h = 3, 8 demand units) with
// a budget of a quarter of its unconstrained solve, at most 10 ms and at
// least 0.5 ms: the deadline expires inside the DP sweep, which checks it
// every 4096 merges, however fast the kernel gets.  The overrun past the
// budget must stay under 5 ms, or 15% of an unconstrained solve of the
// same tree on a slower (sanitizer) build.  Both the batched-tick kernel
// and the per-merge kernel it replaced stop about 0.3-0.4 ms past the
// budget in a RelWithDebInfo build, against a 25-47 ms full solve.  The
// overrun is the smallest of three attempts, so a briefly descheduled test
// process does not count against the DP.
TEST(Resilience, DpDeadlineMidSweepStopsPromptly) {
  Graph g = gen::grid2d(4, 8);
  std::vector<double> demand(static_cast<std::size_t>(g.vertex_count()));
  for (std::size_t v = 0; v < demand.size(); ++v) {
    demand[v] = 0.25 + 0.1 * static_cast<double>(v % 4);
  }
  g.set_demands(std::move(demand));
  const Hierarchy h({4, 4, 4}, {10.0, 4.0, 1.0, 0.0});
  Rng rng(3);
  const FmCutter cutter;
  const DecompTree dt = build_decomp_tree(g, rng, cutter);
  TreeSolverOptions opt;
  opt.units_override = 8;
  opt.force_prune = true;  // unpruned, the full solve runs for minutes
  const auto ms_since = [](std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
  };
  const auto f0 = std::chrono::steady_clock::now();
  solve_hgpt(dt.tree(), h, opt);
  const double full_ms = ms_since(f0);

  const double budget_ms = std::clamp(full_ms / 4, 0.5, 10.0);
  double overrun_ms = std::numeric_limits<double>::infinity();
  for (int attempt = 0; attempt < 3; ++attempt) {
    ExecContext exec;
    exec.deadline = Deadline::after_ms(budget_ms);
    opt.exec = &exec;
    const auto t0 = std::chrono::steady_clock::now();
    try {
      solve_hgpt(dt.tree(), h, opt);
      FAIL() << "the solve finished inside its budget (full solve "
             << full_ms << " ms); the test needs a larger instance";
    } catch (const SolveError& e) {
      EXPECT_EQ(e.code(), StatusCode::kDeadlineExceeded);
    }
    overrun_ms = std::min(overrun_ms, ms_since(t0) - budget_ms);
  }
  std::printf("DP deadline overrun %.3f ms past a %.1f ms budget "
              "(full solve %.1f ms)\n",
              overrun_ms, budget_ms, full_ms);
  EXPECT_LT(overrun_ms, std::max(5.0, 0.15 * full_ms));
}

TEST(Resilience, CancelStopsParallelForPromptly) {
  ThreadPool pool(2);
  CancelToken token;
  ExecContext exec;
  exec.cancel = &token;
  std::atomic<std::size_t> processed{0};
  const std::size_t n = 200'000;
  try {
    parallel_for(
        pool, 0, n,
        [&](std::size_t i) {
          if (i == 10) token.request_cancel();
          processed.fetch_add(1, std::memory_order_relaxed);
        },
        1, &exec);
    FAIL() << "expected SolveError";
  } catch (const SolveError& e) {
    EXPECT_EQ(e.code(), StatusCode::kCancelled);
  }
  // Cancellation is checked before every item, so each chunk stops within
  // one iteration of the flag flipping.
  EXPECT_LT(processed.load(), n / 2);
}

TEST(Resilience, ExpiredDeadlineStopsParallelFor) {
  ThreadPool pool(2);
  ExecContext exec;
  exec.deadline = Deadline::after_ms(-1);
  std::atomic<std::size_t> processed{0};
  const std::size_t n = 100'000;
  try {
    parallel_for(
        pool, 0, n,
        [&](std::size_t i) {
          (void)i;
          processed.fetch_add(1, std::memory_order_relaxed);
        },
        1, &exec);
    FAIL() << "expected SolveError";
  } catch (const SolveError& e) {
    EXPECT_EQ(e.code(), StatusCode::kDeadlineExceeded);
  }
  // The deadline is polled on a stride, so each chunk does at most one
  // stride of work.
  EXPECT_LT(processed.load(), 4096u);
}

TEST(Resilience, AttemptsRecordElapsedTime) {
  const Graph g = workload(11);
  SolverOptions opt;
  opt.num_trees = 2;
  const HgpResult r = solve_hgp(g, hier(), opt);
  ASSERT_EQ(r.attempts.size(), 2u);
  for (const TreeAttempt& a : r.attempts) {
    EXPECT_TRUE(a.ok());
    EXPECT_GE(a.elapsed_ms, 0.0);
    EXPECT_LT(a.cost, std::numeric_limits<double>::infinity());
  }
}

// --- Fallback-chain stage boundaries --------------------------------------
//
// Each stage of hgp → multilevel → greedy can die independently; these
// tests kill the chain at every boundary and assert both the terminal
// status and that every entered trace span closed (spans are recorded at
// destruction, so a span that leaked through the unwind would be missing
// from the snapshot).

TEST(Resilience, FallbackSpansCloseWhenMultilevelRescues) {
  const Graph g = workload(12);
  SolverOptions opt;
  opt.num_trees = 2;
  opt.seed = 13;
  FaultScope trees("solve_one_tree", FaultInjector::kEveryIndex,
                   throw_fault());
  TraceCapture trace;
  const HgpResult r = solve_hgp(g, hier(), opt);
  EXPECT_EQ(r.method, SolveMethod::kMultilevel);
  EXPECT_EQ(r.status.code, StatusCode::kInternal);
#if HGP_OBS_ENABLED
  EXPECT_EQ(TraceCapture::closed("solve"), 1u);
  EXPECT_EQ(TraceCapture::closed("solve.fallback"), 1u);
  EXPECT_EQ(TraceCapture::closed("fallback.multilevel"), 1u);
  // The chain stopped at stage one: greedy must never have been entered.
  EXPECT_EQ(TraceCapture::closed("fallback.greedy"), 0u);
#endif
}

TEST(Resilience, MultilevelStageFaultFallsThroughToGreedy) {
  const Graph g = workload(13);
  SolverOptions opt;
  opt.num_trees = 2;
  opt.seed = 17;
  FaultScope trees("solve_one_tree", FaultInjector::kEveryIndex,
                   throw_fault());
  FaultScope ml("fallback_multilevel", 0, throw_fault());
  TraceCapture trace;
  const HgpResult r = solve_hgp(g, hier(), opt);
  EXPECT_EQ(r.method, SolveMethod::kGreedy);
  EXPECT_TRUE(r.degraded());
  // The surfaced status is the *primary* failure reason, not the
  // multilevel stage's own demise.
  EXPECT_EQ(r.status.code, StatusCode::kInternal);
  EXPECT_EQ(r.placement.leaf_of.size(),
            static_cast<std::size_t>(g.vertex_count()));
  EXPECT_LT(r.cost, std::numeric_limits<double>::infinity());
#if HGP_OBS_ENABLED
  // The multilevel span closed via unwinding; greedy closed normally.
  EXPECT_EQ(TraceCapture::closed("solve.fallback"), 1u);
  EXPECT_EQ(TraceCapture::closed("fallback.multilevel"), 1u);
  EXPECT_EQ(TraceCapture::closed("fallback.greedy"), 1u);
#endif
}

TEST(Resilience, FallbackChainExhaustionNamesEveryStage) {
  const Graph g = workload(14);
  SolverOptions opt;
  opt.num_trees = 2;
  FaultScope trees("solve_one_tree", FaultInjector::kEveryIndex,
                   throw_fault());
  FaultScope ml("fallback_multilevel", 0, throw_fault());
  FaultScope gr("fallback_greedy", 0, infeasible_fault());
  TraceCapture trace;
  try {
    solve_hgp(g, hier(), opt);
    FAIL() << "expected SolveError";
  } catch (const SolveError& e) {
    EXPECT_EQ(e.code(), StatusCode::kInfeasible);
    const std::string msg = e.what();
    EXPECT_NE(msg.find("fallback chain exhausted"), std::string::npos) << msg;
    EXPECT_NE(msg.find("multilevel"), std::string::npos) << msg;
    EXPECT_NE(msg.find("greedy"), std::string::npos) << msg;
    // Stage statuses ride along for the postmortem: primary + multilevel
    // died as INTERNAL, greedy as INFEASIBLE.
    EXPECT_NE(msg.find("INTERNAL"), std::string::npos) << msg;
    EXPECT_NE(msg.find("INFEASIBLE"), std::string::npos) << msg;
  }
#if HGP_OBS_ENABLED
  // Even on the fully-exhausted path every entered span unwound cleanly.
  EXPECT_EQ(TraceCapture::closed("solve"), 1u);
  EXPECT_EQ(TraceCapture::closed("solve.fallback"), 1u);
  EXPECT_EQ(TraceCapture::closed("fallback.multilevel"), 1u);
  EXPECT_EQ(TraceCapture::closed("fallback.greedy"), 1u);
#endif
}

}  // namespace
}  // namespace hgp
