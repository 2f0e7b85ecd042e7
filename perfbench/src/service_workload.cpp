// service_stream: a SolverService with default options, kept 4 requests
// deep by the harness's one thread (closed loop).  Most requests are k-BGP
// and two-level solves of 400-1024-task graphs (forest build dominates);
// about half of them repeat a recently seen graph, so the forest cache
// hits; one request in eight is a DP-heavy instance whose deadline expires
// inside the first tree's DP, so the fallback chain answers it.
#include <algorithm>
#include <cstdio>
#include <deque>
#include <memory>
#include <stdexcept>
#include <thread>

#include "hierarchy/cost.hpp"
#include "inputs.hpp"
#include "pipeline.hpp"
#include "runtime/forest_cache.hpp"
#include "runtime/service.hpp"
#include "workloads.hpp"

namespace bench {
namespace {

constexpr int kOutstanding = 4;
constexpr int kSetupRepeats = 7;
constexpr int kKbgpGraphs = 64;
constexpr int kTwoLevelGraphs = 16;
constexpr int kDeadlineGraphs = 16;
constexpr int kScheduleLength = 1 << 14;
constexpr double kDeadlineMs = 10;
/// Requests the answer-quality metrics cover: about two thirds of what the
/// slowest 30 s run measured has completed.
constexpr std::size_t kQualityOps = 384;
/// Requests replayed alone in the traced run.
constexpr std::size_t kReplayLimit = 96;

enum Family { kKbgp, kTwoLevel, kDeadline };

struct ServiceGraph {
  Family family = kKbgp;
  hgp::Graph graph;
  const hgp::Hierarchy* machine = nullptr;
  hgp::SolverOptions opt;
};

struct Inputs {
  hgp::Hierarchy kbgp16 = hgp::Hierarchy::kbgp(16);
  hgp::Hierarchy kbgp32 = hgp::Hierarchy::kbgp(32);
  hgp::Hierarchy two_level = hgp::Hierarchy({16, 16}, {4, 1, 0});
  hgp::Hierarchy dp = dp_machine();
  std::vector<ServiceGraph> graphs;
  std::vector<GraphSpec> specs;
  /// Request i solves graphs[schedule[i]].
  std::vector<int> schedule;
};

void make_inputs(std::uint64_t seed, Inputs& in) {
  Prng rng(seed * 0x9E3779B97F4A7C15ull + 0x5E7);
  in.graphs.clear();
  in.specs.clear();
  const auto add = [&](Family f, GraphSpec spec, const hgp::Hierarchy& h,
                       hgp::DemandUnits units, double timeout_ms) {
    ServiceGraph sg;
    sg.family = f;
    sg.graph = spec.build();
    sg.machine = &h;
    sg.opt.units_override = units;
    sg.opt.seed = static_cast<std::uint64_t>(uniform_int(rng, 1, 1 << 30));
    sg.opt.timeout_ms = timeout_ms;
    in.graphs.push_back(std::move(sg));
    in.specs.push_back(std::move(spec));
  };
  static const int kSides[] = {20, 24, 28, 32};
  for (int i = 0; i < kKbgpGraphs; ++i) {
    const int side = kSides[i % 4];
    add(kKbgp, make_grid(side, side, 4, {8, 10, 12, 14}, rng),
        i % 8 < 4 ? in.kbgp16 : in.kbgp32, 4, 0);
  }
  for (int i = 0; i < kTwoLevelGraphs; ++i) {
    add(kTwoLevel, make_grid(20, 20, 4, {300, 400, 500, 600}, rng),
        in.two_level, 2, 0);
  }
  for (int i = 0; i < kDeadlineGraphs; ++i) {
    add(kDeadline, make_cold_instance(i, rng), in.dp, kDpUnits, kDeadlineMs);
  }

  // Request mix, a fixed pattern per 8: three k-BGP fresh, two-level
  // (fresh in even groups, a repeat of the previous group's in odd ones),
  // three k-BGP repeats, deadline.  A k-BGP repeat solves a graph first
  // requested 4 to 8 requests earlier: finished (at most 4 are outstanding)
  // and still in the forest cache (8 forests), so repeats hit and fresh
  // graphs miss.  The deadline request follows the repeats, so the queue
  // ahead of it is short and its latency shows the deadline path rather
  // than the queue.
  static const char kPattern[] = "kkkTrrrd";
  in.schedule.clear();
  int next[3] = {0, kKbgpGraphs, kKbgpGraphs + kTwoLevelGraphs};
  const int first[3] = {0, kKbgpGraphs, kKbgpGraphs + kTwoLevelGraphs};
  const int count[3] = {kKbgpGraphs, kTwoLevelGraphs, kDeadlineGraphs};
  std::vector<std::pair<int, int>> fresh_kbgp;  // (request index, graph)
  int last_two_level = -1;
  const auto take_fresh = [&](Family f) {
    const int g = next[f];
    next[f] = first[f] + (next[f] - first[f] + 1) % count[f];
    return g;
  };
  for (int i = 0; i < kScheduleLength; ++i) {
    const char c = kPattern[i % 8];
    int g;
    if (c == 'd') {
      g = take_fresh(kDeadline);
    } else if (c == 'T') {
      if ((i / 8) % 2 == 1 && last_two_level >= 0) {
        g = last_two_level;
      } else {
        g = last_two_level = take_fresh(kTwoLevel);
      }
    } else {
      std::vector<int> candidates;
      for (const auto& [at, graph] : fresh_kbgp) {
        if (at >= i - 8 && at <= i - 4) candidates.push_back(graph);
      }
      if (c == 'r' && !candidates.empty()) {
        g = candidates[static_cast<std::size_t>(
            uniform_int(rng, 0, static_cast<int>(candidates.size()) - 1))];
      } else {
        g = take_fresh(kKbgp);
        fresh_kbgp.push_back({i, g});
      }
    }
    in.schedule.push_back(g);
  }
}

struct Done {
  int graph = 0;
  std::size_t index = 0;  ///< submission order
  double latency_s = 0;
  std::shared_ptr<hgp::ServiceRequest> req;
};

}  // namespace

RunResult run_service_stream(const Args& args) {
  RunResult r;
  {
    Inputs a, b;
    make_inputs(args.seed, a);
    make_inputs(args.seed ^ 0x5EEDF00Dull, b);
    bool same = a.schedule.size() == b.schedule.size();
    for (std::size_t i = 0; same && i < a.specs.size(); ++i) {
      same = same_shape(a.specs[i], b.specs[i]);
    }
    if (!same) r.fail("held-out seed gives differently shaped requests");
  }

  Inputs in;
  std::unique_ptr<hgp::SolverService> service;
  // Set-up: inputs, service start, and one warm-up request.
  const double setup_s = median_setup(kSetupRepeats, [&] {
    service.reset();
    hgp::ForestCache::global().clear();
    make_inputs(args.seed, in);
    service = std::make_unique<hgp::SolverService>();
    const ServiceGraph& warm = in.graphs[kKbgpGraphs - 1];
    const hgp::RetrySolveReport& rep =
        service->submit(warm.graph, *warm.machine, warm.opt)->wait();
    if (!rep.has_result) {
      r.fail("warm-up request failed: " + rep.status.to_string());
    }
  });
  hgp::ForestCache::global().clear();

  // Each request is checked as it completes and then dropped, so the
  // harness's memory (peak_rss_mb) does not grow with the number of
  // requests a run completes; a traced run keeps the first kReplayLimit
  // for the replay.
  bool role_ok = true;
  const auto check = [&](const Done& d) {
    const ServiceGraph& sg = in.graphs[static_cast<std::size_t>(d.graph)];
    OpRecord rec;
    rec.latency_s = d.latency_s;
    rec.deadline = sg.family == kDeadline;
    ++r.attempted;
    const hgp::RetrySolveReport& rep = d.req->wait();
    try {
      if (!rep.has_result) {
        throw std::runtime_error("no placement: " + rep.status.to_string());
      }
      const hgp::HgpResult& res = rep.result;
      hgp::validate_placement(sg.graph, *sg.machine, res.placement);
      if (hgp::placement_cost(sg.graph, *sg.machine, res.placement) !=
          res.cost) {
        throw std::runtime_error("reported cost differs from placement_cost");
      }
      rec.answered = true;
      rec.degraded = res.degraded();
      rec.cost = res.cost;
      rec.violation = res.loads.max_violation();
      // Deadline requests must be answered by the fallback chain, the rest
      // by the DP; a request out of its role is flagged, not re-measured.
      role_ok &= rec.degraded == rec.deadline;
    } catch (const std::exception& e) {
      ++r.failed;
      // A refused request counts as failed but is not a wrong answer.
      if (rep.status.code != hgp::StatusCode::kResourceExhausted) {
        r.fail("request " + std::to_string(d.req->id()) + ": " + e.what());
      }
    }
    return rec;
  };

  std::deque<Done> pending;
  std::vector<std::pair<std::size_t, OpRecord>> records;
  std::vector<Done> replay;
  std::size_t next = 0;
  const double cpu0 = self_cpu_s();
  const double t_start = now_s();
  const double t_end = t_start + args.seconds;
  while (true) {
    const double now = now_s();
    while (pending.size() < kOutstanding && now < t_end &&
           next < in.schedule.size()) {
      Done d;
      d.graph = in.schedule[next];
      d.index = next;
      const ServiceGraph& sg = in.graphs[static_cast<std::size_t>(d.graph)];
      d.latency_s = now_s();
      d.req = service->submit(sg.graph, *sg.machine, sg.opt);
      pending.push_back(std::move(d));
      ++next;
    }
    if (pending.empty()) break;
    for (auto it = pending.begin(); it != pending.end();) {
      if (it->req->done()) {
        it->latency_s = now_s() - it->latency_s;
        records.emplace_back(it->index, check(*it));
        if (args.trace && it->index < kReplayLimit) {
          replay.push_back(std::move(*it));
        }
        it = pending.erase(it);
      } else {
        ++it;
      }
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  const double busy_s = now_s() - t_start;
  const double cpu_util = (self_cpu_s() - cpu0) / busy_s;
  const hgp::SolverService::Stats stats = service->stats();
  const double peak_rss = self_peak_rss_mb();
  // Requests complete out of submission order; the quality metrics and the
  // replay need submission order.
  std::sort(records.begin(), records.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<OpRecord> ops;
  for (const auto& rec : records) ops.push_back(rec.second);
  std::sort(replay.begin(), replay.end(),
            [](const Done& a, const Done& b) { return a.index < b.index; });
  if (!role_ok) std::fprintf(stderr, "role check: a request left its role\n");

  if (!args.trace) {
    service.reset();
    add_end_to_end(r, ops, tail_percentile("service_stream"), kQualityOps,
                   busy_s, setup_s, peak_rss);
    return r;
  }

  // Traced run: replay requests alone, in submission order, through the
  // entry point (untraced) and the traced replica.  Each side gets a forest
  // cache of the service's capacity, so hits and misses match.
  service.reset();
  hgp::ForestCache::global().clear();
  hgp::ForestCache replica_cache(hgp::ForestCache::global().capacity());
  Tracer tracer;
  std::vector<double> alone_s, wait_s;
  std::vector<char> forest_ops;
  double hits = 0;
  for (std::size_t k = 0; k < replay.size(); ++k) {
    const Done& d = replay[k];
    const ServiceGraph& sg = in.graphs[static_cast<std::size_t>(d.graph)];
    const hgp::RetrySolveReport& rep = d.req->wait();
    const double t0 = now_s();
    const hgp::HgpResult alone = hgp::solve_hgp(sg.graph, *sg.machine, sg.opt);
    alone_s.push_back(now_s() - t0);
    wait_s.push_back(d.latency_s - alone_s.back());
    hits += rep.result.telemetry.forest_cache_hit ? 1 : 0;
    forest_ops.push_back(sg.family != kDeadline ? 1 : 0);

    g_tracer = &tracer;
    tracer.begin_op(static_cast<int>(k));
    ReplicaResult rr;
    {
      const Scope root("op");
      rr = traced_solve_hgp(sg.graph, *sg.machine, sg.opt, &replica_cache);
    }
    g_tracer = nullptr;
    const std::string id = "request " + std::to_string(d.req->id());
    if (!rep.has_result) {
      r.fail(id + ": replayed, but the service gave no answer");
    } else if (sg.family != kDeadline) {
      if (rr.cost != rep.result.cost ||
          rr.placement.leaf_of != rep.result.placement.leaf_of ||
          alone.cost != rep.result.cost) {
        r.fail(id + ": replay differs from the service's answer");
      }
    } else {
      // Which trees finish before a deadline depends on timing, so deadline
      // answers are checked for validity only; a replay that was not
      // degraded shows in the role check.
      try {
        hgp::validate_placement(sg.graph, *sg.machine, rr.placement);
        hgp::validate_placement(sg.graph, *sg.machine, alone.placement);
        if (hgp::placement_cost(sg.graph, *sg.machine, rr.placement) !=
                rr.cost ||
            hgp::placement_cost(sg.graph, *sg.machine, alone.placement) !=
                alone.cost) {
          throw std::runtime_error("cost differs from placement_cost");
        }
      } catch (const std::exception& e) {
        r.fail(id + ": replay: " + e.what());
      }
      if (!rr.degraded || !alone.degraded()) {
        role_ok = false;
        std::fprintf(stderr, "role check: %s replayed without degrading\n",
                     id.c_str());
      }
    }
  }
  // Forest build must dominate the requests without a deadline.
  double forest_total = 0;
  {
    const std::vector<double> secs = tracer.op_seconds();
    for (std::size_t k = 0; k < secs.size(); ++k) {
      if (forest_ops[k] != 0) forest_total += secs[k];
    }
  }
  const double forest_build =
      tracer.total_for("decomp.forest_build", forest_ops);
  const double forest_share =
      forest_total > 0 ? forest_build / forest_total : 0;
  if (forest_share <= 0.5) {
    role_ok = false;
    std::fprintf(stderr,
                 "role check: forest build is %.2f of non-deadline requests\n",
                 forest_share);
  }
  const double replayed =
      std::max<double>(1.0, static_cast<double>(alone_s.size()));
  const auto count = [](std::uint64_t x) { return static_cast<double>(x); };
  add_per_layer(r, tracer,
                {{"runtime.service_wait_s", median(wait_s)},
                 {"runtime.forest_cache_hit_share", hits / replayed},
                 {"runtime.service_retries", count(stats.retries)},
                 {"runtime.service_degrades", count(stats.degrades)},
                 {"runtime.service_rejected", count(stats.rejected())},
                 {"parallel.cpu_util", cpu_util},
                 {"trace.overhead_share",
                  median(tracer.op_seconds()) / median(alone_s) - 1},
                 {"trace.role_ok", role_ok ? 1 : 0}});
  tracer.write_json(r.spans_json);
  return r;
}

}  // namespace bench
