#include "common.hpp"

#include "pipeline.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace bench {

Tracer* g_tracer = nullptr;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int Tracer::open(const char* name) {
  Span s;
  s.name = name;
  s.op = op_;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.start = now_s();
  spans_.push_back(std::move(s));
  const int index = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(index);
  return index;
}

void Tracer::close(int index) {
  spans_[static_cast<std::size_t>(index)].end = now_s();
  stack_.pop_back();
}

double Tracer::total(const std::string& name) const {
  double sum = 0;
  for (const Span& s : spans_) {
    if (s.name == name) sum += s.seconds();
  }
  return sum;
}

double Tracer::total_for(const std::string& name,
                         const std::vector<char>& ops) const {
  double sum = 0;
  for (const Span& s : spans_) {
    if (s.name == name && s.op >= 0 &&
        static_cast<std::size_t>(s.op) < ops.size() &&
        ops[static_cast<std::size_t>(s.op)] != 0) {
      sum += s.seconds();
    }
  }
  return sum;
}

double Tracer::self_total(const std::string& name) const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.seconds();
  }
  double sum = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) sum += spans_[i].seconds() - child[i];
  }
  return sum;
}

std::vector<double> Tracer::op_seconds() const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.parent < 0) out.push_back(s.seconds());
  }
  return out;
}

double Tracer::coverage() const {
  // Children of one span run one after another, so their durations add.
  double roots = 0;
  double covered = 0;
  for (const Span& s : spans_) {
    if (s.parent < 0) {
      roots += s.seconds();
    } else if (spans_[static_cast<std::size_t>(s.parent)].parent < 0) {
      covered += s.seconds();
    }
  }
  return roots > 0 ? covered / roots : 0;
}

void Tracer::write_json(std::string& out) const {
  out += "[";
  char buf[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"op\":%d,\"parent\":%d,"
                  "\"start\":%.9f,\"end\":%.9f}",
                  i == 0 ? "" : ",\n", s.name.c_str(), s.op, s.parent,
                  s.start, s.end);
    out += buf;
  }
  out += "]";
}

void RunResult::fail(const std::string& why) {
  correct = false;
  if (errors.size() < 20) errors.push_back(why);
}

double median(std::vector<double> v) { return percentile(std::move(v), 50); }

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

void add_end_to_end(RunResult& r, const std::vector<OpRecord>& ops,
                    double tail_pct, std::size_t quality_ops, double busy_s,
                    double setup_s, double peak_rss_mb) {
  std::vector<double> lat, deadline_lat, cost, violation;
  std::int64_t answered = 0, degraded = 0;
  const std::size_t quality_n = std::min(quality_ops, ops.size());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const OpRecord& op = ops[i];
    lat.push_back(op.latency_s);
    if (op.deadline) deadline_lat.push_back(op.latency_s);
    if (i >= quality_n || !op.answered) continue;
    ++answered;
    degraded += op.degraded ? 1 : 0;
    cost.push_back(op.cost);
    violation.push_back(op.violation);
  }
  r.latencies = lat;
  const double n = static_cast<double>(std::max<std::size_t>(1, ops.size()));
  const double qn = static_cast<double>(std::max<std::size_t>(1, quality_n));
  r.add("latency_p50_s", median(lat), "s");
  r.add("latency_tail_s", percentile(lat, tail_pct), "s");
  r.add("throughput_ops_s",
        busy_s > 0 ? static_cast<double>(ops.size()) / busy_s : 0, "1/s");
  r.add("deadline_latency_p50_s", median(deadline_lat), "s");
  r.add("cost_mean", mean(cost), "cost");
  r.add("violation_max", mean(violation), "ratio");
  r.add("hgp_answer_share",
        static_cast<double>(answered - degraded) / qn, "share");
  r.add("setup_s", setup_s, "s");
  r.add("peak_rss_mb", peak_rss_mb, "MB");

  r.note("degraded_share", static_cast<double>(degraded) / qn, "share");
  r.note("quality_ops", static_cast<double>(quality_n), "count");
  r.note("failed_share", static_cast<double>(r.failed) / n, "share");
  r.note("latency_tail_percentile", tail_pct, "pct");
  r.note("latency_samples", static_cast<double>(ops.size()), "count");
  r.note("latency_samples_beyond_tail",
         std::floor(static_cast<double>(ops.size()) * (1 - tail_pct / 100)),
         "count");
  r.note("deadline_samples", static_cast<double>(deadline_lat.size()),
         "count");
}

namespace {

/// Every per-layer metric with its unit, in report order.
const std::vector<std::pair<const char*, const char*>>& per_layer_names() {
  static const std::vector<std::pair<const char*, const char*>> names{
      {"core.dp_s", "s"},
      {"core.dp_sweep_s", "s"},
      {"core.binarize_s", "s"},
      {"core.round_s", "s"},
      {"core.signature_space_s", "s"},
      {"core.signatures", "count"},
      {"core.signature_bytes", "bytes"},
      {"core.dp_merges", "count"},
      {"core.dp_merges_rejected", "count"},
      {"core.dp_reject_share", "share"},
      {"core.dp_feasible_states", "count"},
      {"core.dp_states_pruned", "count"},
      {"core.dp_merges_per_s", "1/s"},
      {"core.dp_arena_bytes", "bytes"},
      {"core.convert_s", "s"},
      {"core.tree_eval_s", "s"},
      {"runtime.tree_solve_s", "s"},
      {"runtime.map_back_s", "s"},
      {"hierarchy.eval_s", "s"},
      {"core.dp_nodes_built", "count"},
      {"core.dp_nodes_reused", "count"},
      {"core.dp_reuse_share", "share"},
      {"graph.materialize_s", "s"},
      {"decomp.patch_s", "s"},
      {"decomp.patch_dirty_vertices", "count"},
      {"decomp.patch_leaf_edits", "count"},
      {"decomp.patch_weight_edits", "count"},
      {"runtime.solve_on_forest_s", "s"},
      {"runtime.resolve_other_s", "s"},
      {"runtime.moved_share", "share"},
      {"decomp.forest_build_s", "s"},
      {"graph.fingerprint_s", "s"},
      {"runtime.forest_cache_hit_share", "share"},
      {"runtime.service_wait_s", "s"},
      {"runtime.service_retries", "count"},
      {"runtime.service_degrades", "count"},
      {"runtime.service_rejected", "count"},
      {"baseline.multilevel_s", "s"},
      {"baseline.greedy_s", "s"},
      {"io.forest_snapshot_bytes", "bytes"},
      {"io.forest_snapshot_save_s", "s"},
      {"io.forest_snapshot_load_s", "s"},
      {"net.coordinator_overhead_s", "s"},
      {"net.shards_up", "count"},
      {"net.batches_assigned", "count"},
      {"net.batches_reassigned", "count"},
      {"net.trees_from_shards", "count"},
      {"graph.read_metis_s", "s"},
      {"runtime.cli_overhead_s", "s"},
      {"parallel.cpu_util", "ratio"},
      {"trace.coverage", "share"},
      {"trace.overhead_share", "share"},
      {"trace.role_ok", "bool"},
      {"trace.ops", "count"},
  };
  return names;
}

}  // namespace

void add_per_layer(RunResult& r, const Tracer& t,
                   const std::vector<std::pair<std::string, double>>& extra) {
  const double ops =
      std::max<double>(1.0, static_cast<double>(t.op_seconds().size()));
  const auto per_op = [ops](double x) { return x / ops; };
  const double dp = t.total("core.dp");
  const double probes = t.total("core.binarize") + t.total("core.round") +
                        t.total("core.signature_space");
  const double sweep = std::max(0.0, dp - probes);
  const double reuse_total = g_dp.nodes_built + g_dp.nodes_reused;

  std::vector<std::pair<std::string, double>> v{
      {"core.dp_s", per_op(dp)},
      {"core.dp_sweep_s", per_op(sweep)},
      {"core.binarize_s", per_op(t.total("core.binarize"))},
      {"core.round_s", per_op(t.total("core.round"))},
      {"core.signature_space_s", per_op(t.total("core.signature_space"))},
      {"core.signatures", per_op(g_dp.signatures)},
      {"core.signature_bytes", per_op(g_dp.signature_bytes)},
      {"core.dp_merges", per_op(g_dp.merges)},
      {"core.dp_merges_rejected", per_op(g_dp.merges_rejected)},
      {"core.dp_reject_share",
       g_dp.merges > 0 ? g_dp.merges_rejected / g_dp.merges : 0},
      {"core.dp_feasible_states", per_op(g_dp.feasible_states)},
      {"core.dp_states_pruned", per_op(g_dp.states_pruned)},
      {"core.dp_merges_per_s", sweep > 0 ? g_dp.merges / sweep : 0},
      {"core.dp_arena_bytes", g_dp.arena_bytes_max},
      {"core.convert_s", per_op(t.total("core.convert"))},
      {"core.tree_eval_s", per_op(t.total("core.tree_eval"))},
      {"runtime.tree_solve_s", per_op(t.total("runtime.tree_solve"))},
      {"runtime.map_back_s", per_op(t.self_total("runtime.tree_solve"))},
      {"hierarchy.eval_s", per_op(t.total("hierarchy.eval") +
                                  t.total("hierarchy.load_report"))},
      {"core.dp_nodes_built", per_op(g_dp.nodes_built)},
      {"core.dp_nodes_reused", per_op(g_dp.nodes_reused)},
      {"core.dp_reuse_share",
       reuse_total > 0 ? g_dp.nodes_reused / reuse_total : 0},
      {"graph.materialize_s", per_op(t.total("graph.materialize"))},
      {"decomp.patch_s", per_op(t.total("decomp.patch"))},
      {"runtime.solve_on_forest_s", per_op(t.total("runtime.solve_on_forest"))},
      {"decomp.forest_build_s", per_op(t.total("decomp.forest_build"))},
      {"graph.fingerprint_s", per_op(t.total("graph.fingerprint"))},
      {"baseline.multilevel_s", per_op(t.total("baseline.multilevel"))},
      {"baseline.greedy_s", per_op(t.total("baseline.greedy"))},
      {"graph.read_metis_s", per_op(t.total("graph.read_metis"))},
      {"io.forest_snapshot_save_s", per_op(t.total("io.forest_snapshot_save"))},
      {"io.forest_snapshot_load_s", per_op(t.total("io.forest_snapshot_load"))},
      {"trace.coverage", t.coverage()},
      {"trace.ops", static_cast<double>(t.op_seconds().size())},
  };
  for (const auto& e : extra) v.push_back(e);
  for (const auto& [name, unit] : per_layer_names()) {
    double value = 0;
    for (const auto& [n, x] : v) {
      if (n == name) value = x;
    }
    r.add(name, value, unit);
  }
}

double cpu_seconds(const rusage& ru) {
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double self_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return cpu_seconds(ru);
}

double self_peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

int online_cpus() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

}  // namespace bench
