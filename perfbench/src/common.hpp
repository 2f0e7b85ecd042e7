// Shared pieces of the benchmark harness: options, the in-memory span
// tracer, per-operation records, statistics and the metric tables.
#pragma once

#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace bench {

/// Monotonic wall clock in seconds.
double now_s();

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory holding hgp_solve and hgp_shardd.
  std::string bin_dir;
  /// Working directory for generated inputs and CLI outputs.
  std::string work_dir;
  /// Identifies the measured source tree (git commit or content digest).
  std::string commit = "unknown";
  /// Where the full result record (meta, report, spans) is written.
  std::string record_path;
};

// ---------------------------------------------------------------------------
// Tracing from outside the program: a span is recorded around each call the
// harness makes into a module's public functions.  Spans live in memory and
// are written out when the run ends.

struct Span {
  std::string name;
  int op = -1;      ///< operation the span belongs to
  int parent = -1;  ///< index of the enclosing span, -1 for an op root
  double start = 0;
  double end = 0;
  double seconds() const { return end - start; }
};

class Tracer {
 public:
  /// Starts operation `op`: later spans belong to it until the next call.
  void begin_op(int op) { op_ = op; }
  int open(const char* name);
  void close(int index);
  /// Sum of the durations of every span called `name`.
  double total(const std::string& name) const;
  /// Sum over spans called `name` whose op is in `ops`.
  double total_for(const std::string& name, const std::vector<char>& ops) const;
  const std::vector<Span>& spans() const { return spans_; }
  /// Sum over spans called `name` of their self time (duration minus the
  /// time their direct children cover).
  double self_total(const std::string& name) const;
  /// Durations of the op-root spans, in op order.
  std::vector<double> op_seconds() const;
  /// Share of the op-root spans' time covered by their direct children.
  double coverage() const;
  void write_json(std::string& out) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
  int op_ = -1;
};

/// The tracer of a traced run; null when tracing is off.
extern Tracer* g_tracer;

/// RAII span; a no-op when tracing is off.
class Scope {
 public:
  explicit Scope(const char* name)
      : index_(g_tracer != nullptr ? g_tracer->open(name) : -1) {}
  ~Scope() {
    if (index_ >= 0) g_tracer->close(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  int index_;
};

// ---------------------------------------------------------------------------
// Operations and results.

/// One measured operation as a user sees it.
struct OpRecord {
  double latency_s = 0;
  bool deadline = false;  ///< carried a deadline
  bool answered = false;  ///< a valid placement came back
  bool degraded = false;  ///< answered by the fallback chain
  double cost = 0;
  /// Worst per-level load / capacity of the answer (violation_max is its
  /// mean over the answered operations).
  double violation = 0;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::vector<std::string> errors;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
  /// Informational lines (not part of the final JSON object's metrics).
  std::vector<Metric> report;
  /// The traced run's spans, as a JSON array (empty when untraced).
  std::string spans_json;
  /// Per-operation latencies in completion order (for the record file).
  std::vector<double> latencies;

  void fail(const std::string& why);
  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void note(const std::string& name, double value, const std::string& unit) {
    report.push_back({name, value, unit});
  }
};

double median(std::vector<double> v);
/// Linear-interpolated percentile, p in [0, 100].
double percentile(std::vector<double> v, double p);
double mean(const std::vector<double>& v);

/// Appends the times of `repeats` calls of `setup` to `times`.
template <typename F>
void time_setups(int repeats, F&& setup, std::vector<double>& times) {
  for (int i = 0; i < repeats; ++i) {
    const double t0 = now_s();
    setup();
    times.push_back(now_s() - t0);
  }
}

/// Median of `repeats` timed calls of `setup` (the set-up metric).
template <typename F>
double median_setup(int repeats, F&& setup) {
  std::vector<double> times;
  time_setups(repeats, setup, times);
  return median(std::move(times));
}

/// The end-to-end metrics every workload reports, from its op records.
/// `tail_pct` is the workload's fixed tail percentile; `busy_s` the time
/// from the first submission to the last completion.  The answer-quality
/// metrics (cost, violation, HGP answer share) cover only the first
/// `quality_ops` operations in submission order, so they do not depend on
/// how many operations a run completes.
void add_end_to_end(RunResult& r, const std::vector<OpRecord>& ops,
                    double tail_pct, std::size_t quality_ops, double busy_s,
                    double setup_s, double peak_rss_mb);

/// Adds every per-layer metric (zero where a layer is idle on the
/// workload).  Span-derived times and DP counters are means per traced op;
/// `extra` supplies the values a workload measures itself (service, churn,
/// shard and CLI figures, cpu_util, overhead, role check).
void add_per_layer(RunResult& r, const Tracer& t,
                   const std::vector<std::pair<std::string, double>>& extra);

/// User plus system CPU seconds in `ru`.
double cpu_seconds(const rusage& ru);
/// CPU seconds this process has used so far.
double self_cpu_s();

/// Peak resident set of this process, in MB.
double self_peak_rss_mb();

/// Number of online processors.
int online_cpus();

}  // namespace bench
