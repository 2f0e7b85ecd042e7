// hgpbench — the repository benchmark's harness.
//
//   hgpbench --workload cold_solve|service_stream|churn_resolve
//            --seed N --seconds S --trace 0|1 --bin DIR --work DIR
//            [--commit ID] [--record FILE]
//
// Prints one line per metric ("name value unit"), informational lines, and
// as its last line the JSON result object.  perfbench/run.py builds and
// runs it; see perfbench/README.md.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>

#include "common.hpp"
#include "workloads.hpp"

namespace bench {

double tail_percentile(const std::string& workload) {
  if (workload == "churn_resolve") return 99;
  if (workload == "service_stream") return 95;
  return 90;
}

namespace {

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_metrics(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    out += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " +
           json_number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  return out + "}";
}

int usage(const char* why) {
  std::fprintf(stderr,
               "hgpbench: %s\nusage: hgpbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --bin DIR --work DIR [--commit ID] "
               "[--record FILE]\n",
               why);
  return 2;
}

}  // namespace
}  // namespace bench

int main(int argc, char** argv) {
  using namespace bench;
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a.seconds = std::atof(v.c_str());
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--bin") a.bin_dir = v;
    else if (k == "--work") a.work_dir = v;
    else if (k == "--commit") a.commit = v;
    else if (k == "--record") a.record_path = v;
    else return usage(("unknown argument " + k).c_str());
  }
  if (a.bin_dir.empty() || a.work_dir.empty() || a.seconds <= 0) {
    return usage("--bin, --work and a positive --seconds are required");
  }

  RunResult r;
  try {
    if (a.workload == "cold_solve") {
      r = run_cold_solve(a);
    } else if (a.workload == "service_stream") {
      r = run_service_stream(a);
    } else if (a.workload == "churn_resolve") {
      r = run_churn_resolve(a);
    } else {
      return usage(("unknown workload " + a.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hgpbench: %s failed: %s\n", a.workload.c_str(),
                 e.what());
    return 1;
  }

  for (const std::string& e : r.errors) {
    std::fprintf(stderr, "check failed: %s\n", e.c_str());
  }
  for (const Metric& m : r.metrics) {
    std::printf("%-32s %.9g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const Metric& m : r.report) {
    std::printf("# %-30s %.9g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  const std::string meta =
      std::string("{\"workload\": \"") + a.workload + "\", \"seed\": " +
      std::to_string(a.seed) + ", \"seconds\": " + json_number(a.seconds) +
      ", \"trace\": " + (a.trace ? "1" : "0") + ", \"build_type\": \"" +
      HGPBENCH_BUILD_TYPE + "\", \"nproc\": " + std::to_string(online_cpus()) +
      ", \"commit\": \"" + a.commit +
      "\", \"report\": " + json_metrics(r.report) + "}";
  std::printf("meta %s\n", meta.c_str());
  const std::string result =
      std::string("{\"correct\": ") + (r.correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(r.attempted) +
      ", \"failed\": " + std::to_string(r.failed) +
      ", \"metrics\": " + json_metrics(r.metrics) + "}";
  if (!a.record_path.empty()) {
    std::ofstream os(a.record_path);
    std::string latencies = "[";
    for (std::size_t i = 0; i < r.latencies.size(); ++i) {
      latencies += (i == 0 ? "" : ", ") + json_number(r.latencies[i]);
    }
    os << "{\"meta\": " << meta << ",\n \"result\": " << result
       << ",\n \"latencies\": " << latencies << "]"
       << ",\n \"spans\": " << (r.spans_json.empty() ? "[]" : r.spans_json)
       << "}\n";
  }
  std::printf("%s\n", result.c_str());
  return 0;
}
