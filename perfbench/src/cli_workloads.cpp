// cold_solve: the hgp_solve command line, one process at a time, closed loop
// with one client.
#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "decomp/builder.hpp"
#include "decomp/cutter.hpp"
#include "graph/fingerprint.hpp"
#include "graph/io.hpp"
#include "hierarchy/cost.hpp"
#include "hierarchy/placement_io.hpp"
#include "inputs.hpp"
#include "io/snapshot.hpp"
#include "pipeline.hpp"
#include "runtime/coordinator.hpp"
#include "runtime/forest_cache.hpp"
#include "runtime/solver.hpp"
#include "workloads.hpp"

extern char** environ;

namespace bench {
namespace {

constexpr int kPoolSize = 160;
constexpr std::size_t kSetupRepeats = 15;
constexpr int kTrees = 4;
/// Operations the answer-quality metrics cover: about half of what the
/// slowest 30 s run measured has completed.
constexpr std::size_t kQualityOps = 64;
/// Half the solves (both instance families alike) carry a deadline far
/// above their solve time: they exercise the deadline polling without ever
/// expiring.
bool carries_deadline(int op) { return op % 4 == 1 || op % 4 == 2; }
constexpr double kGenerousDeadlineMs = 60000;

struct Instance {
  GraphSpec spec;
  std::string file;  ///< METIS file, relative to the work dir
  std::uint64_t solve_seed = 1;
};

struct Exit {
  int code = -1;
  double wall_s = 0;
  double cpu_s = 0;
  double maxrss_mb = 0;
};

/// Runs argv in `cwd` with stdout+stderr to `log` (relative to cwd) and
/// TMPDIR=. so any temporary file stays inside the work dir; waits for it.
Exit run_process(const std::vector<std::string>& argv, const std::string& cwd,
                 const std::string& log) {
  std::vector<char*> cargv;
  for (const std::string& a : argv) {
    cargv.push_back(const_cast<char*>(a.c_str()));
  }
  cargv.push_back(nullptr);
  std::vector<std::string> env_store;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "TMPDIR=", 7) != 0) env_store.emplace_back(*e);
  }
  env_store.emplace_back("TMPDIR=.");
  std::vector<char*> cenv;
  for (std::string& e : env_store) cenv.push_back(e.data());
  cenv.push_back(nullptr);

  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_addchdir_np(&fa, cwd.c_str());
  posix_spawn_file_actions_addopen(&fa, 1, log.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_adddup2(&fa, 1, 2);
  Exit out;
  const double t0 = now_s();
  pid_t pid = 0;
  const int rc = posix_spawn(&pid, cargv[0], &fa, nullptr, cargv.data(),
                             cenv.data());
  posix_spawn_file_actions_destroy(&fa);
  if (rc != 0) return out;
  int status = 0;
  rusage ru{};
  while (wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
  }
  out.wall_s = now_s() - t0;
  out.code = WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
  out.cpu_s = cpu_seconds(ru);
  out.maxrss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  return out;
}

std::string read_file(const std::string& path) {
  std::ifstream is(path);
  std::stringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

/// Value after `key` on its line of the CLI report ("" when absent).
std::string report_field(const std::string& text, const std::string& key) {
  const std::size_t at = text.find("\n" + key);
  if (at == std::string::npos) return "";
  const std::size_t from = at + 1 + key.size();
  return text.substr(from, text.find('\n', from) - from);
}

std::vector<Instance> make_pool(std::uint64_t seed) {
  Prng rng(seed * 0x9E3779B97F4A7C15ull + 0xC01D);
  std::vector<Instance> pool;
  for (int i = 0; i < kPoolSize; ++i) {
    Instance inst;
    inst.spec = make_cold_instance(i, rng);
    inst.file = "g" + std::to_string(i) + ".metis";
    inst.solve_seed = static_cast<std::uint64_t>(uniform_int(rng, 1, 1 << 30));
    pool.push_back(std::move(inst));
  }
  return pool;
}

hgp::SolverOptions cli_options(std::uint64_t seed, bool deadline) {
  // hgp_solve's defaults (--epsilon 0.5, --trees 4) with the bench's units.
  hgp::SolverOptions opt;
  opt.num_trees = kTrees;
  opt.epsilon = 0.5;
  opt.units_override = kDpUnits;
  opt.seed = seed;
  opt.timeout_ms = deadline ? kGenerousDeadlineMs : 0;
  return opt;
}

struct OpRun {
  int instance = 0;
  bool deadline = false;
  Exit exit;
  std::string out, log;
};

/// What one traced sharded solve measured besides its spans.
struct ShardTrace {
  hgp::HgpResult in_process;  ///< solve_on_forest on the sampled forest
  hgp::HgpResult sharded;     ///< solve_hgp_sharded
  hgp::CoordinatorReport report;
  double snapshot_bytes = 0;
  /// Sharded solve time minus the in-process solve of the same forest.
  double coordinator_overhead_s = 0;
};

/// The sharded solve's stages as public calls, each in a span: forest
/// build, the forest snapshot the coordinator ships (save and load), the
/// in-process solve of that forest, then the sharded solve itself (from an
/// empty forest cache, as in a fresh hgp_solve process).
ShardTrace traced_sharded_solve(const hgp::Graph& g, const hgp::Hierarchy& h,
                                const hgp::SolverOptions& opt,
                                const hgp::CoordinatorOptions& copt,
                                const std::string& snapshot_path) {
  ShardTrace out;
  std::uint64_t fingerprint = 0;
  {
    const Scope s("graph.fingerprint");
    fingerprint = hgp::graph_fingerprint(g);
  }
  const hgp::FmCutter cutter;
  std::vector<hgp::DecompTree> forest;
  {
    const Scope s("decomp.forest_build");
    forest = hgp::build_decomposition_forest(g, opt.num_trees, opt.seed,
                                             cutter);
  }
  {
    const Scope s("io.forest_snapshot_save");
    const hgp::io::ForestSnapshotMeta meta{fingerprint, opt.seed,
                                           opt.num_trees, cutter.name()};
    (void)hgp::io::save_forest_snapshot(meta, g, forest, snapshot_path);
  }
  struct stat st{};
  if (::stat(snapshot_path.c_str(), &st) == 0) {
    out.snapshot_bytes = static_cast<double>(st.st_size);
  }
  {
    const Scope s("io.forest_snapshot_load");
    (void)hgp::io::load_forest_snapshot(snapshot_path);
  }
  hgp::ForestSolveOptions fo;
  fo.epsilon = opt.epsilon;
  fo.units_override = opt.units_override;
  fo.seed = opt.seed;
  const double t0 = now_s();
  {
    const Scope s("runtime.solve_on_forest");
    out.in_process = hgp::solve_on_forest(g, h, forest, fo);
  }
  const double t1 = now_s();
  hgp::ForestCache::global().clear();
  {
    const Scope s("net.sharded_solve");
    out.sharded = hgp::solve_hgp_sharded(g, h, opt, copt, &out.report);
  }
  out.coordinator_overhead_s = (now_s() - t1) - (t1 - t0);
  return out;
}

/// Answers every used pool instance with an in-process solve_hgp, on up to
/// 4 threads; the error message is kept where a solve throws.
void reference_solves(const std::vector<Instance>& pool,
                      const std::vector<OpRun>& runs, const std::string& wd,
                      const hgp::Hierarchy& h, std::vector<hgp::HgpResult>& ref,
                      std::vector<std::string>& error) {
  std::vector<int> used;
  for (const OpRun& op : runs) used.push_back(op.instance);
  std::sort(used.begin(), used.end());
  used.erase(std::unique(used.begin(), used.end()), used.end());
  ref.assign(pool.size(), hgp::HgpResult{});
  error.assign(pool.size(), "");
  const std::size_t workers =
      static_cast<std::size_t>(std::max(1, std::min(4, online_cpus())));
  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      for (std::size_t k = w; k < used.size(); k += workers) {
        const auto i = static_cast<std::size_t>(used[k]);
        try {
          const hgp::Graph g =
              hgp::io::read_metis_file(wd + "/" + pool[i].file);
          ref[i] = hgp::solve_hgp(g, h, cli_options(pool[i].solve_seed, false));
        } catch (const std::exception& e) {
          error[i] = e.what();
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

}  // namespace

RunResult run_cold_solve(const Args& args) {
  RunResult r;
  const std::string solve_bin = args.bin_dir + "/hgp_solve";
  const std::string& wd = args.work_dir;
  const hgp::Hierarchy h = dp_machine();

  // Held-out seed: the same generator must give instances of the same shape.
  {
    const std::vector<Instance> a = make_pool(args.seed);
    const std::vector<Instance> b = make_pool(args.seed ^ 0x5EEDF00Dull);
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (!same_shape(a[i].spec, b[i].spec)) {
        r.fail("held-out seed gives a differently shaped instance " +
               std::to_string(i));
        break;
      }
    }
  }

  std::vector<Instance> pool;
  const auto cli_argv = [&](const Instance& inst, const std::string& out,
                            bool deadline) {
    std::vector<std::string> argv{solve_bin, "--graph", inst.file};
    for (const std::string& f : dp_machine_flags()) argv.push_back(f);
    argv.insert(argv.end(),
                {"--seed", std::to_string(inst.solve_seed), "--out", out});
    if (deadline) {
      argv.insert(argv.end(),
                  {"--timeout-ms", std::to_string(kGenerousDeadlineMs)});
    }
    return argv;
  };
  // Set-up: generate and write the instances, then one warm-up solve so the
  // binaries are paged in before timing.  The warm-up instance is a full
  // cold_solve instance, the same for every seed: its solve, not the noisy
  // file writes, is most of the set-up time, and it does not vary with the
  // seed's instances.  The machine's speed changes over seconds, so the
  // set-ups are spread over the measured loop (they rewrite the same files),
  // whose clock stops while one runs.
  const auto setup = [&] {
    pool = make_pool(args.seed);
    for (const Instance& inst : pool) {
      inst.spec.write_metis(wd + "/" + inst.file);
    }
    Prng rng(0x3A53);
    const Instance warm{make_cold_instance(0, rng), "warm.metis", 1};
    warm.spec.write_metis(wd + "/" + warm.file);
    const Exit e =
        run_process(cli_argv(warm, "warm.out", false), wd, "warm.log");
    if (e.code != 0) r.fail("warm-up solve exited " + std::to_string(e.code));
  };
  std::vector<double> setup_times;
  time_setups(1, setup, setup_times);

  // A traced run follows each CLI solve with the in-process entry point
  // (untraced), the traced replica on the same instance, and the sharded
  // solve's stages as a separate op on their own tracer, so the net and io
  // layers and the coordinator are measured on a steady workload.
  Tracer tracer, shard_tracer;
  std::vector<double> inproc_s, cli_s, coordinator_overhead;
  double snapshot_bytes = 0, shards_up = 0, assigned = 0, reassigned = 0,
         from_shards = 0;
  bool shards_ok = true;
  hgp::CoordinatorOptions copt;
  copt.num_shards = 2;
  copt.shardd_path = args.bin_dir + "/hgp_shardd";
  copt.socket_dir = wd;

  std::vector<OpRun> runs;
  const double t_start = now_s();
  double t_end = t_start + args.seconds, setup_in_loop = 0;
  double cpu_s = 0, cli_wall_s = 0, peak_rss = 0;
  while (now_s() < t_end) {
    if (setup_times.size() < kSetupRepeats &&
        now_s() - t_start - setup_in_loop >=
            args.seconds * static_cast<double>(setup_times.size()) /
                kSetupRepeats) {
      const double t0 = now_s();
      time_setups(1, setup, setup_times);
      setup_in_loop += now_s() - t0;
      t_end = t_start + setup_in_loop + args.seconds;
      continue;
    }
    OpRun op;
    const int i = static_cast<int>(runs.size());
    op.instance = i % kPoolSize;
    op.deadline = carries_deadline(i);
    op.out = "p" + std::to_string(i) + ".out";
    op.log = "p" + std::to_string(i) + ".log";
    const Instance& inst = pool[static_cast<std::size_t>(op.instance)];
    op.exit = run_process(cli_argv(inst, op.out, op.deadline), wd, op.log);
    cpu_s += op.exit.cpu_s;
    cli_wall_s += op.exit.wall_s;
    peak_rss = std::max(peak_rss, op.exit.maxrss_mb);
    runs.push_back(op);
    if (!args.trace) continue;

    const std::string path = wd + "/" + inst.file;
    const hgp::SolverOptions opt = cli_options(inst.solve_seed, op.deadline);
    // The CLI starts with an empty forest cache; so does the entry point.
    const double t0 = now_s();
    hgp::HgpResult want;
    {
      const hgp::Graph g = hgp::io::read_metis_file(path);
      hgp::ForestCache::global().clear();
      want = hgp::solve_hgp(g, h, opt);
    }
    inproc_s.push_back(now_s() - t0);
    cli_s.push_back(op.exit.wall_s);
    const auto check = [&](const char* what, const hgp::HgpResult& got) {
      if (got.cost != want.cost ||
          got.placement.leaf_of != want.placement.leaf_of) {
        r.fail("op " + std::to_string(i) + ": " + what +
               " differs from the entry point's answer");
      }
    };

    for (Tracer* t : {&tracer, &shard_tracer}) {
      g_tracer = t;
      t->begin_op(i);
      const Scope root("op");
      hgp::Graph g;
      {
        const Scope s("graph.read_metis");
        g = hgp::io::read_metis_file(path);
      }
      if (t == &tracer) {
        const ReplicaResult rep = traced_solve_hgp(g, h, opt, nullptr);
        if (rep.cost != want.cost ||
            rep.placement.leaf_of != want.placement.leaf_of) {
          r.fail("op " + std::to_string(i) +
                 ": traced replica differs from the entry point's answer");
        }
        continue;
      }
      const ShardTrace st =
          traced_sharded_solve(g, h, opt, copt, wd + "/forest.snap");
      check("solve_on_forest", st.in_process);
      check("sharded solve", st.sharded);
      coordinator_overhead.push_back(st.coordinator_overhead_s);
      snapshot_bytes += st.snapshot_bytes;
      shards_up += st.report.shards_up;
      assigned += st.report.batches_assigned;
      reassigned += st.report.batches_reassigned;
      from_shards += st.report.trees_from_shards;
      shards_ok &= st.report.trees_from_shards == kTrees;
    }
    g_tracer = nullptr;
  }
  const double busy_s = now_s() - t_start - setup_in_loop;
  time_setups(static_cast<int>(kSetupRepeats - setup_times.size()), setup,
              setup_times);
  const double setup_s = median(setup_times);

  // Every answer is checked against an in-process solve_hgp.
  std::vector<hgp::HgpResult> ref;
  std::vector<std::string> ref_error;
  reference_solves(pool, runs, wd, h, ref, ref_error);
  std::vector<OpRecord> ops;
  for (const OpRun& run : runs) {
    OpRecord rec;
    rec.latency_s = run.exit.wall_s;
    rec.deadline = run.deadline;
    ++r.attempted;
    const auto k = static_cast<std::size_t>(run.instance);
    try {
      if (run.exit.code != 0) {
        throw std::runtime_error("hgp_solve exited " +
                                 std::to_string(run.exit.code));
      }
      if (!ref_error[k].empty()) {
        throw std::runtime_error("reference solve failed: " + ref_error[k]);
      }
      const std::string text = read_file(wd + "/" + run.log);
      const hgp::Graph g = hgp::io::read_metis_file(wd + "/" + pool[k].file);
      const hgp::Placement p =
          hgp::io::read_placement_file(wd + "/" + run.out);
      hgp::validate_placement(g, h, p);
      const double cost = hgp::placement_cost(g, h, p);
      char printed[64];
      std::snprintf(printed, sizeof printed, " %.3f", cost);
      if (report_field(text, "communication cost:") != printed) {
        throw std::runtime_error("reported cost differs from placement_cost");
      }
      if (cost != ref[k].cost || p.leaf_of != ref[k].placement.leaf_of) {
        throw std::runtime_error("answer differs from in-process solve_hgp");
      }
      rec.answered = true;
      rec.degraded = report_field(text, "algorithm:") != " hgp";
      rec.cost = cost;
      rec.violation = hgp::load_report(g, h, p).max_violation();
    } catch (const std::exception& e) {
      ++r.failed;
      r.fail("op " + std::to_string(ops.size()) + ": " + e.what());
    }
    ops.push_back(rec);
  }

  if (!args.trace) {
    add_end_to_end(r, ops, tail_percentile(args.workload), kQualityOps,
                   busy_s, setup_s, peak_rss);
    return r;
  }

  const std::vector<double> traced = tracer.op_seconds();
  double traced_total = 0;
  for (double x : traced) traced_total += x;
  const double sweep =
      tracer.total("core.dp") - tracer.total("core.binarize") -
      tracer.total("core.round") - tracer.total("core.signature_space");
  const bool sweep_ok = traced_total > 0 && sweep / traced_total > 0.5;
  const bool role_ok = sweep_ok && shards_ok;
  if (!role_ok) {
    std::fprintf(stderr, "role check: %s\n",
                 sweep_ok ? "not every tree was solved by a shard"
                          : "the DP sweep does not dominate cold_solve");
  }
  const double n = std::max<double>(1.0, static_cast<double>(traced.size()));
  const Tracer& st = shard_tracer;
  std::vector<std::pair<std::string, double>> extra{
      {"runtime.cli_overhead_s", median(cli_s) - median(inproc_s)},
      {"parallel.cpu_util", cli_wall_s > 0 ? cpu_s / cli_wall_s : 0},
      {"trace.overhead_share", median(traced) / median(inproc_s) - 1},
      {"trace.role_ok", role_ok ? 1 : 0},
      {"net.coordinator_overhead_s", median(coordinator_overhead)},
      {"io.forest_snapshot_bytes", snapshot_bytes / n},
      {"io.forest_snapshot_save_s", st.total("io.forest_snapshot_save") / n},
      {"io.forest_snapshot_load_s", st.total("io.forest_snapshot_load") / n},
      {"net.shards_up", shards_up / n},
      {"net.batches_assigned", assigned / n},
      {"net.batches_reassigned", reassigned / n},
      {"net.trees_from_shards", from_shards / n},
  };
  add_per_layer(r, tracer, extra);
  tracer.write_json(r.spans_json);
  return r;
}

}  // namespace bench
