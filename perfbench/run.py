#!/usr/bin/env python3
"""Repository benchmark: build, run one workload, relay the result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds the solver and the harness from
source (perfbench/CMakeLists.txt, RelWithDebInfo, into $CARGO_TARGET_DIR or
.bench_build), runs one workload, and relays the harness's report.  The last
line of standard output is the JSON result object.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("cold_solve", "service_stream", "churn_resolve")


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def source_id(root):
    """The git commit when the checkout has one, else a digest of the
    sources, so results from different trees are never compared."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "perfbench"):
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            digest.update(os.path.relpath(f, root).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return "tree-" + digest.hexdigest()[:16]


def build(root, build_dir):
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "perfbench-build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    generated = ("build.ninja", "Makefile")
    if not any(os.path.exists(os.path.join(build_dir, f)) for f in generated):
        cfg = ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cfg += ["-G", "Ninja"]
        steps.append(cfg)
    steps.append(["cmake", "--build", build_dir, "--target", "hgpbench",
                  "-j", jobs])
    with open(log_path, "a") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=root).returncode != 0:
                with open(log_path) as fh:
                    tail = fh.read()[-3000:]
                fail("build failed (%s):\n%s" % (" ".join(cmd), tail))


def check_metric_names(root, metrics, trace):
    """The harness must print exactly the metrics BENCHMARK.json lists for
    this kind of run, with the same units."""
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.exists(spec_path):
        return
    with open(spec_path) as fh:
        spec = json.load(fh)["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in metrics.items()}
    if want != got:
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s" % (
            sorted(set(want.items()) - set(got.items())),
            sorted(set(got.items()) - set(want.items()))))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    for need in ("CMakeLists.txt", "src", "tools", "perfbench/CMakeLists.txt"):
        if not os.path.exists(os.path.join(root, need)):
            fail("run from the root of a checkout: %s is missing" % need, 2)

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(root, build_dir))
    build(root, build_dir)

    rel_build = os.path.relpath(build_dir, root)
    work = os.path.join(rel_build, "perfbench-work",
                        "%s-%d" % (args.workload, os.getpid()))
    results = os.path.join(build_dir, "perfbench-results")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    os.makedirs(results, exist_ok=True)
    record = os.path.join(results, "%s-seed%d-trace%d.json" %
                          (args.workload, args.seed, args.trace))
    cmd = [os.path.join(build_dir, "hgpbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--bin", os.path.join(build_dir, "hgp", "tools"), "--work", work,
           "--commit", source_id(root), "--record", record]
    # Besides the measured seconds the harness runs its set-ups, the
    # reference solves and (traced) the replays alone, which take well under
    # the measured time plus a minute.
    timeout_s = 2 * args.seconds + 60
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=root,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("harness timed out after %g s" % timeout_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        sys.stdout.write(out)
        fail("harness exited %d" % proc.returncode)

    lines = out.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result line: " + lines[-1])
    check_metric_names(root, result["metrics"], args.trace)
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
