#!/usr/bin/env bash
# Repository-benchmark smoke test (CI: the perfbench-smoke job).
#
# Builds perfbench against the current sources and runs every workload for
# a few seconds, plus one traced churn_resolve run.  Each run must end in a
# JSON result line with "correct": true and "failed": 0; anything else
# (a build break, a harness crash, a wrong answer) fails the script.
#
# Usage: scripts/perfbench_smoke.sh [seconds]     (run from the repo root)
set -eu
SECONDS_PER_RUN="${1:-3}"
OUT="$(mktemp)"
trap 'rm -f "$OUT"' EXIT

run() {
  echo "== perfbench $*"
  if ! python3 perfbench/run.py "$@" --seed 1 --seconds "$SECONDS_PER_RUN" \
      > "$OUT"; then
    cat "$OUT"
    exit 1
  fi
  tail -n 1 "$OUT"
  tail -n 1 "$OUT" | python3 -c '
import json, sys
r = json.loads(sys.stdin.read())
sys.exit(0 if r["correct"] is True and r["failed"] == 0 else 1)' || {
    echo "perfbench_smoke: $* was not correct or had failed operations"
    exit 1
  }
}

for workload in cold_solve service_stream churn_resolve; do
  run --workload "$workload"
done
run --workload churn_resolve --trace 1
echo "perfbench_smoke: all workloads correct"
