#!/usr/bin/env bash
# Runs the experiment suite and fails if any experiment reports FAIL.
#
# Write mode (default): every benchmark persists a BENCH_<name>.json
# summary at the repo root: the bench name, its wall time and exit code as
# measured here, plus any machine-readable detail the benchmark prints on a
# line of the form "BENCH_JSON: {...}" (e.g. problem size and DP work
# counters).  The files give successive runs a perf trajectory to diff
# without re-parsing human-oriented tables.
#
# Check mode (--check): the committed BENCH_*.json files are treated as the
# baseline and NOT overwritten.  For every bench whose detail carries DP
# work counters, the run fails if
#   * a counter the baseline records (merge_operations, feasible_states,
#     signatures, with or without a dp_ prefix) differs from the baseline
#     in any way — a speedup must do exactly the same DP work — or
#   * the current DP throughput (merges/ms) regresses more than 15% below
#     the baseline.
# Benches without comparable counters are reported and skipped.
#
# Usage: scripts/run_benches.sh [--check] [build-dir] [name-glob]
#   scripts/run_benches.sh                      # all benches in ./build
#   scripts/run_benches.sh build 'bench_e7*'    # just the e7 sweep
#   scripts/run_benches.sh --check build 'bench_e7*'   # regression gate
set -u
MODE=write
if [ "${1:-}" = "--check" ]; then
  MODE=check
  shift
fi
BUILD="${1:-build}"
FILTER="${2:-*}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
status=0
for b in "$BUILD"/bench/$FILTER; do
  [ -f "$b" ] && [ -x "$b" ] || continue
  name="$(basename "$b")"
  echo "### $name"
  start_ms=$(($(date +%s%N) / 1000000))
  out="$("$b" 2>&1)"
  rc=$?
  end_ms=$(($(date +%s%N) / 1000000))
  printf '%s\n' "$out"
  if [ "$rc" -ne 0 ]; then
    echo "### $name FAILED"
    status=1
  fi
  detail="$(printf '%s\n' "$out" | sed -n 's/^BENCH_JSON: //p' | tail -1)"
  [ -n "$detail" ] || detail='null'
  short="${name#bench_}"
  if [ "$MODE" = "write" ]; then
    printf '{"bench": "%s", "wall_ms": %d, "exit": %d, "detail": %s}\n' \
      "$short" "$((end_ms - start_ms))" "$rc" "$detail" \
      > "$ROOT/BENCH_${short}.json"
  else
    baseline="$ROOT/BENCH_${short}.json"
    if [ ! -f "$baseline" ]; then
      echo "### $name: no committed baseline, skipping check"
      continue
    fi
    if ! python3 - "$baseline" "$detail" <<'PYEOF'
import json
import sys

def throughput(detail):
    """DP merges per millisecond, or None when not measurable."""
    if not isinstance(detail, dict):
        return None
    merges = detail.get("merge_operations") or detail.get("dp_merge_operations")
    ms = detail.get("solve_ms")
    if not merges or not ms or ms <= 0:
        return None
    return merges / ms

def counters(detail):
    """The DP work counters a detail records, keyed without the dp_ prefix."""
    if not isinstance(detail, dict):
        return {}
    out = {}
    for name in ("merge_operations", "feasible_states", "signatures"):
        for key in (name, "dp_" + name):
            if key in detail:
                out[name] = detail[key]
    return out

with open(sys.argv[1]) as f:
    old_detail = json.load(f).get("detail")
new_detail = json.loads(sys.argv[2]) if sys.argv[2] != "null" else None
mismatch = False
new_counts = counters(new_detail)
for name, want in sorted(counters(old_detail).items()):
    got = new_counts.get(name)
    print(f"    {name}: {got} vs baseline {want}")
    if got != want:
        print(f"    MISMATCH: {name} differs from the committed baseline")
        mismatch = True
old = throughput(old_detail)
new = throughput(new_detail)
if old is None or new is None:
    print("    no comparable DP throughput counters")
    sys.exit(1 if mismatch else 0)
ratio = new / old
print(f"    DP throughput {new:.0f} merges/ms vs baseline {old:.0f} "
      f"({ratio:.2f}x)")
if ratio < 0.85:
    print("    REGRESSION: throughput below 85% of the committed baseline")
    sys.exit(1)
sys.exit(1 if mismatch else 0)
PYEOF
    then
      echo "### $name FAILED (DP counter mismatch or throughput regression)"
      status=1
    fi
  fi
done
exit $status
