#!/usr/bin/env bash
# Run the paper-reproduction bench binaries and aggregate wall-clock
# timings and their records into a BENCH_*.json perf-trajectory snapshot.
#
# Usage:
#   scripts/run_benches.sh [--quick] [--large] [--build-dir DIR] [--out FILE]
#                          [--baseline FILE] [--threads N] [--sweeps N]
#                          [--ab OLD_BUILD_DIR]
#
#   --quick       skip the benches that take >20s at small scale
#   --large       run with CARAC_BENCH_SCALE=large (paper-sized inputs)
#   --build-dir   directory containing bench/ binaries
#                 (default: autodetect build, build/release)
#   --out         output JSON path (default: <build-dir>/BENCH_local.json;
#                 name a snapshot to commit, e.g. --out BENCH_prN.json)
#   --baseline    snapshot to diff against (default: the newest committed
#                 BENCH_pr*.json; a per-bench delta table is printed when
#                 it exists)
#   --threads N   evaluation threads passed to the benches that accept the
#                 flag (fig6/fig8/table2/incremental/persistence); recorded
#                 as "threads" in the JSON. Default 1 keeps snapshots
#                 comparable to earlier BENCH_*.json files.
#                 bench_parallel_scaling always sweeps 1/2/4/8 threads.
#   --sweeps N    run each bench N times back-to-back and record the
#                 median wall-clock (default 1). Use on noisy/shared
#                 hosts, where single draws swing ±10-20%; the chosen N
#                 is recorded as "sweeps" in the JSON.
#   --ab DIR      interleaved A/B mode: DIR holds an OLD build's bench
#                 binaries; every sweep runs both builds back-to-back
#                 (alternating which goes first, so thermal/frequency
#                 drift hits both sides equally — the failure mode of
#                 comparing two snapshots taken hours apart on a shared
#                 host). The old build's median lands in the JSON as
#                 "ab_seconds" per bench and a new-vs-old delta table is
#                 printed. Pair with --sweeps 3+ for stable medians.
#
# Each bench binary's stdout is saved next to the JSON under bench_logs/.
# Schema carac-bench/v8: "benches" holds per-bench wall-clock and exit
# code; "records" holds every record line (one JSON object per line,
# printed by harness::EmitRecord) of each bench that succeeded in this
# run, in bench order.

set -u -o pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
mode=full
scale=small
build_dir=""
out=""
baseline=""
threads=1
sweeps=1
ab_dir=""

while [ $# -gt 0 ]; do
  case "$1" in
    --quick) mode=quick ;;
    --large) scale=large ;;
    --threads)
      [ $# -ge 2 ] || { echo "error: --threads needs a value" >&2; exit 2; }
      threads="$2"
      case "$threads" in
        ''|*[!0-9]*) threads=-1 ;;
      esac
      if [ "$threads" -lt 1 ] || [ "$threads" -gt 256 ]; then
        echo "error: --threads wants an integer in [1, 256], got: $2" >&2
        exit 2
      fi
      shift ;;
    --sweeps)
      [ $# -ge 2 ] || { echo "error: --sweeps needs a value" >&2; exit 2; }
      sweeps="$2"
      case "$sweeps" in
        ''|*[!0-9]*) sweeps=-1 ;;
      esac
      if [ "$sweeps" -lt 1 ] || [ "$sweeps" -gt 100 ]; then
        echo "error: --sweeps wants an integer in [1, 100], got: $2" >&2
        exit 2
      fi
      shift ;;
    --build-dir)
      [ $# -ge 2 ] || { echo "error: --build-dir needs a value" >&2; exit 2; }
      build_dir="$2"; shift ;;
    --ab)
      [ $# -ge 2 ] || { echo "error: --ab needs a build dir" >&2; exit 2; }
      ab_dir="$2"; shift ;;
    --out)
      [ $# -ge 2 ] || { echo "error: --out needs a value" >&2; exit 2; }
      out="$2"; shift ;;
    --baseline)
      [ $# -ge 2 ] || { echo "error: --baseline needs a value" >&2; exit 2; }
      baseline="$2"; shift ;;
    -h|--help) sed -n '2,41p' "$0"; exit 0 ;;
    *) echo "unknown option: $1" >&2; exit 2 ;;
  esac
  shift
done

if [ -z "$build_dir" ]; then
  for candidate in "$repo_root/build" "$repo_root/build/release"; do
    if [ -d "$candidate/bench" ]; then build_dir="$candidate"; break; fi
  done
fi
if [ -z "$build_dir" ] || [ ! -d "$build_dir/bench" ]; then
  echo "error: no built bench/ directory found." >&2
  echo "build first: cmake -B build -S . && cmake --build build -j" >&2
  exit 1
fi
if [ -z "$out" ]; then
  out="$build_dir/BENCH_local.json"
fi
if [ -z "$baseline" ]; then
  baseline="$(cd "$repo_root" && git ls-files 'BENCH_pr*.json' 2>/dev/null |
    sort -V | tail -n 1)"
  [ -n "$baseline" ] && baseline="$repo_root/$baseline"
fi
if [ -n "$ab_dir" ] && [ ! -d "$ab_dir/bench" ]; then
  echo "error: --ab dir has no bench/ subdirectory: $ab_dir" >&2
  exit 1
fi

benches=(
  bench_fig5_codegen
  bench_fig6_macro_unopt
  bench_fig7_micro_unopt
  bench_fig8_macro_opt
  bench_fig9_micro_opt
  bench_fig10_aot
  bench_table1_interpreted
  bench_table2_sota
  bench_ablation_freshness
  bench_ablation_granularity
  bench_ablation_storage
  bench_storage_micro
  bench_incremental
  bench_index_micro
  bench_adaptive_convergence
  bench_parallel_scaling
  bench_persistence
  bench_range_pushdown
)
# >20s each at small scale; dropped in --quick mode.
slow_benches=" bench_fig6_macro_unopt bench_table1_interpreted bench_ablation_freshness bench_adaptive_convergence "
# Benches that accept --threads (the Carac-side thread dimension).
threaded_benches=" bench_fig6_macro_unopt bench_fig8_macro_opt bench_table2_sota bench_incremental bench_persistence "

log_dir="$(dirname "$out")/bench_logs"
mkdir -p "$log_dir"

if [ "$scale" = large ]; then
  export CARAC_BENCH_SCALE=large
else
  unset CARAC_BENCH_SCALE || true
fi

rows=""
# Record lines of this run, one JSON object per line, in bench order.
records_file="$log_dir/records.jsonl"
: > "$records_file"
failures=0
for bench in "${benches[@]}"; do
  exe="$build_dir/bench/$bench"
  skipped=false
  if [ "$mode" = quick ] && [[ "$slow_benches" == *" $bench "* ]]; then
    skipped=true
  fi
  if [ ! -x "$exe" ]; then
    # bench_storage_micro is optional (needs google-benchmark).
    echo "skip  $bench (not built)"
    skipped=true
  fi

  if [ "$skipped" = true ]; then
    rows="$rows    {\"name\": \"$bench\", \"skipped\": true},\n"
    continue
  fi

  # Expanded as ${bench_args[@]+...} below: plain "${bench_args[@]}" on an
  # empty array trips `set -u` on bash < 4.4.
  bench_args=()
  if [ "$threads" != 1 ] && [[ "$threaded_benches" == *" $bench "* ]]; then
    bench_args=(--threads "$threads")
  fi

  # In --ab mode the same bench from the old build runs inside the same
  # sweep (old log lands in <bench>.old.txt). A bench the old build does
  # not have (newly added this PR) just runs single-armed.
  ab_exe=""
  if [ -n "$ab_dir" ] && [ -x "$ab_dir/bench/$bench" ]; then
    ab_exe="$ab_dir/bench/$bench"
  fi

  printf 'run   %s ... ' "$bench"
  # Median wall-clock of --sweeps back-to-back runs (worst exit code
  # wins; the log keeps the last run's stdout). Same principle the
  # harness's MeasureMedian applies inside a bench, applied to whole
  # binaries so one noisy draw on a shared host cannot skew a snapshot.
  sweep_times=""
  ab_times=""
  code=0
  ab_code=0
  for _sweep in $(seq 1 "$sweeps"); do
    # A/B arms alternate which build goes first each sweep, so frequency
    # ramps and cache warmth cannot systematically favor one side.
    if [ -z "$ab_exe" ]; then
      arms="new"
    elif [ $((_sweep % 2)) -eq 0 ]; then
      arms="old new"
    else
      arms="new old"
    fi
    for arm in $arms; do
      if [ "$arm" = new ]; then
        arm_exe="$exe"; arm_log="$log_dir/$bench.txt"
      else
        arm_exe="$ab_exe"; arm_log="$log_dir/$bench.old.txt"
      fi
      start_ns=$(date +%s%N)
      if "$arm_exe" ${bench_args[@]+"${bench_args[@]}"} \
          > "$arm_log" 2>&1; then
        sweep_code=0
      else
        sweep_code=$?
      fi
      end_ns=$(date +%s%N)
      arm_secs=$(awk -v d=$((end_ns - start_ns)) \
        'BEGIN{printf "%.3f", d/1e9}')
      if [ "$arm" = new ]; then
        sweep_times="$sweep_times $arm_secs"
        [ "$sweep_code" -ne 0 ] && code=$sweep_code
      else
        ab_times="$ab_times $arm_secs"
        [ "$sweep_code" -ne 0 ] && ab_code=$sweep_code
      fi
    done
  done
  if [ "$code" -ne 0 ]; then
    failures=$((failures + 1))
  fi
  # Records come only from a run of THIS invocation that succeeded: a
  # stale log from an earlier sweep must not lend its numbers.
  if [ "$code" -eq 0 ]; then
    grep '^{"bench": ' "$log_dir/$bench.txt" >> "$records_file"
  fi
  # shellcheck disable=SC2086
  seconds=$(printf '%s\n' $sweep_times | sort -n |
    awk '{a[NR]=$1} END{print a[int((NR+1)/2)]}')
  ab_field=""
  if [ -n "$ab_exe" ] && [ "$ab_code" -eq 0 ]; then
    # shellcheck disable=SC2086
    ab_seconds=$(printf '%s\n' $ab_times | sort -n |
      awk '{a[NR]=$1} END{print a[int((NR+1)/2)]}')
    ab_delta=$(awk -v n="$seconds" -v o="$ab_seconds" \
      'BEGIN{if (o > 0) printf "%+.1f%%", 100*(n-o)/o; else printf "-"}')
    echo "${seconds}s vs old ${ab_seconds}s ($ab_delta, exit $code," \
      "median of $sweeps)"
    ab_field=" \"ab_seconds\": $ab_seconds,"
  elif [ -n "$ab_exe" ]; then
    echo "${seconds}s (exit $code, median of $sweeps; old arm FAILED," \
      "exit $ab_code)"
  elif [ -n "$ab_dir" ]; then
    echo "${seconds}s (exit $code, median of $sweeps; no old binary)"
  else
    echo "${seconds}s (exit $code, median of $sweeps)"
  fi
  rows="$rows    {\"name\": \"$bench\", \"skipped\": false,"
  rows="$rows \"seconds\": $seconds,$ab_field \"exit_code\": $code},\n"
done
rows="${rows%,\\n}"

{
  echo "{"
  echo "  \"schema\": \"carac-bench/v8\","
  echo "  \"timestamp_utc\": \"$(date -u +%Y-%m-%dT%H:%M:%SZ)\","
  echo "  \"mode\": \"$mode\","
  echo "  \"scale\": \"$scale\","
  echo "  \"threads\": $threads,"
  echo "  \"sweeps\": $sweeps,"
  if [ -n "$ab_dir" ]; then
    echo "  \"ab_build_dir\": \"$ab_dir\","
  fi
  echo "  \"host\": {"
  echo "    \"uname\": \"$(uname -srm)\","
  echo "    \"nproc\": $(nproc),"
  echo "    \"compiler\": \"$(c++ --version | head -1 | sed 's/"/\\"/g')\""
  echo "  },"
  echo "  \"benches\": ["
  printf '%b\n' "$rows"
  echo "  ],"
  echo "  \"records\": ["
  sed 's/^/    /; $!s/$/,/' "$records_file"
  echo "  ]"
  echo "}"
} > "$out"

echo "wrote $out (logs in $log_dir/)"

# Per-bench delta table against the baseline snapshot, so a perf
# regression (or win) is visible at the end of every run.
if [ -f "$baseline" ] && [ "$baseline" != "$out" ] \
    && command -v python3 >/dev/null 2>&1; then
  python3 - "$baseline" "$out" <<'PYEOF'
import json, sys

with open(sys.argv[1]) as f:
    base = json.load(f)
with open(sys.argv[2]) as f:
    new = json.load(f)

def seconds(snap):
    return {b["name"]: b.get("seconds")
            for b in snap.get("benches", []) if not b.get("skipped")}

base_s, new_s = seconds(base), seconds(new)
if base.get("mode") != new.get("mode") or base.get("scale") != new.get("scale"):
    print("note: baseline mode/scale (%s/%s) differs from this run (%s/%s)" %
          (base.get("mode"), base.get("scale"),
           new.get("mode"), new.get("scale")))
if base.get("threads", 1) != new.get("threads", 1):
    print("note: baseline threads=%s differs from this run's threads=%s" %
          (base.get("threads", 1), new.get("threads", 1)))
for key in ("nproc", "compiler"):
    if base.get("host", {}).get(key) != new.get("host", {}).get(key):
        print("note: baseline host %s (%s) differs from this run's (%s)" %
              (key, base.get("host", {}).get(key),
               new.get("host", {}).get(key)))

rows = [(n, base_s.get(n), t) for n, t in new_s.items()]
width = max((len(n) for n, _, _ in rows), default=10)
print()
print("delta vs %s:" % sys.argv[1])
print("%-*s  %9s  %9s  %8s" % (width, "bench", "base (s)", "new (s)", "delta"))
for name, b, t in rows:
    if b is None or b <= 0:
        print("%-*s  %9s  %9.3f  %8s" % (width, name, "-", t, "-"))
    else:
        print("%-*s  %9.3f  %9.3f  %+7.1f%%" %
              (width, name, b, t, 100.0 * (t - b) / b))
PYEOF
fi

if [ "$failures" -gt 0 ]; then
  echo "error: $failures bench(es) failed" >&2
  exit 1
fi
