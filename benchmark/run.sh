#!/usr/bin/env bash
# The repository benchmark's one command. Run from the repository root:
#
#   benchmark/run.sh --workload W [--seed N] [--seconds S] [--trace 0|1]
#   benchmark/run.sh [--seed N] [--trace 0|1]   every workload, one
#                                               process each
#   benchmark/run.sh --self-test ...            flips one expected row;
#                                               the run must fail
#   benchmark/run.sh --repeat K [--seeds a,b,..] [--workload W]
#                                               K full sets of runs,
#                                               compared against the bounds
#
# --seconds defaults to run_seconds in BENCHMARK.json. Builds first (see
# build.sh). The last line of stdout of a single-workload run is its JSON
# result; see benchmark/README.md. A/B comparisons are benchmark/ab.sh.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
bench="$("$here/build.sh")"
cd "$(dirname "$here")"
out_dir="${CARGO_TARGET_DIR:-.bench_build}"
workloads=(cspa_unopt_jit andersen_interp andersen_par serve_reach)

args=()
repeat=0
have_workload=0
have_seconds=0
while (($#)); do
  case "$1" in
    --repeat) repeat="$2"; shift 2 ;;
    --workload) have_workload=1; args+=("$1" "$2"); shift 2 ;;
    --seconds) have_seconds=1; args+=("$1" "$2"); shift 2 ;;
    *) args+=("$1"); shift ;;
  esac
done

if ((repeat > 0)); then
  exec python3 "$here/compare.py" repeat --sets "$repeat" \
    --bench "$bench" --work-root "$out_dir" ${args[@]+"${args[@]}"}
fi
if ((!have_seconds)); then
  args+=(--seconds "$(python3 -c \
    'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')")
fi
if ((have_workload)); then
  exec "$bench" --work-root "$out_dir" "${args[@]}"
fi

status=0
for w in "${workloads[@]}"; do
  echo "== $w" >&2
  "$bench" --work-root "$out_dir" --workload "$w" "${args[@]}" || status=1
done
exit "$status"
