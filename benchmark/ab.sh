#!/usr/bin/env bash
# Interleaved A/B of this tree against an older build of the benchmark:
#
#   benchmark/ab.sh OLD_BUILD_DIR [--pairs N] [--workload W] [--seed N]
#
# OLD_BUILD_DIR is the build directory the old checkout's run.sh made
# (its .bench_build/cmake), holding the old carac_bench. Builds this tree
# (build.sh), then runs N pairs (default 10), alternating which side goes
# first, and prints each side's median and quartiles, the new side's win
# share, and a verdict per end-to-end metric against its bound in
# BENCHMARK.json. Every run measures for run_seconds. This is the tool
# for performance claims; scripts/run_benches.sh --ab stays the
# paper-figure comparison.
set -euo pipefail

if (($# < 1)); then
  sed -n '2,13p' "$0" >&2
  exit 2
fi
old="$(cd "$1" && pwd)"
shift
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
bench="$("$here/build.sh")"
cd "$(dirname "$here")"
exec python3 "$here/compare.py" ab "$old" --bench "$bench" \
  --work-root "${CARGO_TARGET_DIR:-.bench_build}" "$@"
