#!/usr/bin/env bash
# Builds the engine and the workload runner, carac_bench (Release), into
# ${CARGO_TARGET_DIR:-.bench_build}/cmake and prints the runner's path.
# Run from anywhere inside a carac checkout; run.sh and ab.sh call this.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

if [[ ! -f CMakeLists.txt || ! -d src ]]; then
  echo "build.sh: $root is not a carac checkout (no CMakeLists.txt or src/)" >&2
  exit 2
fi

build_dir="${CARGO_TARGET_DIR:-.bench_build}/cmake"
jobs="$(nproc 2>/dev/null || echo 1)"
((jobs > 4)) && jobs=4

generator=()
if [[ ! -f "$build_dir/CMakeCache.txt" ]] && command -v ninja >/dev/null; then
  generator=(-G Ninja)
fi
{
  cmake -S benchmark -B "$build_dir" ${generator[@]+"${generator[@]}"} \
    -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build "$build_dir" --target carac_bench -j "$jobs"
} 1>&2

echo "$build_dir/carac_bench"
