#!/usr/bin/env bash
# One-command PARALAGG benchmark; see bench/suite/README.md.
#
#   bench/suite/run.sh [--seed S] [--seconds T] [--out FILE]
#       every workload, each in its own process, with a traced rep
#   bench/suite/run.sh --workload W [--seed S] [--seconds T] [--trace 0|1]
#       one workload; the last stdout line is its JSON result
#   bench/suite/run.sh --compare BASE HEAD
#       verdict per (workload, end-to-end metric) between two results files
#   bench/suite/run.sh --smoke
#       every workload at tiny scale, checked against BENCHMARK.json
#
# Builds this directory as a standalone CMake project into build-bench/ at
# the repository root (build output goes to stderr), then runs from the
# root.  Exits nonzero on a wrong answer.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(cd "$here/../.." && pwd)
build="$root/build-bench"
cd "$root"

seed=1
seconds=10
workload=""
trace=""
out=""
mode=run
compare=()
while [ $# -gt 0 ]; do
  case "$1" in
    --seed) seed=$2; shift 2 ;;
    --seconds) seconds=$2; shift 2 ;;
    --workload) workload=$2; shift 2 ;;
    --trace) trace=$2; shift 2 ;;
    --out) out=$2; shift 2 ;;
    --compare) mode=compare; compare=("$2" "$3"); shift 3 ;;
    --smoke) mode=smoke; shift ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done

if [ ! -f "$root/src/CMakeLists.txt" ]; then
  echo "run.sh: library sources not found under $root/src" >&2
  exit 2
fi
if [ ! -f "$build/CMakeCache.txt" ]; then
  cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" --target paralagg_bench -j "$(nproc)" >&2
bin="$build/paralagg_bench"

case "$mode" in
  compare) exec "$bin" --compare "${compare[@]}" --benchmark-json "$root/BENCHMARK.json" ;;
  smoke) exec "$bin" --smoke --benchmark-json "$root/BENCHMARK.json" --trace-dir "$build" ;;
esac

# Only consult git inside this checkout, never a repository above it.
describe=unknown
if [ -d "$root/.git" ]; then
  describe=$(git -C "$root" describe --always --dirty 2>/dev/null || echo unknown)
fi
common=(--seed "$seed" --seconds "$seconds" --git-describe "$describe")

if [ -n "$workload" ]; then
  args=("${common[@]}")
  if [ "$trace" = 1 ]; then
    args+=(--trace "$build/trace-$workload-seed$seed.json")
  fi
  if [ -n "$out" ]; then
    args+=(--out "$out")
  fi
  exec "$bin" --workload "$workload" "${args[@]}"
fi

if [ -z "$out" ]; then
  out="$build/results-seed$seed.jsonl"
  rm -f "$out"
fi
status=0
for w in $("$bin" --list); do
  "$bin" --workload "$w" "${common[@]}" --trace "$build/trace-$w-seed$seed.json" \
    --out "$out" || status=1
done
echo "results: $out  traces: $build/trace-*-seed$seed.json"
exit $status
