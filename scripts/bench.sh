#!/usr/bin/env bash
# Benchmark sweep: runs the selected benchmarks (default: the
# parallel-scaling set) with allocation accounting and records the results
# as BENCH_<date>.json in the repository root.
#
# Usage: scripts/bench.sh [bench-regex] [cpus] [out] [benchtime] [pkgs...]
#   bench-regex  benchmarks to run (default: the parallel-scaling set;
#                pass '' to keep the default while setting later args)
#   cpus         -cpu list (default: 1,4)
#   out          output file (default: BENCH_<date>.json)
#   benchtime    -benchtime (default 2x: the scaling set contains runs of
#                minutes per op; use e.g. 20x for the fast gate set)
#   pkgs         packages to bench (default: the root package '.'; pass
#                extra packages to pick up e.g. internal/circuit benches)
set -euo pipefail
cd "$(dirname "$0")/.."

pattern="${1:-}"
[ -n "$pattern" ] || pattern='Table2Parallel|FaultSimParallel|Resynth$|Table2Procedure2|FaultSimulation'
cpus="${2:-}"
[ -n "$cpus" ] || cpus='1,4'
out="${3:-}"
[ -n "$out" ] || out="BENCH_$(date +%F).json"
benchtime="${4:-2x}"
shift $(( $# > 4 ? 4 : $# ))
pkgs=("$@")
[ ${#pkgs[@]} -gt 0 ] || pkgs=(.)

echo "== go test -bench ($pattern) -cpu $cpus -benchtime $benchtime -benchmem ${pkgs[*]} =="
raw=$(go test -run '^$' -bench "$pattern" -benchtime "$benchtime" -benchmem -cpu "$cpus" -timeout 30m "${pkgs[@]}")
echo "$raw"

echo "$raw" | go run ./scripts/benchjson > "$out"
echo "wrote $out"
