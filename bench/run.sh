#!/usr/bin/env bash
# classbench in one command.
#
#   bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       builds classbench if needed and makes that one run (what BENCHMARK.json
#       names as the benchmark's command);
#   bench/run.sh
#       makes the whole suite at seed 42: every workload end to end, then every
#       workload's layer run, then prints where the traces went.
#
# Everything it writes stays inside the checkout: the binary and Go's build
# cache under $CARGO_TARGET_DIR (default .bench_build), traces under bench/out.
set -euo pipefail
cd "$(dirname "$0")/.."
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$PWD/$build ;; esac
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPROXY=off GOTOOLCHAIN=local
(cd bench && go build -o "$build/classbench" ./cmd/classbench)

if [ $# -gt 0 ]; then
	exec "$build/classbench" "$@"
fi

workloads="lecture100_sim venue256_direct churn48_sim campus_relay_tcp"
for trace in 0 1; do
	for w in $workloads; do
		"$build/classbench" --workload "$w" --seed 42 --seconds 12 --trace "$trace" | sed '$d'
	done
done
echo "traces: bench/out/trace-<workload>.json"
