#!/usr/bin/env bash
# bench.sh — run every benchmark of every package in the root module
# (`go test -bench . ./...`: the root E1–E12 suite and each internal package's
# micro-benchmarks; the nested bench/ module is classbench's, not this
# ledger's) with -benchmem and emit BENCH_<n>.json recording name, package,
# ns/op, B/op, allocs/op and each bench's headline metric
# (e.g. cloud-egress-KB/s). The JSON files form the repo's
# perf trajectory: BENCH_1.json is PR 1's floor; later perf PRs append
# BENCH_2.json, BENCH_3.json, ... and get judged against the previous file.
# Only what needs no noise model is gated — allocs/op and the deterministic
# headline metrics; ns/op is recorded, and wall-clock regressions are
# classbench's job (BENCHMARK.json's step_ms_mean bounds).
#
# Usage:
#   scripts/bench.sh [n]                      run the suite, write BENCH_<n>.json (default n=1)
#   scripts/bench.sh [n] --compare OLD.json   ...then fail if a gated allocs/op
#                                             or headline metric regressed >5%
#                                             vs OLD.json;
#                                             with n omitted the run goes to a
#                                             temp file (no baseline clobbered)
#   scripts/bench.sh --compare OLD.json NEW.json
#                                             no benchmark run: compare the two
#                                             committed files (the CI gate)
#   BENCHTIME=10x scripts/bench.sh            to override -benchtime
set -euo pipefail
cd "$(dirname "$0")/.."

# allocs_of FILE NAME — extract NAME's allocs_per_op from a BENCH json.
allocs_of() {
    sed -n 's|.*"name": "'"$2"'".*"allocs_per_op": \([0-9][0-9]*\).*|\1|p' "$1"
}

# metric_of FILE NAME METRIC — extract NAME's headline METRIC (from the
# "metrics" object go test's extra ReportMetric units land in).
metric_of() {
    sed -n 's|.*"name": "'"$2"'".*"'"$3"'": \([0-9][0-9.]*\).*|\1|p' "$1"
}

# gate_metric NAME METRIC OLD NEW REQUIRED — fail when NAME's METRIC grew
# >5% (headline metrics gated here are costs: egress bandwidth). With
# REQUIRED=optional the gate is skipped when the old file predates the
# benchmark.
gate_metric() {
    local name="$1" metric="$2" old_file="$3" new_file="$4" required="$5" old new
    old="$(metric_of "$old_file" "$name" "$metric")"
    new="$(metric_of "$new_file" "$name" "$metric")"
    if [[ -z "$new" ]]; then
        echo "bench.sh: missing $name $metric in $new_file" >&2
        exit 1
    fi
    if [[ -z "$old" ]]; then
        if [[ "$required" == "optional" ]]; then
            echo "bench.sh: note — $old_file has no $name $metric baseline; gate skipped" >&2
            return 0
        fi
        echo "bench.sh: missing $name $metric in $old_file" >&2
        exit 1
    fi
    echo "$name $metric: $old ($old_file) -> $new ($new_file)" >&2
    if ! awk -v o="$old" -v n="$new" 'BEGIN { exit !(n <= o * 1.05) }'; then
        echo "bench.sh: FAIL — $name $metric regressed >5% ($old -> $new)" >&2
        exit 1
    fi
}

# gate_allocs NAME OLD NEW REQUIRED — fail when NAME's allocs/op regressed
# >5%. With REQUIRED=optional the gate is skipped (with a notice) when the
# old file predates the benchmark.
gate_allocs() {
    local name="$1" old_file="$2" new_file="$3" required="$4" old new
    old="$(allocs_of "$old_file" "$name")"
    new="$(allocs_of "$new_file" "$name")"
    if [[ -z "$new" ]]; then
        echo "bench.sh: missing $name allocs_per_op in $new_file" >&2
        exit 1
    fi
    if [[ -z "$old" ]]; then
        if [[ "$required" == "optional" ]]; then
            echo "bench.sh: note — $old_file has no $name baseline; gate skipped" >&2
            return 0
        fi
        echo "bench.sh: missing $name allocs_per_op in $old_file" >&2
        exit 1
    fi
    echo "$name allocs/op: $old ($old_file) -> $new ($new_file)" >&2
    if ! awk -v o="$old" -v n="$new" 'BEGIN { exit !(n <= o * 1.05) }'; then
        echo "bench.sh: FAIL — $name allocs/op regressed >5% ($old -> $new)" >&2
        exit 1
    fi
}

# compare_allocs OLD NEW — fail when E4Scale or the onboarding storm bench
# regressed >5% in allocs/op, when the tiered mega-event's cloud egress grew
# >5% (the decimation gate: re-admitting the far/ambient crowd at full rate
# moves bandwidth, not allocations), or when the cold-join first-sync
# latency grew >5% (the receiver-side pooling gate: geo handoffs that fall
# back to a snapshot pay exactly this path). (Onboard joined the suite with
# BENCH_5.json, E12MegaEvent with BENCH_7.json, ColdJoin with BENCH_9.json;
# older baselines skip their gates.)
compare_allocs() {
    gate_allocs "E4Scale" "$1" "$2" required
    gate_allocs "Onboard/storm=64" "$1" "$2" optional
    gate_allocs "ColdJoin" "$1" "$2" optional
    gate_metric "E12MegaEvent" "cloud-egress-KB/s" "$1" "$2" optional
    gate_metric "ColdJoin" "cold-join-ms" "$1" "$2" optional
    echo "bench.sh: OK — within the 5% allocation, egress, and cold-join budgets" >&2
}

N=""
COMPARE=""
COMPARE_NEW=""
while [[ $# -gt 0 ]]; do
    case "$1" in
    --compare)
        COMPARE="${2:?--compare needs a BENCH json to compare against}"
        shift 2
        if [[ $# -gt 0 && "$1" != --* ]]; then
            COMPARE_NEW="$1"
            shift
        fi
        ;;
    *)
        N="$1"
        shift
        ;;
    esac
done

if [[ -n "$COMPARE_NEW" ]]; then
    # Pure file comparison — no benchmark run.
    compare_allocs "$COMPARE" "$COMPARE_NEW"
    exit 0
fi

TMP_OUT=""
if [[ -n "$N" ]]; then
    OUT="BENCH_${N}.json"
elif [[ -n "$COMPARE" ]]; then
    # --compare without an explicit suite number: measure into a temp file
    # so the committed BENCH_1.json baseline is never clobbered by accident.
    OUT="$(mktemp)"
    TMP_OUT="$OUT"
else
    OUT="BENCH_1.json"
fi
RAW="$(mktemp)"
trap 'rm -f "$RAW" $TMP_OUT' EXIT

go test -bench . -skip '^BenchmarkE4Scale$' -benchmem -run '^$' ${BENCHTIME:+-benchtime "$BENCHTIME"} ./... | tee "$RAW" >&2
# E4Scale runs apart, at a pinned iteration count (its row comes last):
# allocs/op is a mean over the iterations, front-loaded by the onboarding
# ramp, and go test picks the count from wall time — the same binary reads 878
# allocs/op at 16 iterations and 1,064 at 13, so on a noisy host the 5 % gate
# would compare host phases. The other gated rows move <1 % with the count.
go test -bench '^BenchmarkE4Scale$' -benchtime 16x -benchmem -run '^$' . | tee -a "$RAW" >&2

awk -v goversion="$(go version | awk '{print $3}')" '
BEGIN { n = 0 }
/^pkg: / { pkg = $2 }
/^Benchmark/ {
    name = $1
    sub(/^Benchmark/, "", name)
    sub(/-[0-9]+$/, "", name) # strip -GOMAXPROCS suffix if present
    iters = $2
    ns = ""; bytes = ""; allocs = ""; extra = ""
    for (i = 3; i + 1 <= NF; i += 2) {
        val = $i; unit = $(i + 1)
        if (unit == "ns/op") ns = val
        else if (unit == "B/op") bytes = val
        else if (unit == "allocs/op") allocs = val
        else {
            if (extra != "") extra = extra ", "
            extra = extra "\"" unit "\": " val
        }
    }
    line = sprintf("    {\"name\": \"%s\", \"pkg\": \"%s\", \"iterations\": %s", name, pkg, iters)
    if (ns != "") line = line sprintf(", \"ns_per_op\": %s", ns)
    if (bytes != "") line = line sprintf(", \"bytes_per_op\": %s", bytes)
    if (allocs != "") line = line sprintf(", \"allocs_per_op\": %s", allocs)
    if (extra != "") line = line sprintf(", \"metrics\": {%s}", extra)
    line = line "}"
    bench[n++] = line
}
END {
    print "{"
    printf "  \"suite\": \"every benchmark in the root module\",\n"
    printf "  \"go\": \"%s\",\n", goversion
    printf "  \"command\": \"go test -bench . -benchmem -run ^$ ./... (E4Scale apart at -benchtime 16x)\",\n"
    print  "  \"benchmarks\": ["
    for (i = 0; i < n; i++) print bench[i] (i < n - 1 ? "," : "")
    print "  ]"
    print "}"
}' "$RAW" > "$OUT"

echo "wrote $OUT" >&2

if [[ -n "$COMPARE" ]]; then
    compare_allocs "$COMPARE" "$OUT"
fi
