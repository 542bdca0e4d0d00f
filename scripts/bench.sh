#!/usr/bin/env bash
# Runs the sparse-substrate benchmarks — CSR kernels, the sparse
# Cholesky factor/refactor/solve kernels and the tomo-level
# factor/refactor/estimate sweep at 1k/3k/100k links — and emits the
# results as BENCH_sparse.json at the repo root, so scaling regressions
# show up as a reviewable diff rather than a vibe. Also runs the
# streaming benchmark (batched estimates) into BENCH_stream.json the
# same way, and the churn benchmarks (epoch re-registration vs a
# session path round trip at 1k/10k links, with per-iteration p50/p95)
# into BENCH_churn.json.
#
# Usage: scripts/bench.sh [benchtime]
#   benchtime: go test -benchtime value (default 1x — each benchmark runs
#   once; the 100k cases are expensive enough that a single iteration is
#   already stable to a few percent).
set -euo pipefail
cd "$(dirname "$0")/.."

benchtime="${1:-1x}"
tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT

# emit_json RAW OUT: fold `go test -bench` output into a flat JSON map.
emit_json() {
    awk '
    BEGIN { print "{"; first = 1 }
    /^Benchmark/ {
        name = $1
        sub(/-[0-9]+$/, "", name)           # strip GOMAXPROCS suffix
        nsop = ""; bop = ""; allocs = ""; p50 = ""; p95 = ""; nsround = ""
        for (i = 2; i <= NF; i++) {
            if ($(i) == "ns/op")     nsop    = $(i-1)
            if ($(i) == "B/op")      bop     = $(i-1)
            if ($(i) == "allocs/op") allocs  = $(i-1)
            if ($(i) == "p50-ns")    p50     = $(i-1)
            if ($(i) == "p95-ns")    p95     = $(i-1)
            if ($(i) == "ns/round")  nsround = $(i-1)
        }
        if (nsop == "") next
        if (!first) printf ",\n"
        first = 0
        printf "  \"%s\": {\"ns_per_op\": %s", name, nsop
        if (bop != "")     printf ", \"bytes_per_op\": %s", bop
        if (allocs != "")  printf ", \"allocs_per_op\": %s", allocs
        if (p50 != "")     printf ", \"p50_ns\": %s", p50
        if (p95 != "")     printf ", \"p95_ns\": %s", p95
        if (nsround != "") printf ", \"ns_per_round\": %s", nsround
        printf "}"
    }
    END { print "\n}" }
    ' "$1" > "$2"
    echo "wrote $2 ($(grep -c ns_per_op "$2") benchmarks)"
}

go test -run='^$' -bench='Sparse|BenchmarkDenseFactor' -benchtime="$benchtime" \
    ./internal/sparse ./internal/tomo | tee "$tmp"
emit_json "$tmp" BENCH_sparse.json

go test -run='^$' -bench='BenchmarkEstimateBatch' -benchtime="$benchtime" \
    ./internal/tomo | tee "$tmp"
emit_json "$tmp" BENCH_stream.json

# Churn epoch routes: warm re-registration (evict + register, solver
# cache kept) vs a session paths round trip (two refactors), at 1k and
# 10k links. p50/p95 come from per-iteration timing inside
# the benchmarks; at -benchtime=1x they equal the single iteration.
go test -run='^$' -bench='BenchmarkChurnReregister|BenchmarkChurnMutate' -benchtime="$benchtime" \
    ./internal/serve | tee "$tmp"
emit_json "$tmp" BENCH_churn.json

# Observability: quantile-sketch insert/query, the full /metrics render
# with the forensic gauge families live, and the streaming-round hot
# path with the forensic observatory on vs off — the acceptance budget
# is < 5% regression for the "on" arm (compare the two ns/round
# figures in the JSON). Sub-benchmark quantiles/arms need real
# iteration counts, so this block floors benchtime at 500x.
obsbench="$benchtime"
case "$obsbench" in
    *x) [ "${obsbench%x}" -lt 500 ] && obsbench=500x ;;
esac
go test -run='^$' -bench='BenchmarkSketchInsert|BenchmarkSketchQuantile|BenchmarkForensicsIngest|BenchmarkMetricsRender|BenchmarkStreamRoundForensics' \
    -benchtime="$obsbench" ./internal/obs ./internal/forensics ./internal/serve | tee "$tmp"
awk '/BenchmarkStreamRoundForensics/ {
    for (i = 2; i <= NF; i++) if ($(i) == "ns/round") v[$1] = $(i-1)
}
END {
    on = ""; off = ""
    for (k in v) { if (k ~ /forensics=on/) on = v[k]; if (k ~ /forensics=off/) off = v[k] }
    if (on != "" && off != "" && off > 0)
        printf "forensics stream-round overhead: %.2f%% (on %s ns/round, off %s ns/round)\n", (on-off)/off*100, on, off
}' "$tmp"
emit_json "$tmp" BENCH_obs.json

# Cluster: estimate throughput through the router over a single shard
# vs a 3-group × 2-replica fleet (the routing + proxy overhead and the
# sharding win live in the gap), and failover-to-warm — primary dead to
# first successful read off the promoted follower. The failover bench
# boots a fleet per iteration, so it gets a fixed iteration count
# rather than inheriting a time-based benchtime.
go test -run='^$' -bench='BenchmarkClusterSingleShardEstimate|BenchmarkClusterThreeShardEstimate' \
    -benchtime="$benchtime" ./internal/cluster | tee "$tmp"
go test -run='^$' -bench='BenchmarkClusterFailoverToWarm' -benchtime=10x \
    ./internal/cluster | tee -a "$tmp"
emit_json "$tmp" BENCH_cluster.json
