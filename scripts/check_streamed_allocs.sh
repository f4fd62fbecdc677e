#!/usr/bin/env bash
# Allocation gate for the batch execution engine: fails when a gated
# benchmark allocates more than 1.5x its committed baseline. allocs/op
# is scheduling-independent, so even the CI smoke benchtime measures it
# exactly — a regression here means a per-row allocation crept back
# into the batch pipeline.
#
# Gated benchmarks:
#   BenchmarkStreamedSelect/full/streamed (internal/strabon) — the
#     single-store streaming drain, the purest view of per-batch cost.
#   BenchmarkShardedQueries/single (internal/shard) — the join-heavy
#     spatial workload on one store: scan + hash join + spatial filter,
#     exercising the ID-native path end to end.
#   BenchmarkShardedQueries/sharded4 (internal/shard) — the same join
#     fanned out over composite static+slice views: what the serving
#     stack runs. A jump here means a composite source left ID space
#     (an intern or a closure per scanned triple).
#
# Baselines are committed next to the package they measure and hold the
# allocs/op of a -benchtime=3x run (short runs amortise plan compilation
# over fewer iterations, so the baseline must be measured the same way
# this script measures).
set -euo pipefail

fail=0

check() {
    local pkg="$1" bench="$2" baseline_file="$3"
    if [ ! -f "$baseline_file" ]; then
        echo "missing baseline file $baseline_file" >&2
        echo "run the bench once and commit its allocs/op:" >&2
        echo "  go test -run '^\$' -bench '$bench' -benchtime=3x -benchmem $pkg" >&2
        exit 1
    fi
    local baseline
    baseline=$(tr -dc 0-9 <"$baseline_file")
    [ -n "$baseline" ] || { echo "empty baseline in $baseline_file" >&2; exit 1; }

    local out
    out=$(go test -run '^$' -bench "$bench" -benchtime=3x -benchmem "$pkg")
    echo "$out"

    local allocs
    allocs=$(echo "$out" | awk -v b="${bench//\//\\/}" '$0 ~ b {
        for (i = 1; i <= NF; i++) if ($i == "allocs/op") print $(i-1)
    }' | head -1)
    [ -n "$allocs" ] || { echo "could not parse allocs/op for $bench" >&2; exit 1; }

    local limit=$((baseline * 3 / 2))
    if [ "$allocs" -gt "$limit" ]; then
        echo "FAIL: $bench allocs/op = $allocs exceeds $limit (baseline $baseline +50%)" >&2
        fail=1
    else
        echo "OK: $bench allocs/op = $allocs within $limit (baseline $baseline +50%)"
    fi
}

check ./internal/strabon 'BenchmarkStreamedSelect/full/streamed' \
    internal/strabon/testdata/streamed_select_allocs.baseline
check ./internal/shard 'BenchmarkShardedQueries/single' \
    internal/shard/testdata/sharded_single_allocs.baseline
check ./internal/shard 'BenchmarkShardedQueries/sharded4' \
    internal/shard/testdata/sharded_fanout_allocs.baseline

exit "$fail"
