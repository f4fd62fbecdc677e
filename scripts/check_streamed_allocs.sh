#!/usr/bin/env bash
# Allocation gates. For the batch execution engine: fails when a gated
# benchmark allocates more than 1.5x its committed allocs/op baseline.
# allocs/op is scheduling-independent, so even the CI smoke benchtime
# measures it exactly — a regression here means a per-row allocation
# crept back into the batch pipeline.
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
# Byte gates for the acquisition's front half: B/op, limit 1.1x. These
# benchmarks run one deterministic stage each (no free-running writer),
# so B/op repeats to 0.01 % and a 10 % rise is a temporary per pixel or
# per operator crept back in.
#
#   BenchmarkTable2SciQLChain (root package) — vault load, crop,
#     georeference and the Figure 4 query over recycled temporaries.
#   BenchmarkSimulatorAcquire (internal/seviri) — the downlink
#     simulator, its grid-only scene part computed once per simulator.
#
# Baselines are committed next to the package they measure and hold the
# allocs/op (or B/op) of a -benchtime=3x run (short runs amortise plan
# compilation over fewer iterations, so the baseline must be measured the
# same way this script measures).
set -euo pipefail

fail=0

# check PKG BENCH BASELINE_FILE UNIT NUM DEN: fails when BENCH's UNIT
# (allocs/op or B/op) exceeds the baseline times NUM/DEN.
check() {
    local pkg="$1" bench="$2" baseline_file="$3" unit="${4:-allocs/op}" num="${5:-3}" den="${6:-2}"
    if [ ! -f "$baseline_file" ]; then
        echo "missing baseline file $baseline_file" >&2
        echo "run the bench once and commit its $unit:" >&2
        echo "  go test -run '^\$' -bench '$bench' -benchtime=3x -benchmem $pkg" >&2
        exit 1
    fi
    local baseline
    baseline=$(tr -dc 0-9 <"$baseline_file")
    [ -n "$baseline" ] || { echo "empty baseline in $baseline_file" >&2; exit 1; }

    local out
    out=$(go test -run '^$' -bench "$bench" -benchtime=3x -benchmem "$pkg")
    echo "$out"

    local got
    got=$(echo "$out" | awk -v b="${bench//\//\\/}" -v u="$unit" '$0 ~ b {
        for (i = 1; i <= NF; i++) if ($i == u) print $(i-1)
    }' | head -1)
    [ -n "$got" ] || { echo "could not parse $unit for $bench" >&2; exit 1; }

    local limit=$((baseline * num / den))
    if [ "$got" -gt "$limit" ]; then
        echo "FAIL: $bench $unit = $got exceeds $limit (baseline $baseline x $num/$den)" >&2
        fail=1
    else
        echo "OK: $bench $unit = $got within $limit (baseline $baseline x $num/$den)"
    fi
}

check ./internal/strabon 'BenchmarkStreamedSelect/full/streamed' \
    internal/strabon/testdata/streamed_select_allocs.baseline
check ./internal/shard 'BenchmarkShardedQueries/single' \
    internal/shard/testdata/sharded_single_allocs.baseline
check ./internal/shard 'BenchmarkShardedQueries/sharded4' \
    internal/shard/testdata/sharded_fanout_allocs.baseline
check . 'BenchmarkTable2SciQLChain' \
    testdata/table2_sciql_chain_bytes.baseline B/op 11 10
check ./internal/seviri 'BenchmarkSimulatorAcquire' \
    internal/seviri/testdata/simulator_acquire_bytes.baseline B/op 11 10

exit "$fail"
