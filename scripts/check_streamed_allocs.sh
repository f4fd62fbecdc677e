#!/usr/bin/env bash
# Allocation gates. For the batch execution engine: fails when a gated
# benchmark allocates more than its committed allocs/op baseline times a
# factor — 1.5x for the streamed select, 1.1x for the rest. Every gate
# runs at GOMAXPROCS 1, so the runtime's own allocations repeat and
# allocs/op is exact even at the CI smoke benchtime; a regression means
# a per-row allocation crept back.
#
# Gated benchmarks:
#   BenchmarkStreamedSelect/full/streamed (internal/strabon) — the
#     streaming drain of strabon.New(), the one-slice store, the purest
#     view of per-batch cost.
#   BenchmarkCachedReplay (internal/strabon) — a result-cache hit through
#     the endpoint over 100 rows, the serving tier's hot path: request
#     parsing and the write of the entry's recorded JSON body; of the
#     three timed hits, the first renders the snapshot through the JSON
#     encoder and records that body.
#   BenchmarkShardedQueries/sharded1 (internal/shard) — the join-heavy
#     spatial workload on a one-slice store, one live-slice write per
#     query: the store every program runs by default, which skips
#     routing and evaluates once over the union view.
#   BenchmarkShardedQueries/sharded4 (internal/shard) — the same join
#     on four slices, its window pruned to one: one evaluation over the
#     composite view of the static member and that slice, what the
#     serving stack runs. A jump here means a composite source left ID
#     space (an intern or a closure per scanned triple).
#   BenchmarkOrderedWindowJoin (internal/shard) — the heavy cold request:
#     a new window join with ORDER BY over all four slices, one
#     evaluation over the five-member view through the order operator.
#   BenchmarkPreparedGroupedSelect (internal/stsparql) — a prepared
#     grouped SELECT over a seed row, shaped like the refinement's Time
#     Persistence query: seed encoding, the aggregate operator (member
#     rows as indices into one owned batch; COUNT of a variable reads
#     its ID column) and materialisation.
#   BenchmarkFigure4/day and /night (internal/sciql) — the Figure 4
#     classification query alone at the service grid: selections,
#     deferred subquery columns and the summed-area tables they build.
#     A jump here means a per-operator or per-cell temporary crept back.
#
# Byte gates for the acquisition's front half: B/op, limit 1.1x. These
# benchmarks run one deterministic stage each (no free-running writer),
# so B/op repeats to 0.01 % and a 10 % rise is a temporary per pixel or
# per operator crept back in.
#
#   BenchmarkTable2SciQLChain (root package) — vault load, crop,
#     georeference and the Figure 4 query over recycled temporaries:
#     input arrays adopted, not copied, Figure 4 parsed once per chain,
#     both channels georeferenced in one pass.
#   BenchmarkSimulatorAcquire (internal/seviri) — the downlink
#     simulator, its grid-only scene part and its warp computed once per
#     simulator.
#   BenchmarkDecodeAcquisition (internal/hrit) — a vault cache miss: one
#     simulated acquisition's eight compressed segments decoded and each
#     channel's counts assembled. Gated on allocs/op too (limit 1.1x): the
#     wavelet lifts through one scratch plane per segment, so a slice per
#     row or column creeping back shows as thousands.
#
# A retained-memory gate: B/triple, limit 1.1x. The benchmark loads a
# product-shaped triple set and reports the whole heap bytes the store
# (index and dictionary) retains per triple after a GC, so a map per
# key pair creeping back into the index shows as a multiple.
#
#   BenchmarkStoreRetained (internal/rdf) — 96 acquisitions of 40
#     hotspots under the NOA product's shape.
#
# Baselines are committed next to the package they measure and hold the
# allocs/op (or B/op) of a -benchtime=3x -cpu 1 run (short runs amortise plan
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
        echo "  go test -run '^\$' -bench '$bench' -benchtime=3x -benchmem -cpu 1 $pkg" >&2
        exit 1
    fi
    local baseline
    baseline=$(tr -dc 0-9 <"$baseline_file")
    [ -n "$baseline" ] || { echo "empty baseline in $baseline_file" >&2; exit 1; }

    local out
    out=$(go test -run '^$' -bench "$bench" -benchtime=3x -benchmem -cpu 1 "$pkg")
    echo "$out"

    local got
    got=$(echo "$out" | awk -v b="${bench//\//\\/}" -v u="$unit" '$0 ~ b {
        for (i = 1; i <= NF; i++) if ($i == u) print $(i-1)
    }' | head -1)
    [ -n "$got" ] || { echo "could not parse $unit for $bench" >&2; exit 1; }
    # A custom metric prints with a decimal part; gated ones are whole.
    got=${got%.*}

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
check ./internal/strabon 'BenchmarkCachedReplay' \
    internal/strabon/testdata/cached_replay_allocs.baseline allocs/op 11 10
check ./internal/shard 'BenchmarkShardedQueries/sharded1' \
    internal/shard/testdata/sharded_one_allocs.baseline allocs/op 11 10
check ./internal/shard 'BenchmarkShardedQueries/sharded4' \
    internal/shard/testdata/sharded_fanout_allocs.baseline allocs/op 11 10
check ./internal/shard 'BenchmarkOrderedWindowJoin' \
    internal/shard/testdata/ordered_window_join_allocs.baseline allocs/op 11 10
check ./internal/stsparql 'BenchmarkPreparedGroupedSelect' \
    internal/stsparql/testdata/prepared_grouped_select_allocs.baseline allocs/op 11 10
check ./internal/sciql 'BenchmarkFigure4/day' \
    internal/sciql/testdata/figure4_day_allocs.baseline allocs/op 11 10
check ./internal/sciql 'BenchmarkFigure4/night' \
    internal/sciql/testdata/figure4_night_allocs.baseline allocs/op 11 10
check . 'BenchmarkTable2SciQLChain' \
    testdata/table2_sciql_chain_bytes.baseline B/op 11 10
check ./internal/seviri 'BenchmarkSimulatorAcquire' \
    internal/seviri/testdata/simulator_acquire_bytes.baseline B/op 11 10
check ./internal/hrit 'BenchmarkDecodeAcquisition' \
    internal/hrit/testdata/decode_acquisition_bytes.baseline B/op 11 10
check ./internal/hrit 'BenchmarkDecodeAcquisition' \
    internal/hrit/testdata/decode_acquisition_allocs.baseline allocs/op 11 10
check ./internal/rdf 'BenchmarkStoreRetained' \
    internal/rdf/testdata/store_retained_bytes.baseline B/triple 11 10

exit "$fail"
