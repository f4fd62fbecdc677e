# Local invocations of exactly what CI runs (.github/workflows/ci.yml),
# so the two can't drift.

GO ?= go

.PHONY: build test soak fuzz bench bench-endpoint bench-stream bench-shard bench-batch alloc-gate lint fmt

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...
	$(GO) test -shuffle=on ./...
	$(GO) test -race -count=2 -run 'TestEndpointConcurrent|TestConcurrentEndpointSmoke|TestEndpointStreamsDuringWrites|TestWriteTransactionsBesideQueries|TestGeometryParsedOncePerTerm|TestUpdateEffectInStoreIDs|TestRequestLabelsBounded|TestRecordedBodyConcurrentHits' ./internal/strabon
	$(GO) test -race -count=2 -run 'TestShardStreamsDuringWrites|TestShardedPipelineMatchesSingle|TestNoPartialRefinementVisible|TestShardResultCacheInvalidation|TestTimeRangeDifferential|TestClassWindowMatchesTypeProbe|TestWindowNarrowingKeepsCrossMemberSubjects|TestShardZonedTimeLiteral|TestShardCacheRefusesZonedLexicalWindow|TestReaderComputesWhatWriterInterns|TestWindowedCursorLocksOnlyItsSlices' ./internal/shard
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# Two days of MSG1 Steps (576 acquisitions) with a per-block table of
# stage and rule medians, store triples, dictionary bytes, live heap and
# retained vault bytes; what CI's soak step runs.
soak:
	$(GO) test -run TestSoak -v ./internal/core

# Fuzz smoke: each target mutates its corpus for 15 s. The geometry
# target holds the predicate kernel to the oracle copies in
# internal/geom/oracle_test.go, the evaluator target the SciQL evaluator
# to internal/sciql/oracle_test.go, the row-writer target the SPARQL-JSON
# encoder to internal/strabon/results_oracle_test.go; the dictionary
# target checks encode/decode round trips, and the parse target that any
# text the stSPARQL parser accepts plans and routes without a panic; the
# store target holds the triple index to a naive set of triples.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzIntersectsMatchesOracle -fuzztime 15s ./internal/geom
	$(GO) test -run '^$$' -fuzz FuzzEvaluatorMatchesOracle -fuzztime 15s ./internal/sciql
	$(GO) test -run '^$$' -fuzz FuzzDictionaryRoundTrip -fuzztime 15s ./internal/rdf
	$(GO) test -run '^$$' -fuzz FuzzStoreOps -fuzztime 15s ./internal/rdf
	$(GO) test -run '^$$' -fuzz FuzzJSONRowWriter -fuzztime 15s ./internal/strabon
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime 15s ./internal/shard
	$(GO) test -run '^$$' -fuzz FuzzTermRoundTrip -fuzztime 15s ./internal/stsparql

# Full benchmark sweep of the root package; CI runs every one of these
# benchmarks once (-benchtime=1x) plus the served-query and
# streamed-select smokes.
bench:
	$(GO) test -run '^$$' -bench . -benchmem .

# Concurrent endpoint read throughput across core counts.
bench-endpoint:
	$(GO) test -run '^$$' -bench 'BenchmarkServedQueries' -cpu 1,4,8 ./internal/strabon

# Cursor-path allocation behaviour: materialised vs streamed vs LIMIT
# pushdown over a 10k-row SELECT.
bench-stream:
	$(GO) test -run '^$$' -bench 'BenchmarkStreamedSelect' -benchmem ./internal/strabon

# One-slice vs four-slice cost of the time-constrained join, one
# live-slice write per query, and the heavy ordered four-slice join.
bench-shard:
	$(GO) test -run '^$$' -bench 'BenchmarkShardedQueries|BenchmarkOrderedWindowJoin' -benchmem ./internal/shard

# Batch-engine allocation behaviour: the fully-drained streamed SELECT
# and the windowed shard join, with -benchmem — the two workloads the
# columnar pipeline is measured on.
bench-batch:
	$(GO) test -run '^$$' -bench 'BenchmarkStreamedSelect' -benchmem ./internal/strabon
	$(GO) test -run '^$$' -bench 'BenchmarkShardedQueries' -benchmem ./internal/shard

# Fails if a gated benchmark's allocs/op regresses above its committed
# baseline (what CI runs; see the script for the factors): full/streamed
# and the cached replay in internal/strabon, both cases of the
# sharded-queries join and the ordered window join in internal/shard;
# and if the front half's B/op rises 1.1x above its baseline: the SciQL
# chain (root package), the downlink simulator (internal/seviri) and the
# HRIT decode (internal/hrit, allocs/op as well); and if
# the triple store retains 1.1x more bytes per triple than its baseline
# (internal/rdf).
alloc-gate:
	./scripts/check_streamed_allocs.sh

lint:
	@fmt=$$(gofmt -l .); if [ -n "$$fmt" ]; then \
		echo "gofmt needed on:"; echo "$$fmt"; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./cmd/reprolint ./...

fmt:
	gofmt -w .
