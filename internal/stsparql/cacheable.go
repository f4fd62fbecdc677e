package stsparql

// Result cacheability, decided on the parsed query. A query's materialised
// result may be served from a cache until the data it read mutates —
// but only if re-evaluating against the unchanged data would be
// obligated to produce the same rows. A nondeterministic builtin
// (Builtin.nondet, which the parser notes on the query) breaks that.
// SAMPLE returns the first value collected for the group, and
// collection order follows rdf.Store scan order — sorted within a small
// ID set, but Go map iteration across keys and inside a large set,
// randomised per run.
// Two evaluations at one generation may legitimately answer
// differently, so pinning one answer in a cache would silently freeze
// an arbitrary representative.
//
// Everything else the engine evaluates is a deterministic function of
// the source contents, which the generation vector pins. Store
// statistics are read at plan time only, and every query is planned
// for its own evaluation, so they rank joins without changing results.

// Cacheable reports whether a parsed query's result may be cached and
// replayed at an unchanged store generation. Update requests are never
// cacheable.
func Cacheable(q *Query) bool {
	return q != nil && q.Update == nil && !q.nondet
}
