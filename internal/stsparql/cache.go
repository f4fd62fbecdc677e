package stsparql

// Cache is a shareable geometry-parse cache. A store that runs many
// queries against the same datasets (the refinement loop re-reads the
// same coastline literals on every acquisition) should create one Cache
// and hand it to every evaluator instead of letting each evaluator
// re-parse WKT.
type Cache struct {
	inner *geomCache
}

// NewCache returns an empty shared cache.
func NewCache() *Cache { return &Cache{inner: newGeomCache()} }

// Size reports the number of cached geometries, by text and by term ID.
func (c *Cache) Size() int {
	c.inner.mu.RLock()
	defer c.inner.mu.RUnlock()
	return len(c.inner.geoms) + len(c.inner.ids)
}

// NewEvaluatorWithCache returns an evaluator over src that shares the
// given geometry cache. The evaluator itself is still single-goroutine.
func NewEvaluatorWithCache(src Source, cache *Cache) *Evaluator {
	if cache == nil {
		return NewEvaluator(src)
	}
	return newEvaluator(src, cache.inner)
}
