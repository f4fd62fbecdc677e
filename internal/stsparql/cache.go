package stsparql

import (
	"sync"

	"repro/internal/geom"
	"repro/internal/rdf"
)

// Cache is a store's table of parsed geometries, bound to the store's
// dictionary: a geometry literal is parsed the first time it is indexed
// or read, and kept by its term ID for the dictionary's life (a store ID
// names one term for as long as the dictionary lives). The store's
// R-tree takes its envelopes from it and every evaluator over the store
// reads it, so a literal held by thousands of triples parses once, and
// an ID lookup hashes one integer instead of the whole text. Terms
// without a store ID — query constants, terms an evaluation computed,
// bare WKT strings — are kept by text. A malformed literal is never
// kept: it errors at every read. The cache is safe for concurrent use:
// a store's read-locked evaluations fill it beside its writer (see
// strabon's locking discipline).
type Cache struct {
	dict *rdf.Dictionary // the dictionary ids' keys are IDs of
	mu   sync.RWMutex
	ids  map[rdf.ID]geom.Geometry
	text map[string]geom.Geometry
}

// NewCache returns an empty cache over dict's term IDs.
func NewCache(dict *rdf.Dictionary) *Cache {
	return &Cache{dict: dict, ids: make(map[rdf.ID]geom.Geometry), text: make(map[string]geom.Geometry)}
}

// Size reports the number of parsed geometries, by term ID and by text.
func (c *Cache) Size() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.ids) + len(c.text)
}

// Geometry returns the geometry of term id's lexical form, parsing it
// on the first read.
func (c *Cache) Geometry(id rdf.ID) (geom.Geometry, error) {
	c.mu.RLock()
	g, ok := c.ids[id]
	c.mu.RUnlock()
	if ok {
		return g, nil
	}
	g, err := geom.ParseWKT(c.dict.Decode(id).Value)
	if err != nil {
		return nil, err
	}
	//lint:allow lockdiscipline fill-on-miss on the shared geometry cache's own mutex, not a store lock; held only for one map insert
	c.mu.Lock()
	c.ids[id] = g
	c.mu.Unlock()
	return g, nil
}

// parse is Geometry for a text without a store ID.
func (c *Cache) parse(wkt string) (geom.Geometry, error) {
	c.mu.RLock()
	g, ok := c.text[wkt]
	c.mu.RUnlock()
	if ok {
		return g, nil
	}
	g, err := geom.ParseWKT(wkt)
	if err != nil {
		return nil, err
	}
	//lint:allow lockdiscipline fill-on-miss on the shared geometry cache's own mutex, not a store lock; held only for one map insert
	c.mu.Lock()
	c.text[wkt] = g
	c.mu.Unlock()
	return g, nil
}

// NewEvaluatorWithCache returns an evaluator over src that shares the
// geometry cache of src's dictionary. The evaluator itself is still
// single-goroutine. A cache bound to another dictionary would answer
// IDs with the wrong terms' geometries: it panics.
func NewEvaluatorWithCache(src Source, cache *Cache) *Evaluator {
	if cache.dict != src.Dict() {
		panic("stsparql: geometry cache bound to another dictionary than the source's")
	}
	e := &Evaluator{src: src, cache: cache, dict: &execDict{store: src.Dict()}}
	e.spatial, _ = src.(SpatialSource)
	e.timed, _ = src.(TimeRangeSource)
	return e
}
