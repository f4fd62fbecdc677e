package rdf

import (
	"fmt"
	"strings"
	"sync"
)

// Namespaces manages prefix -> IRI bindings for Turtle loads and for
// the stSPARQL parser. It is safe for concurrent use: strabon parses
// queries (which only read it) concurrently with Turtle loads (which
// may Bind new prefixes).
type Namespaces struct {
	mu       sync.RWMutex
	prefixes map[string]string
}

// NewNamespaces returns a namespace table preloaded with the vocabularies
// used by the paper's datasets.
func NewNamespaces() *Namespaces {
	return &Namespaces{prefixes: map[string]string{
		"rdf":   "http://www.w3.org/1999/02/22-rdf-syntax-ns#",
		"rdfs":  "http://www.w3.org/2000/01/rdf-schema#",
		"owl":   "http://www.w3.org/2002/07/owl#",
		"xsd":   "http://www.w3.org/2001/XMLSchema#",
		"strdf": "http://strdf.di.uoa.gr/ontology#",
		"noa":   "http://teleios.di.uoa.gr/ontologies/noaOntology.owl#",
		"clc":   "http://teleios.di.uoa.gr/ontologies/clcOntology.owl#",
		"coast": "http://teleios.di.uoa.gr/ontologies/coastlineOntology.owl#",
		"gag":   "http://teleios.di.uoa.gr/ontologies/gagOntology.owl#",
		"lgd":   "http://linkedgeodata.org/triplify/",
		"lgdo":  "http://linkedgeodata.org/ontology/",
		"gn":    "http://www.geonames.org/ontology#",
		"sweet": "http://sweet.jpl.nasa.gov/ontology/",
	}}
}

// Bind registers (or overrides) a prefix. Only Turtle loads bind: a
// query's PREFIX declarations bind for that request alone.
func (n *Namespaces) Bind(prefix, iri string) {
	n.mu.Lock()
	n.prefixes[prefix] = iri
	n.mu.Unlock()
}

// Expand resolves a prefixed name such as "noa:Hotspot" to a full IRI.
func (n *Namespaces) Expand(qname string) (string, error) {
	i := strings.Index(qname, ":")
	if i < 0 {
		return "", fmt.Errorf("rdf: %q is not a prefixed name", qname)
	}
	n.mu.RLock()
	base, ok := n.prefixes[qname[:i]]
	n.mu.RUnlock()
	if !ok {
		return "", fmt.Errorf("rdf: unknown prefix %q", qname[:i])
	}
	return base + qname[i+1:], nil
}
