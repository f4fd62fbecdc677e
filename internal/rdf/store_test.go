package rdf

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// refStore is the naive model the index is held to: the set of encoded
// triples, every question answered by a full scan.
type refStore map[EncodedTriple]struct{}

func (r refStore) match(sub, pred, obj ID) refStore {
	out := make(refStore)
	for t := range r {
		if (sub == Wildcard || t.S == sub) && (pred == Wildcard || t.P == pred) && (obj == Wildcard || t.O == obj) {
			out[t] = struct{}{}
		}
	}
	return out
}

// indexChecker drives a Store and a refStore through the same adds and
// removes over the IDs 1..ids and compares them after every step.
type indexChecker struct {
	t   testing.TB
	s   *Store
	ref refStore
	ids ID

	// spilled and unspilled count, per ordering (spo, pos, osp), the
	// steps that moved a touched set from its slice to a map and back.
	spilled, unspilled [3]int
}

func newIndexChecker(t testing.TB, ids ID) *indexChecker {
	s := NewStore()
	for i := ID(1); i <= ids; i++ {
		if s.Dict().Encode(NewIRI(fmt.Sprintf("http://e/%d", i))) != i {
			t.Fatal("dictionary IDs are not dense from 1")
		}
	}
	return &indexChecker{t: t, s: s, ref: make(refStore), ids: ids}
}

// bigness reports, per ordering, whether the sets tr touches are maps.
func (c *indexChecker) bigness(tr EncodedTriple) [3]bool {
	return [3]bool{c.s.spo[tr.S].big != nil, c.s.pos[tr.P][tr.O].big != nil, c.s.osp[tr.O].big != nil}
}

// apply adds or removes tr in both stores without comparing them.
func (c *indexChecker) apply(add bool, tr EncodedTriple) {
	c.t.Helper()
	was := c.bigness(tr)
	_, had := c.ref[tr]
	if add {
		if c.s.AddEncoded(tr) == had {
			c.t.Fatalf("AddEncoded(%v) reported new=%v with the triple present=%v", tr, !had, had)
		}
		c.ref[tr] = struct{}{}
	} else {
		if c.s.RemoveEncoded(tr) != had {
			c.t.Fatalf("RemoveEncoded(%v) reported present=%v, want %v", tr, !had, had)
		}
		delete(c.ref, tr)
	}
	for i, now := range c.bigness(tr) {
		switch {
		case now && !was[i]:
			c.spilled[i]++
		case was[i] && !now:
			c.unspilled[i]++
		}
	}
}

// check compares the store with the model around tr: the eight patterns
// tr's components make, the predicate and store cardinalities, and the
// subject set of (tr.P, tr.O).
func (c *indexChecker) check(tr EncodedTriple) {
	c.t.Helper()
	for mask := 0; mask < 8; mask++ {
		var sub, pred, obj ID
		if mask&4 != 0 {
			sub = tr.S
		}
		if mask&2 != 0 {
			pred = tr.P
		}
		if mask&1 != 0 {
			obj = tr.O
		}
		want := c.ref.match(sub, pred, obj)
		got := make(refStore)
		c.s.MatchIDs(sub, pred, obj, func(t EncodedTriple) bool {
			if _, dup := got[t]; dup {
				c.t.Fatalf("MatchIDs(%d, %d, %d) visited %v twice", sub, pred, obj, t)
			}
			got[t] = struct{}{}
			return true
		})
		if len(got) != len(want) {
			c.t.Fatalf("MatchIDs(%d, %d, %d) found %d triples, want %d", sub, pred, obj, len(got), len(want))
		}
		for t := range got {
			if _, ok := want[t]; !ok {
				c.t.Fatalf("MatchIDs(%d, %d, %d) found %v, which is not in the store", sub, pred, obj, t)
			}
		}
		if n := c.s.CountIDs(sub, pred, obj); n != len(want) {
			c.t.Fatalf("Count(%d, %d, %d) = %d, want %d", sub, pred, obj, n, len(want))
		}
	}

	subs, preds, objs := make(map[ID]bool), make(map[ID]bool), make(map[ID]bool)
	predSubs, predObjs := make(map[ID]bool), make(map[ID]bool)
	predTriples := 0
	for t := range c.ref {
		subs[t.S], preds[t.P], objs[t.O] = true, true, true
		if t.P == tr.P {
			predTriples++
			predSubs[t.S], predObjs[t.O] = true, true
		}
	}
	if n, ds, do := c.s.PredicateCard(tr.P); n != predTriples || ds != len(predSubs) || do != len(predObjs) {
		c.t.Fatalf("PredicateCard(%d) = (%d, %d, %d), want (%d, %d, %d)", tr.P, n, ds, do, predTriples, len(predSubs), len(predObjs))
	}
	if n, ds, dp, do := c.s.StoreCard(); n != len(c.ref) || ds != len(subs) || dp != len(preds) || do != len(objs) {
		c.t.Fatalf("StoreCard() = (%d, %d, %d, %d), want (%d, %d, %d, %d)", n, ds, dp, do, len(c.ref), len(subs), len(preds), len(objs))
	}

	set := c.s.SubjectSet(tr.P, tr.O)
	if set.Len() != len(c.ref.match(Wildcard, tr.P, tr.O)) {
		c.t.Fatalf("SubjectSet(%d, %d).Len() = %d", tr.P, tr.O, set.Len())
	}
	for sid := ID(1); sid <= c.ids; sid++ {
		if _, want := c.ref[EncodedTriple{sid, tr.P, tr.O}]; set.Has(sid) != want {
			c.t.Fatalf("SubjectSet(%d, %d).Has(%d) = %v, want %v", tr.P, tr.O, sid, !want, want)
		}
	}
}

// step applies one add or remove and checks the store around it.
func (c *indexChecker) step(add bool, tr EncodedTriple) {
	c.t.Helper()
	c.apply(add, tr)
	c.check(tr)
}

// TestIndexMatchesReference runs random add/remove sequences against the
// naive model. Each round grows many triples under one (predicate,
// object) pair — the subject sets and the object's pairs spill to maps —
// then removes them in random order until the sets are slices again, and
// does the same under one subject; a uniform mix over a small ID space
// runs between them.
func TestIndexMatchesReference(t *testing.T) {
	const ids = 120
	for seed := int64(1); seed <= 3; seed++ {
		r := rand.New(rand.NewSource(seed))
		c := newIndexChecker(t, ids)
		id := func(n int) ID { return ID(1 + r.Intn(n)) }
		for round := 0; round < 2; round++ {
			// Many subjects under few (predicate, object) pairs, then
			// many objects under few (subject, predicate) pairs.
			for _, wide := range []bool{false, true} {
				var space []EncodedTriple
				for a := ID(1); a <= ids; a++ {
					for p := ID(1); p <= 2; p++ {
						tr := EncodedTriple{a, p, 1}
						if wide {
							tr = EncodedTriple{1, p, a}
						}
						space = append(space, tr)
					}
				}
				for _, i := range r.Perm(len(space)) {
					c.step(r.Intn(10) != 0, space[i])
				}
				for _, i := range r.Perm(len(space)) {
					c.step(r.Intn(10) == 0, space[i])
				}
			}
			for i := 0; i < 400; i++ {
				c.step(r.Intn(2) == 0, EncodedTriple{id(10), id(3), id(10)})
			}
		}
		for i, name := range []string{"spo", "pos", "osp"} {
			if c.spilled[i] == 0 || c.unspilled[i] == 0 {
				t.Fatalf("seed %d: %s sets spilled %d and shrank back %d times; the sequence must cross the spill size both ways",
					seed, name, c.spilled[i], c.unspilled[i])
			}
		}
	}
}

// FuzzStoreOps decodes its input into adds and removes — single triples
// and runs of 80 that carry sets across the spill size — and holds the
// store to the naive model after every one.
func FuzzStoreOps(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 1, 3, 64, 2, 3})
	f.Add([]byte{128, 5, 1, 128 | 7, 128 | 1, 9, 192, 5, 1, 192 | 7, 128 | 1, 9})
	f.Add([]byte{128, 0, 0, 128 | 10, 0, 0, 192 | 40, 0, 0, 192, 128, 3, 64, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		const ids, run = 200, 80
		if len(data) > 3*64 {
			data = data[:3*64]
		}
		c := newIndexChecker(t, ids)
		for ; len(data) >= 3; data = data[3:] {
			kind, a, b := data[0]>>6, ID(data[0]&63), data[1]
			p, o := 1+ID(b&3), 1+ID(data[2])%(ids-run)
			tr := EncodedTriple{1 + a, p, o}
			if kind < 2 {
				c.step(kind == 0, tr)
				continue
			}
			// A run varies the subject (many subjects of one pair) or,
			// with b's top bit set, the object (many pairs of one subject).
			for i := ID(0); i < run; i++ {
				if b&128 == 0 {
					c.apply(kind == 2, EncodedTriple{1 + a + i, p, o})
				} else {
					c.apply(kind == 2, EncodedTriple{1 + a, p, o + i})
				}
			}
			c.check(tr)
		}
	})
}

// retainedStore loads a product-shaped triple set — 96 acquisitions of
// 40 hotspots, each with the NOA product's nine hotspot triples and five
// shapefile triples — into a fresh store. The triples themselves become
// garbage on return; only the store and its dictionary stay live.
func retainedStore() *Store {
	const noa = "http://teleios.di.uoa.gr/ontologies/noaOntology.owl#"
	iri := func(local string) Term { return NewIRI(noa + local) }
	typ := NewIRI(RDFType)
	s := NewStore()
	start := time.Date(2007, 8, 24, 10, 0, 0, 0, time.UTC)
	for acq := 0; acq < 96; acq++ {
		at := start.Add(time.Duration(acq) * 5 * time.Minute)
		when := NewDateTime(at.Format("2006-01-02T15:04:05"))
		shp := iri("Shapefile_MSG2_" + at.Format("20060102T150405"))
		var ts []Triple
		ts = append(ts,
			Triple{shp, typ, iri("Shapefile")},
			Triple{shp, iri("hasAcquisitionDateTime"), when},
			Triple{shp, iri("isDerivedFromSensor"), NewTypedLiteral("MSG2", XSDString)},
			Triple{shp, iri("isFromProcessingChain"), NewTypedLiteral("DynamicThresholds", XSDString)},
			Triple{shp, iri("hasFilename"), NewLiteral("HMSG_MSG2_" + at.Format("20060102_1504") + ".shp")},
		)
		for h := 0; h < 40; h++ {
			x, y := 21+float64(h%8)*0.05+float64(acq)*0.001, 37+float64(h/8)*0.05
			hs := iri(fmt.Sprintf("Hotspot_%d_%d", acq, h))
			confirmation := "unconfirmed"
			if h%3 == 0 {
				confirmation = "confirmed"
			}
			ts = append(ts,
				Triple{hs, typ, iri("Hotspot")},
				Triple{hs, iri("hasAcquisitionDateTime"), when},
				Triple{hs, iri("hasConfidence"), NewFloat(float64(h%5) / 4)},
				Triple{hs, iri("hasConfirmation"), iri(confirmation)},
				Triple{hs, NewIRI("http://strdf.di.uoa.gr/ontology#hasGeometry"), NewGeometry(fmt.Sprintf(
					"POLYGON ((%.5f %.5f, %.5f %.5f, %.5f %.5f, %.5f %.5f, %.5f %.5f))",
					x, y, x+0.04, y, x+0.04, y+0.04, x, y+0.04, x, y))},
				Triple{hs, iri("isDerivedFromSensor"), NewTypedLiteral("MSG2", XSDString)},
				Triple{hs, iri("isProducedBy"), iri("noa")},
				Triple{hs, iri("isFromProcessingChain"), NewTypedLiteral("DynamicThresholds", XSDString)},
				Triple{hs, iri("isExtractedFrom"), shp},
			)
		}
		for _, t := range ts {
			s.Add(t)
		}
	}
	return s
}

// BenchmarkStoreRetained reports the whole heap bytes a loaded store —
// index and dictionary — retains per triple after a GC: the figure a map
// per key pair would multiply.
func BenchmarkStoreRetained(b *testing.B) {
	var perTriple uint64
	for i := 0; i < b.N; i++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		s := retainedStore()
		runtime.GC()
		runtime.ReadMemStats(&after)
		perTriple = (after.HeapAlloc - before.HeapAlloc) / uint64(s.Len())
		runtime.KeepAlive(s)
	}
	b.ReportMetric(float64(perTriple), "B/triple")
}
