package main

import (
	"math"
	"testing"
)

func TestBestBlockAndMedian(t *testing.T) {
	if got := best([]float64{3, 100, 2}, false); got != 2 {
		t.Errorf("best time of three blocks = %v", got)
	}
	if got := best([]float64{3, 100, 2}, true); got != 100 {
		t.Errorf("best rate of three blocks = %v", got)
	}
	if got := median([]float64{3, 100, 2}); got != 3 {
		t.Errorf("median of three = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v", got)
	}
}

func TestPercentileGuard(t *testing.T) {
	v := make([]float64, 600)
	for i := range v {
		v[i] = float64(i)
	}
	p95, err := percentile(v, 95)
	if err != nil || p95 != 570 {
		t.Errorf("p95 of 0..599 = %v, %v", p95, err)
	}
	if _, err := percentile(v[:220], 95); err != nil {
		t.Errorf("p95 of 220 samples has 10 beyond it: %v", err)
	}
	if _, err := percentile(v[:200], 95); err == nil {
		t.Error("p95 of 200 samples has 9 beyond it and must be refused")
	}
}

func TestBlockSizes(t *testing.T) {
	const minBlock = 600 // requests per block, all clients
	for name, perClient := range map[string]int{"hot": hotBlock, "cold": coldBlock, "reference": referenceBlock} {
		n := perClient * serveClients
		if n < minBlock {
			t.Errorf("%s block has %d requests, want >= %d", name, n, minBlock)
		}
		if beyond := n - 1 - int(0.95*float64(n)); beyond < 29 {
			t.Errorf("%s block: p95 has %d samples beyond it, want about 30", name, beyond)
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	v := []float64{10.2, 9.8, 10.0, 10.5, 9.9, 10.1, 10.3, 9.7, 10.4, 10.6}
	q1, q3 := quartiles(v)
	if math.Abs(q1-9.875) > 1e-9 || math.Abs(q3-10.425) > 1e-9 {
		t.Errorf("quartiles = %v, %v; Python gives 9.875, 10.425", q1, q3)
	}
	if got, want := spread(v), (10.425-9.875)/10.15; math.Abs(got-want) > 1e-9 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestDeriveBound(t *testing.T) {
	for _, tc := range []struct{ widest, want float64 }{
		{0.004, 0.05}, // the floor
		{0.03, 0.06},
		{0.0451, 0.10}, // rounded up to a whole percent
		{0.13, 0.26},   // above the ceiling: selfcheck refuses to write it
	} {
		if got := deriveBound(tc.widest); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("deriveBound(%v) = %v, want %v", tc.widest, got, tc.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{Trace: 1, ID: 1, Name: "step", Start: 0, End: 100e6},
		{Trace: 1, ID: 2, Parent: 1, Name: "chain", Start: 10e6, End: 40e6},
		{Trace: 1, ID: 3, Parent: 1, Name: "refine", Start: 40e6, End: 90e6},
		{Trace: 1, ID: 4, Parent: 3, Name: "update", Start: 50e6, End: 70e6},
	}
	self := tr.selfTimes()
	for name, want := range map[string]float64{"step": 20, "chain": 30, "refine": 30, "update": 20} {
		if got := self[name]; len(got) != 1 || got[0] != want {
			t.Errorf("self time of %s = %v, want %v", name, got, want)
		}
	}
}

func TestScannedPerRow(t *testing.T) {
	const analyzed = `shard fan-out: 2/4 slices [1 2] merge=concat (analyze)
  shard[1]:
    join[bind] {?h a Hotspot} est=576 (actual rows=576 batches=3 time=303µs)
    filter[pushed] x (actual rows=32 batches=3 time=1.37ms)
  shard[2]:
    join[bind] {?h a Hotspot} est=576 (actual rows=424 batches=3 time=303µs)
    project ?h (actual rows=8 batches=1 time=1.8ms)
merge[concat]: rows=40
total: rows=40 time=2.045ms
`
	if got := scannedPerRow(analyzed); got != 25 {
		t.Errorf("scannedPerRow = %v, want (576+424)/40", got)
	}
}
