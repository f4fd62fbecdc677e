package main

import (
	"fmt"
	"math/rand"
	"time"
)

// Query texts. The shapes are copied from internal/closedloop (not
// imported, so editing that package cannot change the load): the
// paper's dominant thematic query — hotspots of an acquisition window
// joined spatially against the municipalities — its per-municipality
// count, and a top-k listing.

func windowFilter(lo, hi time.Time) string {
	return fmt.Sprintf(`  FILTER( str(?at) >= "%s" )
  FILTER( str(?at) <= "%s" )`, lo.Format(timeFmt), hi.Format(timeFmt))
}

func windowJoin(lo, hi time.Time) string {
	return fmt.Sprintf(`SELECT ?h ?m WHERE {
  ?h a noa:Hotspot ; noa:hasAcquisitionDateTime ?at ; strdf:hasGeometry ?hg .
  ?m a gag:Municipality ; strdf:hasGeometry ?mg .
%s
  FILTER( strdf:anyInteract(?hg, ?mg) )
}`, windowFilter(lo, hi))
}

func windowJoinOrdered(lo, hi time.Time) string {
	return windowJoin(lo, hi) + "\nORDER BY ?h ?m"
}

func municipalityCount(lo, hi time.Time) string {
	return fmt.Sprintf(`SELECT ?m (COUNT(?h) AS ?n) WHERE {
  ?h a noa:Hotspot ; noa:hasAcquisitionDateTime ?at ; strdf:hasGeometry ?hg .
  ?m a gag:Municipality ; strdf:hasGeometry ?mg .
%s
  FILTER( strdf:anyInteract(?hg, ?mg) )
} GROUP BY ?m`, windowFilter(lo, hi))
}

func topK(lo, hi time.Time, k int) string {
	return fmt.Sprintf(`SELECT ?h ?at ?c WHERE {
  ?h a noa:Hotspot ; noa:hasAcquisitionDateTime ?at ; noa:hasConfidence ?c .
%s
}
ORDER BY DESC(str(?at)) ?h LIMIT %d`, windowFilter(lo, hi), k)
}

// latestCount is live-mixed's dashboard counter: every hotspot of the
// live window. Each acquisition writes into a slice it read, so each
// acquisition invalidates its cached answer.
func latestCount() string {
	return fmt.Sprintf(`SELECT (COUNT(?h) AS ?n) WHERE {
  ?h a noa:Hotspot ; noa:hasAcquisitionDateTime ?at .
  FILTER( str(?at) >= "%s" )
}`, liveFrom.Format(timeFmt))
}

// class names a group of requests whose cost is alike, so a percentile
// that falls inside one class does not move when a few requests do.
type class uint8

const (
	hotSmall   class = iota // cached: per-municipality count or top-k, a few rows
	hotMedium               // cached: one-hour window join
	hotLarge                // cached: three-hour window join
	latest                  // live-mixed's counter, invalidated by every acquisition
	coldLight               // unique: 10-minute window join, one slice
	coldMedium              // unique: one-hour count, two slices
	coldHeavy               // unique: four-hour ordered join, all slices
	numClasses
)

var classNames = [numClasses]string{"hot-small", "hot-medium", "hot-large", "latest", "cold-light", "cold-medium", "cold-heavy"}

func (c class) String() string { return classNames[c] }
func (c class) cold() bool     { return c >= coldLight }
func (c class) hot() bool      { return c <= hotLarge }

// mix is a request mix: the share of each class, in percent. Classes are
// listed cheapest first, so cumulative shares locate a percentile.
type mix [numClasses]int

var (
	// p50 at 50 lies inside hot-medium (30..90), p95 in the middle of
	// hot-large (90..100).
	mixHot = mix{hotSmall: 30, hotMedium: 60, hotLarge: 10}
	// p50 inside cold-light (0..70), p95 in the middle of cold-heavy
	// (90..100).
	mixCold = mix{coldLight: 70, coldMedium: 20, coldHeavy: 10}
	// live-mixed: 70 % hot, 10 % latest, 20 % cold. p50 inside
	// hot-medium (20..70); the top 10 % are one-hour evaluations
	// (cold-medium, joined by the hot-medium texts an acquisition has
	// just invalidated), and p95 lies in their middle.
	mixLive = mix{hotSmall: 20, hotMedium: 50, latest: 10, coldLight: 10, coldMedium: 10}
	// The reference serve phase archive-replay appends to report the
	// query metrics: p50 inside hot-medium (15..60), p95 in the middle
	// of cold-heavy (90..100).
	mixReference = mix{hotSmall: 15, hotMedium: 45, coldLight: 30, coldHeavy: 10}
)

// classAt returns the class holding percentile p (0..100) of the mix.
func (m mix) classAt(p float64) class {
	cum := 0.0
	for c, share := range m {
		cum += float64(share)
		if p < cum {
			return class(c)
		}
	}
	return numClasses - 1
}

// hotSet is the recurring thematic set: eight texts over historical
// hours. Every hour read lies in a slice other than writeSlice, so the
// serve workloads' writes invalidate none of them.
type hotSet struct {
	small, medium []string
	large         string
}

// hotHours lists the archive hours a hot text may ask about: not in
// writeSlice, and with the next two hours clear of it when span is 3.
func hotHours(span int) []int {
	var out []int
	for h := 0; h+span <= archiveHours; h++ {
		ok := true
		for k := 0; k < span; k++ {
			if (h+k)%storeSlices == writeSlice {
				ok = false
			}
		}
		if ok {
			out = append(out, h)
		}
	}
	return out
}

func newHotSet(r *rand.Rand) hotSet {
	hour := func(h, span int) (time.Time, time.Time) {
		lo := archiveStart.Add(time.Duration(h) * time.Hour)
		return lo, lo.Add(time.Duration(span)*time.Hour - time.Minute)
	}
	one := hotHours(1)
	pick := r.Perm(len(one))[:7]
	var hs hotSet
	for i, p := range pick {
		lo, hi := hour(one[p], 1)
		switch {
		case i < 3:
			hs.medium = append(hs.medium, windowJoin(lo, hi))
		case i < 5:
			hs.small = append(hs.small, municipalityCount(lo, hi))
		default:
			hs.small = append(hs.small, topK(lo, hi, 10))
		}
	}
	three := hotHours(3)
	lo, hi := hour(three[r.Intn(len(three))], 3)
	hs.large = windowJoin(lo, hi)
	return hs
}

func (hs hotSet) all() []string {
	out := append([]string{}, hs.small...)
	out = append(out, hs.medium...)
	return append(out, hs.large)
}

// coldSource hands out unique cold texts: every window starts a
// different whole number of seconds (1..coldSecondsRange) after a
// different archive product, so no two texts of a run are equal, and
// every window of a class covers the same number of products and
// slices: a light window stays inside one hour, a medium one always
// crosses into the next, a heavy one always reaches all four slices.
type coldSource struct {
	light, medium, heavy []int // shuffled (product, second) codes, consumed from the front
}

func newColdSource(r *rand.Rand) *coldSource {
	codes := func(maxHour int, slotOK func(int) bool) []int {
		var out []int
		for h := 0; h < maxHour; h++ {
			for slot := 0; slot < archivePerHour; slot++ {
				if !slotOK(slot) {
					continue
				}
				for s := 1; s <= coldSecondsRange; s++ {
					out = append(out, (h*archivePerHour+slot)*1000+s)
				}
			}
		}
		r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
	any := func(int) bool { return true }
	return &coldSource{
		// lo at minute 5*slot+s/60 <= 49, so lo+10min stays inside the hour.
		light:  codes(archiveHours, func(slot int) bool { return slot <= 8 }),
		medium: codes(archiveHours-2, any),
		heavy:  codes(archiveHours-5, any),
	}
}

func take(codes *[]int) (lo time.Time) {
	if len(*codes) == 0 {
		panic("benchmark: cold windows exhausted; block sizes exceed the archive")
	}
	c := (*codes)[0]
	*codes = (*codes)[1:]
	return archiveStart.Add(time.Duration(c/1000)*5*time.Minute + time.Duration(c%1000)*time.Second)
}

func (cs *coldSource) text(c class) string {
	switch c {
	case coldLight:
		lo := take(&cs.light)
		return windowJoin(lo, lo.Add(10*time.Minute))
	case coldMedium:
		lo := take(&cs.medium)
		return municipalityCount(lo, lo.Add(time.Hour))
	default:
		lo := take(&cs.heavy)
		return windowJoinOrdered(lo, lo.Add(4*time.Hour))
	}
}

// op is one request of a closed-loop client.
type op struct {
	class class
	text  string
	// write, when positive, is the number of the single-hotspot product
	// inserted into the live slice just before this request is sent.
	write int
}

// opSource generates request lists for one run.
type opSource struct {
	r      *rand.Rand
	hot    hotSet
	cold   *coldSource
	writes int
}

func newOpSource(seed int64) *opSource {
	r := rand.New(rand.NewSource(splitmix(seed, 3)))
	return &opSource{r: r, hot: newHotSet(r), cold: newColdSource(r)}
}

// block builds one block: n requests per client drawn from the mix in
// exact proportion (the shares are met per client, then shuffled), with
// client 0 writing before every writeEvery-th request when writeEvery>0.
func (s *opSource) block(m mix, clients, n, writeEvery int) [][]op {
	out := make([][]op, clients)
	for c := range out {
		ops := make([]op, 0, n)
		for cl, share := range m {
			for k := 0; k < n*share/100; k++ {
				ops = append(ops, op{class: class(cl)})
			}
		}
		for len(ops) < n { // rounding remainder goes to the mix's first class
			ops = append(ops, op{class: m.classAt(0)})
		}
		s.r.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
		for i := range ops {
			ops[i].text = s.text(ops[i].class)
			if c == 0 && writeEvery > 0 && (i+1)%writeEvery == 0 {
				s.writes++
				ops[i].write = s.writes
			}
		}
		out[c] = ops
	}
	return out
}

func (s *opSource) text(c class) string {
	switch c {
	case hotSmall:
		return s.hot.small[s.r.Intn(len(s.hot.small))]
	case hotMedium:
		return s.hot.medium[s.r.Intn(len(s.hot.medium))]
	case hotLarge:
		return s.hot.large
	case latest:
		return latestCount()
	default:
		return s.cold.text(c)
	}
}
