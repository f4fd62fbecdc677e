package main

import (
	"testing"
)

func TestSameSeedSameInputs(t *testing.T) {
	for _, wl := range workloads {
		a, b, c := inputsDigest(11, wl.name), inputsDigest(11, wl.name), inputsDigest(12, wl.name)
		if a != b {
			t.Errorf("%s: seed 11 gave two different input lists", wl.name)
		}
		if a == c {
			t.Errorf("%s: seeds 11 and 12 gave the same input list", wl.name)
		}
	}
}

func TestColdTextsUniqueWithinRun(t *testing.T) {
	for _, wl := range workloads {
		seen := make(map[string]bool)
		cold := 0
		for _, blk := range requestBlocks(newOpSource(5), wl.name) {
			for _, list := range blk {
				for _, o := range list {
					if !o.class.cold() {
						continue
					}
					cold++
					if seen[o.text] {
						t.Fatalf("%s: cold text sent twice:\n%s", wl.name, o.text)
					}
					seen[o.text] = true
				}
			}
		}
		if wl.name != "serve-hot" && cold == 0 {
			t.Errorf("%s: no cold request generated", wl.name)
		}
	}
}

// margin is how far percentile p lies from the nearest edge of its
// class, in percentage points of the mix.
func (m mix) margin(p float64) float64 {
	cum := 0.0
	for _, share := range m {
		lo := cum
		cum += float64(share)
		if p < cum {
			return min(p-lo, cum-p)
		}
	}
	return 0
}

// Each reported percentile must fall in the interior of one class, or a
// few requests changing class move it.
func TestPercentilesInsideClasses(t *testing.T) {
	for _, tc := range []struct {
		name     string
		m        mix
		p50, p95 class
	}{
		{"hot", mixHot, hotMedium, hotLarge},
		{"cold", mixCold, coldLight, coldHeavy},
		{"live", mixLive, hotMedium, coldMedium},
		{"reference", mixReference, hotMedium, coldHeavy},
	} {
		total := 0
		for _, s := range tc.m {
			total += s
		}
		if total != 100 {
			t.Errorf("%s: shares sum to %d", tc.name, total)
		}
		if got := tc.m.classAt(50); got != tc.p50 {
			t.Errorf("%s: p50 falls in %s, want %s", tc.name, got, tc.p50)
		}
		if got := tc.m.classAt(95); got != tc.p95 {
			t.Errorf("%s: p95 falls in %s, want %s", tc.name, got, tc.p95)
		}
		if m := tc.m.margin(50); m < 10 {
			t.Errorf("%s: p50 is %.0f points from a class edge, want >= 10", tc.name, m)
		}
		if m := tc.m.margin(95); m != 5 {
			t.Errorf("%s: p95 is %.0f points from a class edge, want the middle of a 10 %% class", tc.name, m)
		}
	}
}

func TestBlocksMeetTheirShares(t *testing.T) {
	src := newOpSource(3)
	for _, tc := range []struct {
		m mix
		n int
	}{{mixHot, hotBlock}, {mixCold, coldBlock}, {mixReference, referenceBlock}, {mixLive, liveRequestList}} {
		for _, list := range src.block(tc.m, serveClients, tc.n, 0) {
			var got [numClasses]int
			for _, o := range list {
				got[o.class]++
			}
			for c, share := range tc.m {
				if got[c] != tc.n*share/100 {
					t.Errorf("class %s: %d of %d requests, want %d %%", class(c), got[c], tc.n, share)
				}
			}
		}
	}
}

func TestWritesAreDeterministic(t *testing.T) {
	blk := newOpSource(3).block(mixHot, serveClients, hotBlock, hotWriteEvery)
	writes := 0
	for i, o := range blk[0] {
		if (o.write > 0) != ((i+1)%hotWriteEvery == 0) {
			t.Fatalf("request %d of client 0: write=%d", i, o.write)
		}
		if o.write > 0 {
			writes++
		}
	}
	for _, o := range blk[1] {
		if o.write > 0 {
			t.Fatal("client 1 writes")
		}
	}
	if writes != hotBlock/hotWriteEvery {
		t.Errorf("%d writes, want %d", writes, hotBlock/hotWriteEvery)
	}
}

func TestHotTextsAvoidTheWriteSlice(t *testing.T) {
	for _, span := range []int{1, 3} {
		for _, h := range hotHours(span) {
			for k := 0; k < span; k++ {
				if (h+k)%storeSlices == writeSlice {
					t.Errorf("hot window of %d h from hour %d reads slice %d", span, h, writeSlice)
				}
			}
		}
	}
	if got := int(writePin.Sub(archiveStart).Hours()) % storeSlices; got != writeSlice {
		t.Errorf("writePin lands in slice %d, want %d", got, writeSlice)
	}
}
