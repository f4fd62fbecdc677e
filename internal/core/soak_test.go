package core

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/refine"
	"repro/internal/seviri"
	"repro/internal/shard"
)

// raceDetector is set by race_test.go in -race builds.
var raceDetector bool

// soakBlock is the soak's reporting unit: 48 MSG1 acquisitions, four
// hours of service.
const soakBlock = 48

// TestSoak services two days of MSG1 acquisitions (576 Steps, one day
// under -short or -race) the way the service runs, and prints one row
// per block of 48: the median ms of each stage and rule, the store's
// triples and dictionary bytes, the live heap after a GC and the vault's
// retained raw bytes. It asserts on counts, never on times:
//
//   - no virtual hotspot is minted at an acquisition whose Time
//     Persistence window holds no detection;
//   - the vault never retains the raw bytes of more than 2 × capacity
//     (channel, time) keys;
//   - on day 2, a block in which the chain detected nothing (the night)
//     grows the live heap by at most 1 MB.
//
// Run the full two days with `go test -run TestSoak -v ./internal/core`.
func TestSoak(t *testing.T) {
	days := 2
	if testing.Short() || raceDetector {
		days = 1
	}
	cfg := seviri.DefaultScenarioConfig()
	cfg.Days = days
	svc, err := NewServiceWithStore(7, cfg, shard.New(shard.Config{Slices: 1}))
	if err != nil {
		t.Fatal(err)
	}
	window := svc.Refiner.PersistenceWindow
	times := seviri.AcquisitionTimes(seviri.MSG1, cfg.Start, time.Duration(days)*24*time.Hour)
	// The stages in service order: downlink and vault attach together,
	// the chain, then the store and each rule.
	stages := []string{"front", "chain", "store", "muni", "sea", "fires", "coast", "persist"}
	ruleStage := map[refine.Op]string{
		refine.OpStore: "store", refine.OpMunicipalities: "muni", refine.OpDeleteInSea: "sea",
		refine.OpInvalidForFires: "fires", refine.OpRefineInCoast: "coast", refine.OpTimePersistence: "persist",
	}

	t.Logf("%5s %5s %4s %4s | %s | %7s %7s %6s %7s", "block", "start", "raw", "virt",
		strings.Join(stages, " "), "triples", "dictKB", "heapMB", "vaultKB")
	heapMB := liveHeapMB()
	var pairBytes int64 // the largest acquisition's two channels, raw
	for b := 0; b*soakBlock < len(times); b++ {
		block := times[b*soakBlock : min((b+1)*soakBlock, len(times))]
		ms := make(map[string][]float64)
		raw, virtual := 0, 0
		for _, at := range block {
			read := svc.Vault.Stats().BytesRead
			start := time.Now()
			rep, err := svc.Step(seviri.MSG1, at)
			if err != nil {
				t.Fatal(err)
			}
			wall := time.Since(start)
			pairBytes = max(pairBytes, svc.Vault.Stats().BytesRead-read)

			back := time.Duration(0)
			for _, op := range rep.RefineOps {
				ms[ruleStage[op.Op]] = append(ms[ruleStage[op.Op]], millis(op.Duration))
				back += op.Duration
			}
			ms["chain"] = append(ms["chain"], millis(rep.ChainTime))
			ms["front"] = append(ms["front"], millis(wall-rep.ChainTime-back))
			raw += rep.RawHotspot

			n := virtualHotspotsAt(t, svc, at)
			virtual += n
			if n > 0 && detectionsIn(svc.Reports, at.Add(-window), at) == 0 {
				t.Errorf("%s: %d virtual hotspots minted, but [%s, %s) holds no detection",
					at.Format(time.RFC3339), n, at.Add(-window).Format("15:04"), at.Format("15:04"))
			}
			if st := svc.Vault.Stats(); st.RetainedBytes > int64(svc.Vault.Capacity())*pairBytes {
				t.Errorf("%s: vault retains %d raw bytes, more than 2 × %d keys (%d)",
					at.Format(time.RFC3339), st.RetainedBytes, svc.Vault.Capacity(), int64(svc.Vault.Capacity())*pairBytes)
			}
		}
		prev := heapMB
		heapMB = liveHeapMB()
		_, dictBytes := svc.Strabon.DictStats()
		var meds []string
		for _, s := range stages {
			meds = append(meds, fmt.Sprintf("%*.2f", len(s), median(ms[s])))
		}
		t.Logf("%5d %5s %4d %4d | %s | %7d %7.1f %6.2f %7.1f", b, block[0].Format("15:04"), raw, virtual,
			strings.Join(meds, " "), svc.Strabon.Len(), float64(dictBytes)/1024, heapMB,
			float64(svc.Vault.Stats().RetainedBytes)/1024)
		if block[0].Sub(cfg.Start) >= 24*time.Hour && raw == 0 && heapMB-prev > 1 {
			t.Errorf("block %d (%s, no detection): heap grew %.2f MB over %d acquisitions, want at most 1 MB",
				b, block[0].Format(time.RFC3339), heapMB-prev, len(block))
		}
	}
}

// virtualHotspotsAt counts the virtual hotspots Time Persistence minted
// for the acquisition at `at`.
func virtualHotspotsAt(t *testing.T, svc *Service, at time.Time) int {
	t.Helper()
	res, err := svc.Refiner.CurrentHotspots(at)
	if err != nil {
		t.Fatal(err)
	}
	n, hc := 0, res.Col("h")
	for _, row := range res.Rows {
		if strings.Contains(row[hc].Value, "_persist") {
			n++
		}
	}
	return n
}

// detectionsIn sums the chain's detections over the reports in
// [from, to).
func detectionsIn(reports []AcquisitionReport, from, to time.Time) int {
	n := 0
	for _, r := range reports {
		if !r.At.Before(from) && r.At.Before(to) {
			n += r.RawHotspot
		}
	}
	return n
}

func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/2]
}
