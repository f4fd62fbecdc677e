package hrit_test

import (
	"testing"
	"time"

	"repro/internal/auxdata"
	"repro/internal/hrit"
	"repro/internal/seviri"
)

// BenchmarkDecodeAcquisition decodes one simulated midday acquisition,
// two channels of four compressed segments each, and assembles each
// channel's counts: the work of a vault cache miss. The allocation gate
// reads its allocs/op and B/op.
func BenchmarkDecodeAcquisition(b *testing.B) {
	cfg := seviri.DefaultScenarioConfig()
	cfg.Days = 1
	sim := seviri.NewSimulator(seviri.GenerateScenario(auxdata.Generate(42), 43, cfg))
	acq, err := sim.Acquire(seviri.MSG1, cfg.Start.Add(12*time.Hour), 4, true)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, ch := range []string{hrit.ChannelIR039, hrit.ChannelIR108} {
			files := acq.Segments[ch]
			segs := make([]hrit.Segment, len(files))
			for j, raw := range files {
				if segs[j], err = hrit.Decode(raw); err != nil {
					b.Fatal(err)
				}
			}
			if _, _, _, err := hrit.AssembleCounts(segs); err != nil {
				b.Fatal(err)
			}
		}
	}
}
