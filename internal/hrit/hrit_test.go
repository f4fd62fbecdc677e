package hrit

import (
	"math/rand"
	"testing"
	"time"
)

func testHeader() SegmentHeader {
	return SegmentHeader{
		ProductName:  "MSG2-SEVIRI",
		Channel:      ChannelIR039,
		BitsPerPixel: 10,
		Timestamp:    time.Date(2010, 8, 22, 12, 5, 0, 0, time.UTC),
	}
}

func randomCounts(n int, seed int64) []uint16 {
	r := rand.New(rand.NewSource(seed))
	out := make([]uint16, n)
	// Smooth field + noise: representative of thermal imagery.
	for i := range out {
		base := 400 + 100*((i/64)%5)
		out[i] = uint16((base + r.Intn(40)) % 1024)
	}
	return out
}

func TestPack10RoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 3, 4, 5, 64, 1000} {
		counts := randomCounts(n, int64(n))
		packed := pack10(counts)
		back, err := unpack10(packed, n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i := range counts {
			if counts[i] != back[i] {
				t.Fatalf("n=%d: count %d drifted %d -> %d", n, i, counts[i], back[i])
			}
		}
	}
}

func TestUnpack10Truncated(t *testing.T) {
	if _, err := unpack10([]byte{0xFF}, 4); err == nil {
		t.Fatal("truncated data should error")
	}
}

func TestWaveletRoundTrip(t *testing.T) {
	for _, dims := range [][2]int{{8, 8}, {7, 5}, {1, 9}, {16, 3}, {64, 64}} {
		w, h := dims[0], dims[1]
		counts := randomCounts(w*h, int64(w*100+h))
		data := compressWavelet(counts, w, h)
		back, err := decompressWavelet(data, w, h)
		if err != nil {
			t.Fatalf("%dx%d: %v", w, h, err)
		}
		for i := range counts {
			if counts[i] != back[i] {
				t.Fatalf("%dx%d: coefficient %d drifted %d -> %d", w, h, i, counts[i], back[i])
			}
		}
	}
}

func TestWaveletCompressesSmoothImagery(t *testing.T) {
	// A smooth field should compress below the packed-10-bit size.
	w, h := 64, 64
	counts := make([]uint16, w*h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			counts[y*w+x] = uint16(500 + x/8 + y/8)
		}
	}
	compressed := len(compressWavelet(counts, w, h))
	packed := len(pack10(counts))
	if compressed >= packed {
		t.Fatalf("wavelet (%d bytes) not smaller than packed (%d bytes)", compressed, packed)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, compressed := range []bool{false, true} {
		h := testHeader()
		h.Columns = 32
		h.Lines = 16
		h.SegmentNo = 2
		h.TotalSegments = 4
		h.FirstLine = 16
		h.Compressed = compressed
		seg := Segment{Header: h, Counts: randomCounts(32*16, 77)}
		raw, err := Encode(seg)
		if err != nil {
			t.Fatal(err)
		}
		back, err := Decode(raw)
		if err != nil {
			t.Fatal(err)
		}
		if back.Header != h {
			t.Fatalf("header drifted:\n%+v\n%+v", back.Header, h)
		}
		for i := range seg.Counts {
			if seg.Counts[i] != back.Counts[i] {
				t.Fatalf("count %d drifted", i)
			}
		}
	}
}

func TestDecodeHeaderOnly(t *testing.T) {
	h := testHeader()
	h.Columns = 16
	h.Lines = 8
	h.SegmentNo = 1
	h.TotalSegments = 1
	seg := Segment{Header: h, Counts: randomCounts(16*8, 3)}
	raw, err := Encode(seg)
	if err != nil {
		t.Fatal(err)
	}
	got, headerLen, err := DecodeHeader(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.Channel != ChannelIR039 || got.Columns != 16 || got.Lines != 8 {
		t.Fatalf("header = %+v", got)
	}
	if headerLen <= 0 || headerLen >= len(raw) {
		t.Fatalf("headerLen = %d of %d", headerLen, len(raw))
	}
	if !got.Timestamp.Equal(h.Timestamp) {
		t.Fatalf("timestamp = %v", got.Timestamp)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	for _, raw := range [][]byte{
		nil,
		{1, 2},
		{0, 0, 19, 0xFF, 0xFF, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, // wrong magic
	} {
		if _, err := Decode(raw); err == nil {
			t.Fatalf("garbage %v decoded", raw)
		}
	}
}

func TestEncodeValidatesCounts(t *testing.T) {
	h := testHeader()
	h.Columns, h.Lines = 2, 1
	if _, err := Encode(Segment{Header: h, Counts: []uint16{1}}); err == nil {
		t.Fatal("short counts should fail")
	}
	if _, err := Encode(Segment{Header: h, Counts: []uint16{1, 2000}}); err == nil {
		t.Fatal("11-bit count should fail")
	}
}

func TestSplitAssembleRoundTrip(t *testing.T) {
	w, lines := 24, 30
	counts := randomCounts(w*lines, 11)
	segs, err := Split(counts, w, 4, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 4 {
		t.Fatalf("split into %d segments", len(segs))
	}
	// Shuffle to simulate out-of-order arrival.
	shuffled := []Segment{segs[2], segs[0], segs[3], segs[1]}
	img, err := Assemble(shuffled)
	if err != nil {
		t.Fatal(err)
	}
	if img.Width() != w || img.Height() != lines {
		t.Fatalf("assembled dims %dx%d", img.Width(), img.Height())
	}
	for y := 0; y < lines; y++ {
		for x := 0; x < w; x++ {
			if img.Get(x, y) != float64(counts[y*w+x]) {
				t.Fatalf("cell (%d,%d) drifted", x, y)
			}
		}
	}
}

func TestAssembleDetectsMissingSegment(t *testing.T) {
	counts := randomCounts(24*30, 12)
	segs, _ := Split(counts, 24, 3, testHeader())
	if _, err := Assemble(segs[:2]); err == nil {
		t.Fatal("missing segment should fail")
	}
	// Mixing acquisitions fails.
	other, _ := Split(counts, 24, 3, func() SegmentHeader {
		h := testHeader()
		h.Timestamp = h.Timestamp.Add(5 * time.Minute)
		return h
	}())
	if _, err := Assemble([]Segment{segs[0], segs[1], other[2]}); err == nil {
		t.Fatal("mixed acquisitions should fail")
	}
	// A segment whose first line does not follow its predecessor's last
	// (past the image, or over an earlier segment) fails.
	for _, first := range []int{1000, 0} {
		moved := append([]Segment(nil), segs...)
		moved[2].Header.FirstLine = first
		if _, err := Assemble(moved); err == nil {
			t.Fatalf("segment 3 at line %d should fail", first)
		}
	}
}

func TestSplitValidation(t *testing.T) {
	if _, err := Split(make([]uint16, 10), 3, 1, testHeader()); err == nil {
		t.Fatal("non-divisible counts should fail")
	}
	if _, err := Split(make([]uint16, 12), 4, 9, testHeader()); err == nil {
		t.Fatal("more segments than lines should fail")
	}
}

func TestCalibrationRoundTrip(t *testing.T) {
	for _, ch := range []string{ChannelIR039, ChannelIR108} {
		cal, err := CalibrationFor(ch)
		if err != nil {
			t.Fatal(err)
		}
		for _, temp := range []float64{200, 250, 300, 330} {
			count := cal.TempToCount(temp)
			back := cal.CountToTemp(count)
			if diff := back - temp; diff > cal.Slope || diff < -cal.Slope {
				t.Fatalf("%s: %g K -> %d -> %g K", ch, temp, count, back)
			}
		}
		// Clamping.
		if cal.TempToCount(-100) != 0 || cal.TempToCount(10000) != 1023 {
			t.Fatal("clamping broken")
		}
	}
	if _, err := CalibrationFor("VIS_006"); err == nil {
		t.Fatal("unknown channel should fail")
	}
}

func TestCalibrationFireRange(t *testing.T) {
	// The 3.9 µm band must represent both 290 K background and >340 K
	// fire pixels distinguishably.
	cal, _ := CalibrationFor(ChannelIR039)
	bg := cal.TempToCount(290)
	fire := cal.TempToCount(340)
	if fire-bg < 100 {
		t.Fatalf("insufficient dynamic range: %d vs %d", bg, fire)
	}
}
