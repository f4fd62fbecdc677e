package hrit

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

// The lifting transform as it was before it lifted through one scratch
// plane per image: a slice per row and per column at every level. Kept
// verbatim (renamed only) as the oracle the in-place lifting must match
// coefficient for coefficient, so that encoded segment files stay
// byte-identical. The simulator's oracle encodes through the same
// Encode, so it cannot see a change here.

// oracleHaarForward applies the multi-level integer Haar lifting transform in
// place: each level transforms the current low-pass quadrant's rows then
// columns, leaving the Mallat layout (ss quadrant top-left).
func oracleHaarForward(c []int32, w, h int) {
	buf := make([]int32, max(w, h))
	for _, dims := range levelDims(w, h) {
		cw, ch := dims[0], dims[1]
		for y := 0; y < ch; y++ {
			row := buf[:cw]
			copy(row, c[y*w:y*w+cw])
			oracleLiftForward(row)
			copy(c[y*w:y*w+cw], row)
		}
		for x := 0; x < cw; x++ {
			col := buf[:ch]
			for y := 0; y < ch; y++ {
				col[y] = c[y*w+x]
			}
			oracleLiftForward(col)
			for y := 0; y < ch; y++ {
				c[y*w+x] = col[y]
			}
		}
	}
}

func oracleHaarInverse(c []int32, w, h int) {
	dims := levelDims(w, h)
	buf := make([]int32, max(w, h))
	for i := len(dims) - 1; i >= 0; i-- {
		cw, ch := dims[i][0], dims[i][1]
		for x := 0; x < cw; x++ {
			col := buf[:ch]
			for y := 0; y < ch; y++ {
				col[y] = c[y*w+x]
			}
			oracleLiftInverse(col)
			for y := 0; y < ch; y++ {
				c[y*w+x] = col[y]
			}
		}
		for y := 0; y < ch; y++ {
			row := buf[:cw]
			copy(row, c[y*w:y*w+cw])
			oracleLiftInverse(row)
			copy(c[y*w:y*w+cw], row)
		}
	}
}

// oracleLiftForward rearranges pairs (a, b) into low-pass s = a + floor(d/2)
// and high-pass d = b − a, laid out [s..., (odd tail), d...]. The odd
// tail sample joins the low-pass band so multi-level recursion covers it.
func oracleLiftForward(v []int32) {
	n := len(v) / 2
	if n == 0 {
		return
	}
	sLen := n + len(v)%2
	s := make([]int32, sLen)
	d := make([]int32, n)
	for i := 0; i < n; i++ {
		a, b := v[2*i], v[2*i+1]
		d[i] = b - a
		s[i] = a + (d[i] >> 1)
	}
	if len(v)%2 == 1 {
		s[n] = v[len(v)-1]
	}
	copy(v[:sLen], s)
	copy(v[sLen:], d)
}

func oracleLiftInverse(v []int32) {
	n := len(v) / 2
	if n == 0 {
		return
	}
	sLen := n + len(v)%2
	out := make([]int32, len(v))
	for i := 0; i < n; i++ {
		s, d := v[i], v[sLen+i]
		a := s - (d >> 1)
		b := a + d
		out[2*i], out[2*i+1] = a, b
	}
	if len(v)%2 == 1 {
		out[len(v)-1] = v[n]
	}
	copy(v, out)
}

// oracleCompressWavelet is compressWavelet over the oracle transform.
func oracleCompressWavelet(counts []uint16, w, h int) []byte {
	c := make([]int32, len(counts))
	for i, v := range counts {
		c[i] = int32(v)
	}
	oracleHaarForward(c, w, h)
	out := make([]byte, 0, len(c))
	var tmp [binary.MaxVarintLen32]byte
	for _, v := range c {
		n := binary.PutUvarint(tmp[:], zigzag(v))
		out = append(out, tmp[:n]...)
	}
	return out
}

// oracleShapes covers a single row and column (no level applies), odd
// sides (odd tails at every level), the service's segment shape and a
// square deep enough for all five levels.
var oracleShapes = [][2]int{{1, 17}, {17, 1}, {1, 1}, {2, 2}, {3, 2}, {7, 5}, {13, 11}, {164, 35}, {164, 34}, {64, 64}}

// noisyCounts draws every count uniformly from the 10-bit range, so
// high-pass coefficients of both signs and every parity occur.
func noisyCounts(n int, seed int64) []uint16 {
	r := rand.New(rand.NewSource(seed))
	out := make([]uint16, n)
	for i := range out {
		out[i] = uint16(r.Intn(1024))
	}
	return out
}

func TestWaveletMatchesOracle(t *testing.T) {
	for _, dims := range oracleShapes {
		w, h := dims[0], dims[1]
		for seed, counts := range [][]uint16{randomCounts(w*h, int64(w*h)), noisyCounts(w*h, int64(w+h))} {
			t.Run(fmt.Sprintf("%dx%d/%d", w, h, seed), func(t *testing.T) {
				got, want := make([]int32, w*h), make([]int32, w*h)
				for i, v := range counts {
					got[i], want[i] = int32(v), int32(v)
				}
				haarForward(got, w, h)
				oracleHaarForward(want, w, h)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("forward coefficient %d = %d, oracle %d", i, got[i], want[i])
					}
				}
				haarInverse(got, w, h)
				oracleHaarInverse(want, w, h)
				for i := range want {
					if got[i] != want[i] || got[i] != int32(counts[i]) {
						t.Fatalf("inverse sample %d = %d, oracle %d, count %d", i, got[i], want[i], counts[i])
					}
				}

				h0 := testHeader()
				h0.Columns, h0.Lines, h0.Compressed = w, h, true
				raw, err := Encode(Segment{Header: h0, Counts: counts})
				if err != nil {
					t.Fatal(err)
				}
				_, headerLen, err := DecodeHeader(raw)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(raw[headerLen:], oracleCompressWavelet(counts, w, h)) {
					t.Fatal("Encode's wavelet data differs from the oracle's")
				}
				seg, err := Decode(raw)
				if err != nil {
					t.Fatal(err)
				}
				for i := range counts {
					if seg.Counts[i] != counts[i] {
						t.Fatalf("Decode count %d = %d, want %d", i, seg.Counts[i], counts[i])
					}
				}
			})
		}
	}
}
