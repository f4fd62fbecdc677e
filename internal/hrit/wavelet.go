package hrit

import (
	"encoding/binary"
	"fmt"
)

// This file implements the codec's compression stage: a multi-level
// lossless integer Haar wavelet (lifting scheme) in the Mallat layout,
// followed by zig-zag varint entropy coding. Natural imagery concentrates
// energy in the shrinking low-pass quadrant, so almost all coefficients
// are small high-pass values that varint-code to single bytes — the same
// rationale as the operational wavelet compression of the MSG
// dissemination chain.

// waveletLevels bounds the pyramid depth; beyond ~5 levels the low-pass
// band is already tiny for SEVIRI crop sizes.
const waveletLevels = 5

// compressWavelet transforms and entropy-codes a w×h count field.
func compressWavelet(counts []uint16, w, h int) []byte {
	c := make([]int32, len(counts))
	for i, v := range counts {
		c[i] = int32(v)
	}
	haarForward(c, w, h)
	out := make([]byte, 0, len(c))
	var tmp [binary.MaxVarintLen32]byte
	for _, v := range c {
		n := binary.PutUvarint(tmp[:], zigzag(v))
		out = append(out, tmp[:n]...)
	}
	return out
}

func decompressWavelet(data []byte, w, h int) ([]uint16, error) {
	n := w * h
	c := make([]int32, n)
	pos := 0
	for i := 0; i < n; i++ {
		v, used := binary.Uvarint(data[pos:])
		if used <= 0 {
			return nil, fmt.Errorf("hrit: truncated wavelet stream at coefficient %d", i)
		}
		pos += used
		c[i] = unzigzag(v)
	}
	haarInverse(c, w, h)
	out := make([]uint16, n)
	for i, v := range c {
		if v < 0 || v > 1023 {
			return nil, fmt.Errorf("hrit: wavelet reconstruction out of range (%d)", v)
		}
		out[i] = uint16(v)
	}
	return out, nil
}

func zigzag(v int32) uint64 {
	return uint64(uint32(v<<1) ^ uint32(v>>31))
}

func unzigzag(u uint64) int32 {
	return int32(uint32(u)>>1) ^ -int32(u&1)
}

// levelDims returns the pyramid of sub-rectangle sizes processed by the
// forward transform, largest first.
func levelDims(w, h int) [][2]int {
	var out [][2]int
	cw, ch := w, h
	for level := 0; level < waveletLevels && cw >= 2 && ch >= 2; level++ {
		out = append(out, [2]int{cw, ch})
		cw = (cw + 1) / 2
		ch = (ch + 1) / 2
	}
	return out
}

// haarForward applies the multi-level integer Haar lifting transform in
// place: each level transforms the current low-pass quadrant's rows then
// columns, leaving the Mallat layout (ss quadrant top-left). One scratch
// plane serves every level: a row lifts through its first cw values, the
// column pass through its first cw×ch.
func haarForward(c []int32, w, h int) {
	scratch := make([]int32, w*h)
	for _, dims := range levelDims(w, h) {
		cw, ch := dims[0], dims[1]
		for y := 0; y < ch; y++ {
			liftForward(c[y*w:y*w+cw], scratch)
		}
		liftColumnsForward(c, w, cw, ch, scratch)
	}
}

func haarInverse(c []int32, w, h int) {
	dims := levelDims(w, h)
	scratch := make([]int32, w*h)
	for i := len(dims) - 1; i >= 0; i-- {
		cw, ch := dims[i][0], dims[i][1]
		liftColumnsInverse(c, w, cw, ch, scratch)
		for y := 0; y < ch; y++ {
			liftInverse(c[y*w:y*w+cw], scratch)
		}
	}
}

// liftForward rearranges pairs (a, b) into low-pass s = a + floor(d/2)
// and high-pass d = b − a, laid out [s..., (odd tail), d...]. The odd
// tail sample joins the low-pass band so multi-level recursion covers it.
// tmp holds at least len(v) values.
func liftForward(v, tmp []int32) {
	n := len(v) / 2
	if n == 0 {
		return
	}
	sLen := n + len(v)%2
	for i := 0; i < n; i++ {
		a, b := v[2*i], v[2*i+1]
		d := b - a
		tmp[i], tmp[sLen+i] = a+(d>>1), d
	}
	if len(v)%2 == 1 {
		tmp[n] = v[len(v)-1]
	}
	copy(v, tmp[:len(v)])
}

func liftInverse(v, tmp []int32) {
	n := len(v) / 2
	if n == 0 {
		return
	}
	sLen := n + len(v)%2
	for i := 0; i < n; i++ {
		s, d := v[i], v[sLen+i]
		a := s - (d >> 1)
		tmp[2*i], tmp[2*i+1] = a, a+d
	}
	if len(v)%2 == 1 {
		tmp[len(v)-1] = v[n]
	}
	copy(v, tmp[:len(v)])
}

// liftColumnsForward lifts every column of the cw×ch quadrant of the
// w-wide plane c at once, a pair of rows at a time: rows 2r and 2r+1
// give low-band row r and high-band row sLen+r of tmp, which then
// replaces the quadrant. It is liftForward down each column.
func liftColumnsForward(c []int32, w, cw, ch int, tmp []int32) {
	n := ch / 2
	sLen := n + ch%2
	for r := 0; r < n; r++ {
		a, b := c[2*r*w:2*r*w+cw], c[(2*r+1)*w:(2*r+1)*w+cw]
		s, d := tmp[r*cw:(r+1)*cw], tmp[(sLen+r)*cw:(sLen+r+1)*cw]
		for x := range a {
			dx := b[x] - a[x]
			s[x], d[x] = a[x]+(dx>>1), dx
		}
	}
	if ch%2 == 1 {
		copy(tmp[n*cw:(n+1)*cw], c[(ch-1)*w:(ch-1)*w+cw])
	}
	for y := 0; y < ch; y++ {
		copy(c[y*w:y*w+cw], tmp[y*cw:(y+1)*cw])
	}
}

// liftColumnsInverse undoes liftColumnsForward: low-band row r and
// high-band row sLen+r give rows 2r and 2r+1.
func liftColumnsInverse(c []int32, w, cw, ch int, tmp []int32) {
	n := ch / 2
	sLen := n + ch%2
	for r := 0; r < n; r++ {
		s, d := c[r*w:r*w+cw], c[(sLen+r)*w:(sLen+r)*w+cw]
		a, b := tmp[2*r*cw:(2*r+1)*cw], tmp[(2*r+1)*cw:(2*r+2)*cw]
		for x := range s {
			ax := s[x] - (d[x] >> 1)
			a[x], b[x] = ax, ax+d[x]
		}
	}
	if ch%2 == 1 {
		copy(tmp[(ch-1)*cw:ch*cw], c[n*w:n*w+cw])
	}
	for y := 0; y < ch; y++ {
		copy(c[y*w:y*w+cw], tmp[y*cw:(y+1)*cw])
	}
}
