// Package hrit implements a faithful-in-spirit codec for the HRIT/LRIT
// segment files the MSG ground station emits (CGMS 03 "LRIT/HRIT Global
// Specification" structure): a sequence of typed header records followed
// by a 10-bit-packed image data field, optionally compressed with a
// lossless integer wavelet (Haar lifting) stage — the "wavelet compressed
// images" of the paper's Section 2. One SEVIRI acquisition is split into
// several segments that may arrive out of order; Assemble reassembles
// them into the full image array.
package hrit

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
	"time"

	"repro/internal/array"
)

// Header record types, following the CGMS numbering where applicable.
const (
	headerPrimary    = 0
	headerImageStruc = 1
	headerImageNav   = 2
	headerTimestamp  = 5
	headerAnnotation = 4
)

const fileMagic = uint16(0xAE17)

// SegmentHeader carries the metadata of one HRIT segment file. The
// SEVIRI Monitor's first job in the paper is extracting exactly this
// metadata into a catalog, because "one image comprises multiple raw
// files, which might arrive out-of-order".
type SegmentHeader struct {
	ProductName   string // e.g. "MSG2-SEVIRI"
	Channel       string // "IR_039" or "IR_108"
	SegmentNo     int    // 1-based
	TotalSegments int
	Columns       int // full image width
	Lines         int // lines in this segment
	FirstLine     int // offset of this segment's first line in the image
	BitsPerPixel  int
	Compressed    bool
	Timestamp     time.Time // acquisition start (UTC)
}

// Segment is a decoded HRIT segment: header plus raw 10-bit counts.
type Segment struct {
	Header SegmentHeader
	// Counts holds Lines×Columns raw detector counts in row-major order,
	// each in [0, 1023].
	Counts []uint16
}

// Encode serialises a segment into the HRIT wire format.
func Encode(seg Segment) ([]byte, error) {
	h := seg.Header
	if len(seg.Counts) != h.Columns*h.Lines {
		return nil, fmt.Errorf("hrit: %d counts for %dx%d segment", len(seg.Counts), h.Columns, h.Lines)
	}
	for _, c := range seg.Counts {
		if c > 1023 {
			return nil, fmt.Errorf("hrit: count %d exceeds 10-bit range", c)
		}
	}

	var data []byte
	if h.Compressed {
		data = compressWavelet(seg.Counts, h.Columns, h.Lines)
	} else {
		data = pack10(seg.Counts)
	}

	var buf bytes.Buffer
	be := binary.BigEndian

	writeHeader := func(typ uint8, body []byte) {
		// Record: type(1) length(2 = total record length) body.
		var rec [3]byte
		rec[0] = typ
		be.PutUint16(rec[1:], uint16(3+len(body)))
		buf.Write(rec[:])
		buf.Write(body)
	}

	// Primary header (type 0): magic, file type, total header length
	// (patched below), data field length in bits.
	primary := make([]byte, 16)
	be.PutUint16(primary[0:], fileMagic)
	primary[2] = 0 // file type: image data
	be.PutUint64(primary[8:], uint64(len(data))*8)
	writeHeader(headerPrimary, primary)

	// Image structure (type 1).
	struc := make([]byte, 12)
	struc[0] = uint8(h.BitsPerPixel)
	be.PutUint16(struc[1:], uint16(h.Columns))
	be.PutUint16(struc[3:], uint16(h.Lines))
	if h.Compressed {
		struc[5] = 1
	}
	be.PutUint32(struc[6:], uint32(h.FirstLine))
	writeHeader(headerImageStruc, struc)

	// Image navigation (type 2): projection tag (geostationary).
	writeHeader(headerImageNav, []byte("GEOS(+009.5)"))

	// Annotation (type 4): product, channel, segment numbering.
	ann := fmt.Sprintf("%s|%s|%03d|%03d", h.ProductName, h.Channel, h.SegmentNo, h.TotalSegments)
	writeHeader(headerAnnotation, []byte(ann))

	// Timestamp (type 5): unix nanoseconds.
	ts := make([]byte, 8)
	be.PutUint64(ts, uint64(h.Timestamp.UTC().UnixNano()))
	writeHeader(headerTimestamp, ts)

	// Patch total header length into primary header (bytes 4:8 of body,
	// located 3 bytes into the stream).
	total := uint32(buf.Len())
	out := buf.Bytes()
	be.PutUint32(out[3+4:], total)

	return append(out, data...), nil
}

// DecodeHeader parses only the header records — the vault's metadata scan
// path, which must not pay for pixel decompression.
func DecodeHeader(raw []byte) (SegmentHeader, int, error) {
	be := binary.BigEndian
	var h SegmentHeader
	pos := 0
	totalHeader := -1
	seenPrimary := false
	for pos+3 <= len(raw) {
		typ := raw[pos]
		recLen := int(be.Uint16(raw[pos+1 : pos+3]))
		if recLen < 3 || pos+recLen > len(raw) {
			return h, 0, fmt.Errorf("hrit: corrupt header record at offset %d", pos)
		}
		body := raw[pos+3 : pos+recLen]
		switch typ {
		case headerPrimary:
			if len(body) < 16 || be.Uint16(body[0:]) != fileMagic {
				return h, 0, fmt.Errorf("hrit: bad magic")
			}
			totalHeader = int(be.Uint32(body[4:]))
			seenPrimary = true
		case headerImageStruc:
			if len(body) < 12 {
				return h, 0, fmt.Errorf("hrit: short image structure header")
			}
			h.BitsPerPixel = int(body[0])
			h.Columns = int(be.Uint16(body[1:]))
			h.Lines = int(be.Uint16(body[3:]))
			h.Compressed = body[5] == 1
			h.FirstLine = int(be.Uint32(body[6:]))
		case headerAnnotation:
			var seg, tot int
			parts := bytes.Split(body, []byte("|"))
			if len(parts) != 4 {
				return h, 0, fmt.Errorf("hrit: malformed annotation %q", body)
			}
			h.ProductName = string(parts[0])
			h.Channel = string(parts[1])
			if _, err := fmt.Sscanf(string(parts[2]), "%d", &seg); err != nil {
				return h, 0, fmt.Errorf("hrit: bad segment number %q", parts[2])
			}
			if _, err := fmt.Sscanf(string(parts[3]), "%d", &tot); err != nil {
				return h, 0, fmt.Errorf("hrit: bad segment total %q", parts[3])
			}
			h.SegmentNo, h.TotalSegments = seg, tot
		case headerTimestamp:
			if len(body) < 8 {
				return h, 0, fmt.Errorf("hrit: short timestamp header")
			}
			h.Timestamp = time.Unix(0, int64(be.Uint64(body))).UTC()
		}
		pos += recLen
		if seenPrimary && pos == totalHeader {
			break
		}
	}
	if !seenPrimary {
		return h, 0, fmt.Errorf("hrit: missing primary header")
	}
	if totalHeader < 0 || totalHeader > len(raw) {
		return h, 0, fmt.Errorf("hrit: header length %d out of range", totalHeader)
	}
	return h, totalHeader, nil
}

// Decode parses a full segment, decompressing the pixel data.
func Decode(raw []byte) (Segment, error) {
	h, headerLen, err := DecodeHeader(raw)
	if err != nil {
		return Segment{}, err
	}
	data := raw[headerLen:]
	var counts []uint16
	if h.Compressed {
		counts, err = decompressWavelet(data, h.Columns, h.Lines)
		if err != nil {
			return Segment{}, err
		}
	} else {
		counts, err = unpack10(data, h.Columns*h.Lines)
		if err != nil {
			return Segment{}, err
		}
	}
	return Segment{Header: h, Counts: counts}, nil
}

// AssembleCounts reorders a full acquisition's segments (which may
// arrive in any order) and concatenates their counts into the complete
// image, columns wide and lines high. All segments must share channel,
// timestamp, column count and total, and each must start on the line
// after its predecessor's last.
func AssembleCounts(segs []Segment) (counts []uint16, columns, lines int, err error) {
	if len(segs) == 0 {
		return nil, 0, 0, fmt.Errorf("hrit: no segments")
	}
	ref := segs[0].Header
	if len(segs) != ref.TotalSegments {
		return nil, 0, 0, fmt.Errorf("hrit: %d of %d segments present", len(segs), ref.TotalSegments)
	}
	sorted := append([]Segment(nil), segs...)
	sort.Slice(sorted, func(i, j int) bool {
		return sorted[i].Header.SegmentNo < sorted[j].Header.SegmentNo
	})
	for i, s := range sorted {
		h := s.Header
		if h.Channel != ref.Channel || !h.Timestamp.Equal(ref.Timestamp) ||
			h.Columns != ref.Columns || h.TotalSegments != ref.TotalSegments {
			return nil, 0, 0, fmt.Errorf("hrit: segment %d does not belong to this acquisition", h.SegmentNo)
		}
		if h.SegmentNo != i+1 {
			return nil, 0, 0, fmt.Errorf("hrit: missing segment %d", i+1)
		}
		if h.FirstLine != lines {
			return nil, 0, 0, fmt.Errorf("hrit: segment %d starts at line %d, not %d", h.SegmentNo, h.FirstLine, lines)
		}
		lines += h.Lines
	}
	counts = make([]uint16, 0, ref.Columns*lines)
	for _, s := range sorted {
		counts = append(counts, s.Counts...)
	}
	return counts, ref.Columns, lines, nil
}

// Assemble is AssembleCounts as a float64 image of raw counts.
func Assemble(segs []Segment) (*array.Dense, error) {
	counts, columns, lines, err := AssembleCounts(segs)
	if err != nil {
		return nil, err
	}
	img := array.New(columns, lines)
	vals := img.Values()
	for i, c := range counts {
		vals[i] = float64(c)
	}
	return img, nil
}

// Split divides a full image of raw counts into n segments for encoding.
func Split(counts []uint16, columns int, n int, hdr SegmentHeader) ([]Segment, error) {
	if columns <= 0 || len(counts)%columns != 0 {
		return nil, fmt.Errorf("hrit: %d counts not divisible into %d columns", len(counts), columns)
	}
	lines := len(counts) / columns
	if n <= 0 || n > lines {
		return nil, fmt.Errorf("hrit: cannot split %d lines into %d segments", lines, n)
	}
	per := (lines + n - 1) / n
	var out []Segment
	for i := 0; i < n; i++ {
		first := i * per
		last := min(first+per, lines)
		if first >= last {
			break
		}
		h := hdr
		h.SegmentNo = i + 1
		h.TotalSegments = n
		h.Columns = columns
		h.Lines = last - first
		h.FirstLine = first
		h.BitsPerPixel = 10
		out = append(out, Segment{
			Header: h,
			Counts: append([]uint16(nil), counts[first*columns:last*columns]...),
		})
	}
	// The ceil division may produce fewer real segments than requested.
	for i := range out {
		out[i].Header.TotalSegments = len(out)
	}
	return out, nil
}

// pack10 packs 10-bit values: 4 counts into 5 bytes.
func pack10(counts []uint16) []byte {
	out := make([]byte, 0, (len(counts)*10+7)/8)
	var acc uint32
	bits := 0
	for _, c := range counts {
		acc = acc<<10 | uint32(c&0x3FF)
		bits += 10
		for bits >= 8 {
			bits -= 8
			out = append(out, byte(acc>>bits))
		}
	}
	if bits > 0 {
		out = append(out, byte(acc<<(8-bits)))
	}
	return out
}

func unpack10(data []byte, n int) ([]uint16, error) {
	if len(data)*8 < n*10 {
		return nil, fmt.Errorf("hrit: %d bytes cannot hold %d 10-bit counts", len(data), n)
	}
	out := make([]uint16, n)
	var acc uint32
	bits := 0
	di := 0
	for i := 0; i < n; i++ {
		for bits < 10 {
			acc = acc<<8 | uint32(data[di])
			di++
			bits += 8
		}
		bits -= 10
		out[i] = uint16(acc>>bits) & 0x3FF
	}
	return out, nil
}
