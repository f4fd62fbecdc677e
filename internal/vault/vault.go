// Package vault implements the data-vault mechanism of the paper (Ivanova,
// Kersten, Manegold — SSDBM 2012): external HRIT files are attached
// "as-is"; attaching only parses their header metadata into a catalog
// ("Extract and store the raw file metadata", the SEVIRI Monitor's first
// job). Pixel data is converted into SciQL arrays lazily, on the first
// query that touches an acquisition, and cached with LRU eviction. The
// vault registers the table function hrit_load_image(uri) with the SciQL
// engine, the function the paper's loading section describes.
//
// Files attached from disk stay on disk. Files attached from memory (the
// simulator's downlink) are held only until the vault no longer needs
// them: the raw bytes of the newest 2 × capacity acquisitions a Load has
// decoded are kept, older ones are released and keep only their headers.
// An acquisition no Load has decoded yet — one still in flight — is never
// released.
package vault

import (
	"container/list"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/array"
	"repro/internal/hrit"
	"repro/internal/obs"
	"repro/internal/sciql"
)

// Entry is one attached external file with its scanned metadata.
type Entry struct {
	Name   string // path or registered name
	Header hrit.SegmentHeader
	Size   int
	// raw holds the bytes for memory-attached files; nil means read from
	// disk at load time.
	raw []byte
}

// ErrReleased is returned (wrapped) by Load for an acquisition attached
// from memory whose raw bytes the vault has released and whose image is
// no longer cached.
var ErrReleased = errors.New("vault: acquisition released")

// acquisitionKey identifies one (product, channel, timestamp) image.
type acquisitionKey struct {
	Channel string
	Stamp   int64
}

// acquisition is the catalog record of one image: its segments, one per
// segment number, and whether its in-memory bytes were released.
type acquisition struct {
	segs     []Entry
	decoded  bool // a Load has assembled it at least once
	released bool
}

// Stats reports vault activity.
type Stats struct {
	Attached  int // files attached
	Loads     int // lazy materialisations performed
	CacheHits int
	CacheMiss int
	Evictions int
	BytesRead int64
	// RetainedBytes is the raw HRIT held in memory: every memory-attached
	// file not yet released.
	RetainedBytes int64
	// Released counts acquisitions whose in-memory bytes were dropped.
	Released int
}

// Vault is the external-file catalog with lazy array materialisation.
type Vault struct {
	mu   sync.Mutex
	acqs map[acquisitionKey]*acquisition

	cacheCap int
	cache    map[acquisitionKey]*list.Element
	lru      *list.List // of cacheItem

	// retained lists the decoded acquisitions that still hold in-memory
	// bytes, oldest decode first; at most 2 × cacheCap.
	retained []acquisitionKey

	stats Stats
}

type cacheItem struct {
	key acquisitionKey
	img *array.Dense
}

// New returns a vault caching up to capacity assembled acquisitions
// (per channel).
func New(capacity int) *Vault {
	if capacity < 1 {
		capacity = 1
	}
	return &Vault{
		acqs:     make(map[acquisitionKey]*acquisition),
		cacheCap: capacity,
		cache:    make(map[acquisitionKey]*list.Element),
		lru:      list.New(),
	}
}

// Capacity is the number of assembled acquisitions the cache holds; the
// raw bytes of twice as many decoded ones are retained.
func (v *Vault) Capacity() int { return v.cacheCap }

// AttachDir scans a directory for .hrit files and attaches them. Only
// headers are parsed; pixel data stays on disk.
func (v *Vault) AttachDir(dir string) (int, error) {
	des, err := os.ReadDir(dir)
	if err != nil {
		return 0, fmt.Errorf("vault: %w", err)
	}
	n := 0
	for _, de := range des {
		if de.IsDir() || !strings.HasSuffix(de.Name(), ".hrit") {
			continue
		}
		path := filepath.Join(dir, de.Name())
		raw, err := os.ReadFile(path)
		if err != nil {
			return n, fmt.Errorf("vault: %w", err)
		}
		if err := v.attach(path, raw, false); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// AttachBytes attaches an in-memory HRIT file (the simulator's output
// path; the operational deployment would write the same bytes to the
// ground-station spool directory).
func (v *Vault) AttachBytes(name string, raw []byte) error {
	return v.attach(name, raw, true)
}

// attach catalogs one segment file. A segment that arrives again (a
// ground-station retransmission) is already catalogued and is ignored.
func (v *Vault) attach(name string, raw []byte, keep bool) error {
	hdr, _, err := hrit.DecodeHeader(raw)
	if err != nil {
		return fmt.Errorf("vault: %s: %w", name, err)
	}
	e := Entry{Name: name, Header: hdr, Size: len(raw)}
	if keep {
		e.raw = raw
	}
	key := acquisitionKey{Channel: hdr.Channel, Stamp: hdr.Timestamp.UnixNano()}
	v.mu.Lock()
	defer v.mu.Unlock()
	a := v.acqs[key]
	if a == nil {
		a = &acquisition{}
		v.acqs[key] = a
	}
	for _, old := range a.segs {
		if old.Header.SegmentNo == hdr.SegmentNo {
			return nil
		}
	}
	a.segs = append(a.segs, e)
	v.stats.Attached++
	if keep {
		v.stats.RetainedBytes += int64(len(raw))
	}
	return nil
}

// Acquisitions lists the attached acquisition timestamps for a channel,
// sorted ascending.
func (v *Vault) Acquisitions(channel string) []time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	var out []time.Time
	for k := range v.acqs {
		if k.Channel == channel {
			out = append(out, time.Unix(0, k.Stamp).UTC())
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Before(out[j]) })
	return out
}

// Complete reports whether all segments of an acquisition have arrived:
// as many distinct segment numbers as the header's total (attach keeps
// one entry per segment number).
func (v *Vault) Complete(channel string, ts time.Time) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	a := v.acqs[acquisitionKey{Channel: channel, Stamp: ts.UnixNano()}]
	if a == nil || len(a.segs) == 0 {
		return false
	}
	return len(a.segs) == a.segs[0].Header.TotalSegments
}

// Stats returns a snapshot of vault statistics.
func (v *Vault) Stats() Stats {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.stats
}

// RegisterMetrics exports the vault's memory on a registry, read at
// scrape time: vault_retained_bytes and vault_released_total.
func (v *Vault) RegisterMetrics(reg *obs.Registry) {
	reg.NewGaugeFunc("vault_retained_bytes",
		"Raw HRIT bytes the vault holds in memory (memory-attached files not yet released).",
		func() float64 { return float64(v.Stats().RetainedBytes) })
	reg.NewCollectFunc("vault_released_total",
		"Acquisitions whose in-memory raw bytes the vault released.", "counter", nil,
		func() []obs.Sample { return []obs.Sample{{Value: float64(v.Stats().Released)}} })
}

// Load materialises the full image (raw counts) for an acquisition,
// assembling and decompressing its segments on first touch and serving
// the LRU cache afterwards. An acquisition whose in-memory bytes were
// released loads only while its image is cached; otherwise the error
// wraps ErrReleased.
func (v *Vault) Load(channel string, ts time.Time) (*array.Dense, error) {
	key := acquisitionKey{Channel: channel, Stamp: ts.UnixNano()}
	v.mu.Lock()
	if el, ok := v.cache[key]; ok {
		v.lru.MoveToFront(el)
		v.stats.CacheHits++
		img := el.Value.(cacheItem).img
		v.mu.Unlock()
		return img, nil
	}
	v.stats.CacheMiss++
	var entries []Entry
	released := false
	if a := v.acqs[key]; a != nil {
		entries = append(entries, a.segs...)
		released = a.released
	}
	v.mu.Unlock()

	if released {
		return nil, fmt.Errorf("vault: %s @ %s: %w", channel, ts.Format(time.RFC3339), ErrReleased)
	}
	if len(entries) == 0 {
		return nil, fmt.Errorf("vault: no segments for %s @ %s", channel, ts.Format(time.RFC3339))
	}
	segs := make([]hrit.Segment, 0, len(entries))
	var bytesRead int64
	for _, e := range entries {
		raw := e.raw
		if raw == nil {
			var err error
			raw, err = os.ReadFile(e.Name)
			if err != nil {
				return nil, fmt.Errorf("vault: %w", err)
			}
		}
		bytesRead += int64(len(raw))
		seg, err := hrit.Decode(raw)
		if err != nil {
			return nil, fmt.Errorf("vault: %s: %w", e.Name, err)
		}
		segs = append(segs, seg)
	}
	img, err := hrit.Assemble(segs)
	if err != nil {
		return nil, fmt.Errorf("vault: %w", err)
	}

	v.mu.Lock()
	v.stats.Loads++
	v.stats.BytesRead += bytesRead
	v.retain(key)
	// Concurrent misses on the same key both decode; only the first may
	// insert, or a duplicate lru element would later evict the live
	// cache mapping.
	if el, ok := v.cache[key]; ok {
		v.lru.MoveToFront(el)
		v.mu.Unlock()
		return el.Value.(cacheItem).img, nil
	}
	el := v.lru.PushFront(cacheItem{key: key, img: img})
	v.cache[key] = el
	for v.lru.Len() > v.cacheCap {
		oldest := v.lru.Back()
		v.lru.Remove(oldest)
		delete(v.cache, oldest.Value.(cacheItem).key)
		v.stats.Evictions++
	}
	v.mu.Unlock()
	return img, nil
}

// retain records a decode of key: a decoded acquisition holding in-memory
// bytes joins the retention queue, and the oldest beyond 2 × cacheCap
// release theirs. Callers hold v.mu.
func (v *Vault) retain(key acquisitionKey) {
	a := v.acqs[key]
	if a.decoded {
		return
	}
	a.decoded = true
	for _, e := range a.segs {
		if e.raw != nil {
			v.retained = append(v.retained, key)
			break
		}
	}
	for len(v.retained) > 2*v.cacheCap {
		old := v.acqs[v.retained[0]]
		v.retained = v.retained[1:]
		for i := range old.segs {
			if old.segs[i].raw != nil {
				v.stats.RetainedBytes -= int64(len(old.segs[i].raw))
				old.segs[i].raw = nil
			}
		}
		old.released = true
		v.stats.Released++
	}
}

// LoadTemperature loads an acquisition and calibrates counts to kelvin.
func (v *Vault) LoadTemperature(channel string, ts time.Time) (*array.Dense, error) {
	img, err := v.Load(channel, ts)
	if err != nil {
		return nil, err
	}
	cal, err := hrit.CalibrationFor(channel)
	if err != nil {
		return nil, err
	}
	return cal.CalibrateArray(img), nil
}

// URI renders the vault URI for an acquisition, the argument format of
// hrit_load_image: "hrit://IR_039/2007-08-24T12:05:00Z".
func URI(channel string, ts time.Time) string {
	return fmt.Sprintf("hrit://%s/%s", channel, ts.UTC().Format(time.RFC3339))
}

// parseURI inverts URI.
func parseURI(uri string) (channel string, ts time.Time, err error) {
	rest, ok := strings.CutPrefix(uri, "hrit://")
	if !ok {
		return "", time.Time{}, fmt.Errorf("vault: bad URI %q", uri)
	}
	parts := strings.SplitN(rest, "/", 2)
	if len(parts) != 2 {
		return "", time.Time{}, fmt.Errorf("vault: bad URI %q", uri)
	}
	t, err := time.Parse(time.RFC3339, parts[1])
	if err != nil {
		return "", time.Time{}, fmt.Errorf("vault: bad URI timestamp: %w", err)
	}
	return parts[0], t, nil
}

// Register installs the vault's table functions into a SciQL engine:
//
//	hrit_load_image('hrit://IR_039/2007-08-24T12:05:00Z')  — temperatures
//	hrit_load_counts('hrit://...')                          — raw counts
func (v *Vault) Register(e *sciql.Engine) {
	e.RegisterFunc("hrit_load_image", func(args []string) (*sciql.Frame, error) {
		if len(args) != 1 {
			return nil, fmt.Errorf("hrit_load_image wants one URI argument")
		}
		ch, ts, err := parseURI(args[0])
		if err != nil {
			return nil, err
		}
		img, err := v.LoadTemperature(ch, ts)
		if err != nil {
			return nil, err
		}
		return sciql.FromDense(img, "v"), nil
	})
	e.RegisterFunc("hrit_load_counts", func(args []string) (*sciql.Frame, error) {
		if len(args) != 1 {
			return nil, fmt.Errorf("hrit_load_counts wants one URI argument")
		}
		ch, ts, err := parseURI(args[0])
		if err != nil {
			return nil, err
		}
		img, err := v.Load(ch, ts)
		if err != nil {
			return nil, err
		}
		return sciql.FromDense(img, "v"), nil
	})
}
