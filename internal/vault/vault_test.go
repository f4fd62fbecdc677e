package vault

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/hrit"
	"repro/internal/obs"
	"repro/internal/sciql"
)

func makeAcquisition(t *testing.T, ts time.Time, compressed bool) [][]byte {
	t.Helper()
	counts := make([]uint16, 32*24)
	for i := range counts {
		counts[i] = uint16((i * 7) % 1024)
	}
	segs, err := hrit.Split(counts, 32, 3, hrit.SegmentHeader{
		ProductName: "MSG1-SEVIRI",
		Channel:     hrit.ChannelIR039,
		Timestamp:   ts,
		Compressed:  compressed,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]byte, len(segs))
	for i, s := range segs {
		raw, err := hrit.Encode(s)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = raw
	}
	return out
}

func TestAttachAndLazyLoad(t *testing.T) {
	v := New(4)
	ts := time.Date(2010, 8, 22, 12, 0, 0, 0, time.UTC)
	for i, raw := range makeAcquisition(t, ts, true) {
		if err := v.AttachBytes(fmt.Sprintf("seg%d", i), raw); err != nil {
			t.Fatal(err)
		}
	}
	if got := v.Stats(); got.Attached != 3 || got.Loads != 0 {
		t.Fatalf("stats after attach = %+v", got)
	}
	if !v.Complete(hrit.ChannelIR039, ts) {
		t.Fatal("acquisition should be complete")
	}
	img, err := v.Load(hrit.ChannelIR039, ts)
	if err != nil {
		t.Fatal(err)
	}
	if img.Width() != 32 || img.Height() != 24 {
		t.Fatalf("image dims %dx%d", img.Width(), img.Height())
	}
	if got := v.Stats(); got.Loads != 1 || got.CacheMiss != 1 {
		t.Fatalf("stats after load = %+v", got)
	}
	// Second load hits the cache.
	if _, err := v.Load(hrit.ChannelIR039, ts); err != nil {
		t.Fatal(err)
	}
	if got := v.Stats(); got.CacheHits != 1 || got.Loads != 1 {
		t.Fatalf("stats after reload = %+v", got)
	}
}

func TestIncompleteAcquisition(t *testing.T) {
	v := New(4)
	ts := time.Date(2010, 8, 22, 12, 5, 0, 0, time.UTC)
	segs := makeAcquisition(t, ts, false)
	if err := v.AttachBytes("only", segs[0]); err != nil {
		t.Fatal(err)
	}
	if v.Complete(hrit.ChannelIR039, ts) {
		t.Fatal("incomplete acquisition reported complete")
	}
	if _, err := v.Load(hrit.ChannelIR039, ts); err == nil {
		t.Fatal("loading incomplete acquisition should fail")
	}
}

func TestCacheEviction(t *testing.T) {
	v := New(2)
	base := time.Date(2010, 8, 22, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 3; i++ {
		ts := base.Add(time.Duration(i) * 5 * time.Minute)
		for j, raw := range makeAcquisition(t, ts, false) {
			if err := v.AttachBytes(fmt.Sprintf("a%d_s%d", i, j), raw); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := v.Load(hrit.ChannelIR039, ts); err != nil {
			t.Fatal(err)
		}
	}
	if got := v.Stats(); got.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", got.Evictions)
	}
	// The evicted (oldest) acquisition reloads with a fresh miss.
	if _, err := v.Load(hrit.ChannelIR039, base); err != nil {
		t.Fatal(err)
	}
	if got := v.Stats(); got.Loads != 4 {
		t.Fatalf("loads = %d, want 4", got.Loads)
	}
}

func TestAttachDir(t *testing.T) {
	dir := t.TempDir()
	ts := time.Date(2010, 8, 22, 13, 0, 0, 0, time.UTC)
	for i, raw := range makeAcquisition(t, ts, true) {
		path := filepath.Join(dir, fmt.Sprintf("seg%d.hrit", i))
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// A non-HRIT file must be ignored.
	if err := os.WriteFile(filepath.Join(dir, "README.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	v := New(2)
	n, err := v.AttachDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("attached %d files", n)
	}
	img, err := v.Load(hrit.ChannelIR039, ts)
	if err != nil {
		t.Fatal(err)
	}
	if img.Len() != 32*24 {
		t.Fatalf("image cells = %d", img.Len())
	}
	acqs := v.Acquisitions(hrit.ChannelIR039)
	if len(acqs) != 1 || !acqs[0].Equal(ts) {
		t.Fatalf("acquisitions = %v", acqs)
	}
}

func TestSciQLTableFunction(t *testing.T) {
	v := New(2)
	ts := time.Date(2010, 8, 22, 14, 0, 0, 0, time.UTC)
	for i, raw := range makeAcquisition(t, ts, false) {
		if err := v.AttachBytes(fmt.Sprintf("s%d", i), raw); err != nil {
			t.Fatal(err)
		}
	}
	e := sciql.NewEngine()
	v.Register(e)
	f, err := e.Exec(fmt.Sprintf(`SELECT v FROM hrit_load_counts('%s') AS img WHERE x >= 0 AND x < 10 AND y >= 0 AND y < 10`,
		URI(hrit.ChannelIR039, ts)))
	if err != nil {
		t.Fatal(err)
	}
	if f.W != 10 || f.H != 10 {
		t.Fatalf("frame = %dx%d", f.W, f.H)
	}
	// Temperature variant produces calibrated kelvins.
	f2, err := e.Exec(fmt.Sprintf(`SELECT v FROM hrit_load_image('%s') AS img`, URI(hrit.ChannelIR039, ts)))
	if err != nil {
		t.Fatal(err)
	}
	d, _ := f2.Dense("v")
	if s := d.Summary(); s.Min < 100 || s.Max > 500 {
		t.Fatalf("calibrated range = [%g, %g]", s.Min, s.Max)
	}
	// Bad URIs error cleanly.
	if _, err := e.Exec(`SELECT v FROM hrit_load_image('nope') AS img`); err == nil {
		t.Fatal("bad URI should fail")
	}
}

func TestURIRoundTrip(t *testing.T) {
	ts := time.Date(2007, 8, 24, 12, 5, 0, 0, time.UTC)
	uri := URI("IR_039", ts)
	ch, back, err := parseURI(uri)
	if err != nil {
		t.Fatal(err)
	}
	if ch != "IR_039" || !back.Equal(ts) {
		t.Fatalf("roundtrip = %s @ %v", ch, back)
	}
	for _, bad := range []string{"", "http://x", "hrit://only-channel", "hrit://ch/notatime"} {
		if _, _, err := parseURI(bad); err == nil {
			t.Errorf("parseURI(%q) should fail", bad)
		}
	}
}

// attachAcquisition attaches every segment of one acquisition from
// memory.
func attachAcquisition(t *testing.T, v *Vault, ts time.Time) int64 {
	t.Helper()
	var size int64
	for j, raw := range makeAcquisition(t, ts, false) {
		if err := v.AttachBytes(fmt.Sprintf("%s_s%d", ts.Format("150405"), j), raw); err != nil {
			t.Fatal(err)
		}
		size += int64(len(raw))
	}
	return size
}

// TestRetentionFollowsDecodes pins the retention policy: the raw bytes
// of the newest 2 × capacity decoded acquisitions stay, older ones are
// released, an acquisition no Load has decoded is never released, and a
// released one loads while its image is cached and fails with
// ErrReleased once it is not. Headers outlive the bytes.
func TestRetentionFollowsDecodes(t *testing.T) {
	v := New(2)
	base := time.Date(2010, 8, 22, 0, 0, 0, 0, time.UTC)
	at := func(i int) time.Time { return base.Add(time.Duration(i) * 5 * time.Minute) }

	// Acquisition 0 is attached first and loaded last: still in flight
	// while six others are decoded after it.
	size := attachAcquisition(t, v, at(0))
	for i := 1; i <= 6; i++ {
		attachAcquisition(t, v, at(i))
		if _, err := v.Load(hrit.ChannelIR039, at(i)); err != nil {
			t.Fatal(err)
		}
	}
	st := v.Stats()
	if st.Released != 2 {
		t.Fatalf("released = %d, want 2 (six decoded, four retained)", st.Released)
	}
	if want := 5 * size; st.RetainedBytes != want {
		t.Fatalf("retained bytes = %d, want %d (four decoded + one in flight)", st.RetainedBytes, want)
	}
	if _, err := v.Load(hrit.ChannelIR039, at(0)); err != nil {
		t.Fatalf("an in-flight acquisition was released: %v", err)
	}
	// Loading 0 decoded a seventh: the third-oldest decode goes.
	if st := v.Stats(); st.Released != 3 || st.RetainedBytes != 4*size {
		t.Fatalf("after the in-flight load: %+v", st)
	}
	// 6 is still cached; 1 is neither cached nor retained.
	if _, err := v.Load(hrit.ChannelIR039, at(6)); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Load(hrit.ChannelIR039, at(1)); !errors.Is(err, ErrReleased) {
		t.Fatalf("load of a released acquisition: err = %v, want ErrReleased", err)
	}
	// Released acquisitions keep their headers.
	if got := len(v.Acquisitions(hrit.ChannelIR039)); got != 7 {
		t.Fatalf("acquisitions = %d, want 7", got)
	}
	if !v.Complete(hrit.ChannelIR039, at(1)) {
		t.Fatal("a released acquisition is no longer complete")
	}
}

// TestRetentionLeavesDiskFiles: files attached from disk hold no bytes
// in memory and are never released.
func TestRetentionLeavesDiskFiles(t *testing.T) {
	dir := t.TempDir()
	base := time.Date(2010, 8, 22, 13, 0, 0, 0, time.UTC)
	for i := 0; i < 4; i++ {
		ts := base.Add(time.Duration(i) * 5 * time.Minute)
		for j, raw := range makeAcquisition(t, ts, true) {
			if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("a%d_s%d.hrit", i, j)), raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	v := New(1)
	if _, err := v.AttachDir(dir); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		for i := 0; i < 4; i++ {
			if _, err := v.Load(hrit.ChannelIR039, base.Add(time.Duration(i)*5*time.Minute)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if st := v.Stats(); st.Released != 0 || st.RetainedBytes != 0 || st.Loads != 8 {
		t.Fatalf("stats = %+v, want nothing retained or released and 8 loads", st)
	}
}

// TestReattachIsIdempotent: a retransmitted segment is catalogued once,
// so the acquisition stays complete and loadable.
func TestReattachIsIdempotent(t *testing.T) {
	v := New(2)
	ts := time.Date(2010, 8, 22, 12, 10, 0, 0, time.UTC)
	segs := makeAcquisition(t, ts, true)
	for i, raw := range segs {
		if err := v.AttachBytes(fmt.Sprintf("seg%d", i), raw); err != nil {
			t.Fatal(err)
		}
	}
	if err := v.AttachBytes("seg1-again", segs[1]); err != nil {
		t.Fatal(err)
	}
	if !v.Complete(hrit.ChannelIR039, ts) {
		t.Fatal("a retransmitted segment made the acquisition incomplete")
	}
	if _, err := v.Load(hrit.ChannelIR039, ts); err != nil {
		t.Fatalf("load after a retransmission: %v", err)
	}
	if st := v.Stats(); st.Attached != len(segs) {
		t.Fatalf("attached = %d, want %d", st.Attached, len(segs))
	}
}

// TestMetricsScrape: the vault's two families scrape with the values of
// Stats.
func TestMetricsScrape(t *testing.T) {
	v := New(1)
	base := time.Date(2010, 8, 22, 0, 0, 0, 0, time.UTC)
	var size int64
	for i := 0; i < 3; i++ {
		ts := base.Add(time.Duration(i) * 5 * time.Minute)
		size = attachAcquisition(t, v, ts)
		if _, err := v.Load(hrit.ChannelIR039, ts); err != nil {
			t.Fatal(err)
		}
	}
	reg := obs.NewRegistry()
	v.RegisterMetrics(reg)
	var b strings.Builder
	reg.WritePrometheus(&b)
	for _, want := range []string{
		"# TYPE vault_retained_bytes gauge",
		fmt.Sprintf("vault_retained_bytes %d", 2*size),
		"# TYPE vault_released_total counter",
		"vault_released_total 1",
	} {
		if !strings.Contains(b.String(), want+"\n") {
			t.Errorf("scrape lacks %q:\n%s", want, b.String())
		}
	}
}

// TestConcurrentLoadsNeverReleaseInFlight: workers attach and load
// acquisitions of their own while the others' decodes release older
// ones; no acquisition is released before its Load, and the retained
// bytes settle at 2 × capacity acquisitions.
func TestConcurrentLoadsNeverReleaseInFlight(t *testing.T) {
	const workers, each = 8, 4
	v := New(2)
	base := time.Date(2010, 8, 22, 0, 0, 0, 0, time.UTC)
	at := func(n int) time.Time { return base.Add(time.Duration(n) * 5 * time.Minute) }
	files := make([][][]byte, workers*each)
	for n := range files {
		files[n] = makeAcquisition(t, at(n), false)
	}
	var size int64
	for _, raw := range files[0] {
		size += int64(len(raw))
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				n := w*each + i
				ts := at(n)
				for j, raw := range files[n] {
					if err := v.AttachBytes(fmt.Sprintf("w%d_a%d_s%d", w, i, j), raw); err != nil {
						t.Error(err)
						return
					}
				}
				if _, err := v.Load(hrit.ChannelIR039, ts); err != nil {
					t.Errorf("load of an acquisition in flight: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	st := v.Stats()
	if st.Released != workers*each-4 || st.RetainedBytes != 4*size {
		t.Fatalf("stats = %+v, want %d released and %d bytes retained", st, workers*each-4, 4*size)
	}
}
