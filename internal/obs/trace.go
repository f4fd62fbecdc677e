package obs

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Per-request trace IDs. An inbound X-Request-Id is honoured (so IDs
// propagate through proxies and show up in client logs and the
// slow-query log alike); otherwise a process-unique ID is minted from a
// random process prefix plus an atomic sequence — no locking, no
// clock reads on the request path.

// RequestIDHeader is the header trace IDs travel in.
const RequestIDHeader = "X-Request-Id"

var (
	idPrefix [8]byte
	idOnce   sync.Once
	idSeq    atomic.Uint64
)

// NewRequestID mints a process-unique trace ID.
func NewRequestID() string {
	idOnce.Do(func() {
		if _, err := rand.Read(idPrefix[:]); err != nil {
			binary.BigEndian.PutUint64(idPrefix[:], uint64(time.Now().UnixNano()))
		}
	})
	var buf [16]byte
	copy(buf[:8], idPrefix[:])
	binary.BigEndian.PutUint64(buf[8:], idSeq.Add(1))
	return hex.EncodeToString(buf[:])
}

// RequestID resolves the trace ID for an inbound request: the caller's
// X-Request-Id if it sent one (truncated to a sane length), a fresh ID
// otherwise.
func RequestID(r *http.Request) string {
	if id := r.Header.Get(RequestIDHeader); id != "" {
		if len(id) > 128 {
			id = id[:128]
		}
		return id
	}
	return NewRequestID()
}

// QueryRecord is one slow-query log entry.
type QueryRecord struct {
	TraceID    string        `json:"trace_id"`
	Query      string        `json:"query"`
	PlanDigest string        `json:"plan_digest,omitempty"`
	AccessPath string        `json:"access_path,omitempty"` // the plan's first operator, e.g. scan[time-range]
	Outcome    string        `json:"outcome"`               // hit | miss | error | rejected
	Rows       int           `json:"rows"`
	ElapsedUs  int64         `json:"elapsed_us"`
	At         time.Time     `json:"at"`
	Elapsed    time.Duration `json:"-"`
}

// QueryLog is a fixed-size ring of the most recent recorded queries,
// served as JSON at /debug/queries. Recording is a short mutex'd copy
// into the ring — no allocation beyond the record itself, no store
// locks.
type QueryLog struct {
	mu   sync.Mutex
	ring []QueryRecord
	next int
	full bool
}

// NewQueryLog returns a ring holding the n most recent records.
func NewQueryLog(n int) *QueryLog {
	if n < 1 {
		n = 1
	}
	return &QueryLog{ring: make([]QueryRecord, n)}
}

// Record appends one entry, evicting the oldest once the ring is full.
func (l *QueryLog) Record(rec QueryRecord) {
	rec.ElapsedUs = rec.Elapsed.Microseconds()
	if rec.At.IsZero() {
		rec.At = time.Now()
	}
	const maxQuery = 2048
	if len(rec.Query) > maxQuery {
		rec.Query = rec.Query[:maxQuery]
	}
	l.mu.Lock()
	l.ring[l.next] = rec
	l.next++
	if l.next == len(l.ring) {
		l.next, l.full = 0, true
	}
	l.mu.Unlock()
}

// Snapshot returns the recorded entries, newest first.
func (l *QueryLog) Snapshot() []QueryRecord {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := l.next
	if l.full {
		n = len(l.ring)
	}
	out := make([]QueryRecord, 0, n)
	for i := 1; i <= n; i++ {
		out = append(out, l.ring[(l.next-i+len(l.ring))%len(l.ring)])
	}
	return out
}

// ServeHTTP serves the log as JSON (newest first).
func (l *QueryLog) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(l.Snapshot())
}
