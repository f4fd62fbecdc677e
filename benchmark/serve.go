package main

import (
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"
)

// The serve workloads are closed loops: each client sends its next
// request when the previous response has been read to its last byte.
// Dashboards and operators wait for replies (cmd/benchserve does the
// same), and an in-process generator on two shared cores could not hold
// an open-loop schedule anyway.

// blockResult is what one block of requests measured.
type blockResult struct {
	elapsed   time.Duration
	lats      []time.Duration // 2xx requests, all clients
	byClass   [numClasses][]time.Duration
	attempted int
	failed    int
	sent      []int // requests each client sent (fewer than listed when stopped)
}

func (b *blockResult) perSecond() float64 { return float64(len(b.lats)) / b.elapsed.Seconds() }

// runBlock drives one block: client c sends ops[c] in order over its
// own keep-alive connection. When stop is set a client ends early once
// it reads true (live-mixed: the acquisitions are done).
func (s *stack) runBlock(in *inputs, ops [][]op, stop *atomic.Bool) blockResult {
	results := make([]blockResult, len(ops))
	var wg sync.WaitGroup
	start := time.Now()
	for c := range ops {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			res := &results[c]
			res.lats = make([]time.Duration, 0, len(ops[c]))
			for _, o := range ops[c] {
				if stop != nil && stop.Load() {
					break
				}
				if o.write > 0 {
					s.insertProduct(writeProduct(in.pools, o.write))
				}
				res.attempted++
				t0 := time.Now()
				err := s.fetch(s.clients[c], o.text)
				lat := time.Since(t0)
				if err != nil {
					res.failed++
					continue
				}
				res.lats = append(res.lats, lat)
				res.byClass[o.class] = append(res.byClass[o.class], lat)
			}
		}(c)
	}
	wg.Wait()
	out := blockResult{elapsed: time.Since(start)}
	for i := range results {
		out.sent = append(out.sent, results[i].attempted)
		out.lats = append(out.lats, results[i].lats...)
		for cl := range out.byClass {
			out.byClass[cl] = append(out.byClass[cl], results[i].byClass[cl]...)
		}
		out.attempted += results[i].attempted
		out.failed += results[i].failed
	}
	return out
}

// fetch sends one query and reads the reply to its last byte.
func (s *stack) fetch(cl *http.Client, text string) error {
	resp, err := cl.Get(s.base + "/sparql?query=" + url.QueryEscape(text))
	if err != nil {
		return err
	}
	_, err = finish(resp)
	return err
}

// finish reads a reply to its last byte and returns its size. Anything
// but a complete 2xx answer is a failure: a 429 from the admission gate,
// a transport error, or an X-Error trailer.
func finish(resp *http.Response) (int64, error) {
	n, err := io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		return n, err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return n, fmt.Errorf("status %d", resp.StatusCode)
	}
	if e := resp.Trailer.Get("X-Error"); e != "" {
		return n, fmt.Errorf("X-Error: %s", e)
	}
	return n, nil
}
