package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/url"
	"slices"
	"sort"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/seviri"
	"repro/internal/strabon"
)

// Output checks, untimed, after the blocks. Any mismatch counts in
// failed and makes the run exit non-zero.

// checkAnswers compares every hot text and the sampled cold texts.
func (r *run) checkAnswers(st *stack) {
	for _, text := range r.ops.hot.all() {
		r.checkAnswer(st, "hot", text)
	}
	for _, text := range r.coldSample {
		r.checkAnswer(st, "cold", text)
	}
	r.note("checks: %d hot and %d cold answers against in-process evaluation", len(r.ops.hot.all()), len(r.coldSample))
}

// checkRefined replays the first acquisitions sequentially into a fresh
// single strabon.Store and compares the refined products with the
// measured sharded run's.
func (r *run) checkRefined(st *stack) {
	r.note("checks: first %d acquisitions against a single store", checkAcquisitions)
	r.attempted++
	svc, err := core.NewServiceWithStore(worldSeed, scenarioConfig, strabon.New())
	if err != nil {
		r.fail("reference service: %v", err)
		return
	}
	svc.Sim = seviri.NewSimulator(r.in.scenario(svc.Sim.Scenario.World))
	svc.Strabon.InsertAll(r.in.archiveGroups()...)
	times := acquisitionTimes(checkAcquisitions)
	for _, at := range times {
		if _, err := svc.Step(seviri.MSG1, at); err != nil {
			r.fail("reference Step: %v", err)
			return
		}
	}
	want, err := refinedKeys(svc, times)
	if err != nil {
		r.fail("reference products: %v", err)
		return
	}
	got, err := refinedKeys(st.svc, times)
	if err != nil {
		r.fail("measured products: %v", err)
		return
	}
	if len(want) == 0 {
		r.fail("the first %d acquisitions detected no hotspot", checkAcquisitions)
	}
	if !slices.Equal(got, want) {
		r.fail("refined products of the first %d acquisitions differ: sharded run has %d hotspots, single store %d",
			checkAcquisitions, len(got), len(want))
	}
}

func refinedKeys(svc *core.Service, times []time.Time) ([]string, error) {
	all, err := svc.RefinedProducts()
	if err != nil {
		return nil, err
	}
	last := times[len(times)-1]
	n := 0
	for _, p := range all {
		if !p.AcquiredAt.After(last) {
			all[n] = p
			n++
		}
	}
	if n != len(times) {
		return nil, fmt.Errorf("%d products up to %s, want %d", n, last.Format(timeFmt), len(times))
	}
	return core.SortedHotspotKeys(all[:n]), nil
}

// checkAnswer compares what the endpoint serves for a text (from the
// cache or fresh) with an in-process evaluation at the same store
// generation: the X-Rows trailer and the rows of the body.
func (r *run) checkAnswer(st *stack, kind, text string) {
	r.attempted++
	resp, err := st.clients[0].Get(st.base + "/sparql?query=" + url.QueryEscape(text))
	if err != nil {
		r.fail("%s check: %v", kind, err)
		return
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil || resp.StatusCode != 200 {
		r.fail("%s check: status %d, %v", kind, resp.StatusCode, err)
		return
	}
	res, err := strabon.MaterialiseQuery(context.Background(), st.store, text)
	if err != nil {
		r.fail("%s check: in-process: %v", kind, err)
		return
	}
	if got := resp.Trailer.Get("X-Rows"); got != strconv.Itoa(len(res.Rows)) {
		r.fail("%s check: X-Rows %q, in-process %d rows", kind, got, len(res.Rows))
		return
	}
	var want bytes.Buffer
	if err := strabon.WriteResultJSON(&want, res); err != nil {
		r.fail("%s check: encode: %v", kind, err)
		return
	}
	if bytes.Equal(body, want.Bytes()) {
		return
	}
	// Store scan order is not fixed, so equal answers may list their
	// rows in different orders: compare them as sets.
	a, errA := bindingSet(body)
	b, errB := bindingSet(want.Bytes())
	if errA != nil || errB != nil || !slices.Equal(a, b) {
		r.fail("%s check: served rows differ from the in-process evaluation (%d vs %d)", kind, len(a), len(b))
	}
}

// bindingSet returns the sorted rows of a SPARQL results JSON document.
func bindingSet(doc []byte) ([]string, error) {
	var parsed struct {
		Results struct {
			Bindings []map[string]any `json:"bindings"`
		} `json:"results"`
	}
	if err := json.Unmarshal(doc, &parsed); err != nil {
		return nil, err
	}
	out := make([]string, len(parsed.Results.Bindings))
	for i, b := range parsed.Results.Bindings {
		row, err := json.Marshal(b) // map keys marshal sorted
		if err != nil {
			return nil, err
		}
		out[i] = string(row)
	}
	sort.Strings(out)
	return out, nil
}
