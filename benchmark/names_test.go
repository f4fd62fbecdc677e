package main

import (
	"bytes"
	"encoding/json"
	"regexp"
	"strings"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json and the binary must name the same workloads and
// metrics, with the same units and directions.
func TestManifestMatchesBinary(t *testing.T) {
	m, _, err := readManifest()
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Paths) != 1 || m.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", m.Paths)
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", m.RunSeconds)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the binary", len(m.Workloads), len(workloads))
	}
	used := make(map[string]bool)
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %s", n, nameRE)
		}
		if used[n] {
			t.Errorf("name %q is used twice", n)
		}
		used[n] = true
	}
	for i, w := range m.Workloads {
		name(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: %q/%q, binary has %q/%q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("why of %s is not one line of at most 200 characters", w.Name)
		}
	}
	if len(m.EndToEnd) != len(endToEnd) || len(endToEnd) > 16 {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the binary (at most 16)", len(m.EndToEnd), len(endToEnd))
	}
	setup, largest := 0.0, 0.0
	for i, e := range m.EndToEnd {
		name(e.Name)
		want := endToEnd[i]
		if e.Name != want.name || e.Unit != want.unit || e.Better != want.better {
			t.Errorf("end-to-end %d: %+v, binary has %+v", i, e, want)
		}
		if !unitRE.MatchString(e.Unit) {
			t.Errorf("unit %q of %s", e.Unit, e.Name)
		}
		if e.Name == "setup_s" && e.Unit == "s" && e.Better == "lower" {
			setup = e.Bound
		}
		largest = max(largest, e.Bound)
		if e.Bound < boundFloor || e.Bound > boundCeiling {
			t.Errorf("bound of %s is %v, want %v..%v", e.Name, e.Bound, boundFloor, boundCeiling)
		}
	}
	if setup == 0 || setup < largest {
		t.Errorf("setup_s (unit s, lower is better) has bound %v, want the largest (%v)", setup, largest)
	}
	if len(m.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the binary (at most 128)", len(m.PerLayer), len(perLayer))
	}
	for i, p := range m.PerLayer {
		name(p.Name)
		want := perLayer[i]
		if p.Name != want.name || p.Unit != want.unit || p.Better != want.better {
			t.Errorf("per-layer %d: %+v, binary has %+v", i, p, want)
		}
		if !unitRE.MatchString(p.Unit) {
			t.Errorf("unit %q of %s", p.Unit, p.Name)
		}
	}
}

// The result line carries exactly the metrics of the run's set, and
// every one of them is also printed by name with its unit.
func TestPrintNamesEveryMetric(t *testing.T) {
	for _, set := range [][]metric{endToEnd, perLayer} {
		r := &run{values: make(map[string]float64), attempted: 3}
		for i, m := range set {
			r.values[m.name] = float64(i) + 0.5
		}
		var out bytes.Buffer
		if code := r.print(&out, set); code != 0 {
			t.Fatalf("exit code %d", code)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		if len(res.Metrics) != len(set) || !res.Correct || res.Attempted != 3 {
			t.Errorf("result line: %+v", res)
		}
		for _, m := range set {
			if res.Metrics[m.name].Unit != m.unit {
				t.Errorf("%s missing from the result line or has the wrong unit", m.name)
			}
			if !regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(m.name) + ` .* ` + regexp.QuoteMeta(m.unit) + `$`).Match(out.Bytes()) {
				t.Errorf("%s is not printed by name with its unit", m.name)
			}
		}
	}
	r := &run{values: map[string]float64{}, attempted: 1}
	var out bytes.Buffer
	if code := r.print(&out, endToEnd); code == 0 {
		t.Error("a run that measured nothing must not exit 0")
	}
}
