package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// manifest mirrors BENCHMARK.json at the repository root.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// manifestPath finds BENCHMARK.json from the repository root or from
// this directory.
func manifestPath() (string, error) {
	for _, p := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		if _, err := os.Stat(p); err == nil {
			return p, nil
		}
	}
	return "", fmt.Errorf("BENCHMARK.json not found in . or ..")
}

func readManifest() (*manifest, string, error) {
	path, err := manifestPath()
	if err != nil {
		return nil, "", err
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, "", err
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		return nil, "", fmt.Errorf("%s: %w", path, err)
	}
	return &m, path, nil
}

// child runs one workload in a fresh process and returns its result.
func child(workload string, seed int64, trace int, echo bool) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10), "-trace", strconv.Itoa(trace))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if echo {
		os.Stdout.Write(out)
	}
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: result line: %w", workload, seed, err)
	}
	return &res, nil
}

// runAll runs the four workloads one after the other, each in a fresh
// process.
func runAll(seed int64, trace int) int {
	code := 0
	for _, wl := range workloads {
		if _, err := child(wl.name, seed, trace, true); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			code = 1
		}
	}
	return code
}

const (
	selfCheckRuns = 10   // runs per workload and set, as the driver makes
	boundFloor    = 0.05 // no bound below 5 %
	boundCeiling  = 0.25 // the largest bound the driver accepts
	boundTarget   = 0.10 // what the issue hoped every bound would stay under
	spreadToBound = 2    // a bound is twice the widest spread seen
)

// deriveBound turns the widest spread seen for a metric into the bound
// it wants: twice the spread, at least the floor, in whole percent.
func deriveBound(widest float64) float64 {
	return math.Ceil(100*max(boundFloor, spreadToBound*widest)-1e-9) / 100
}

// selfCheck measures the benchmark's own steadiness the way the driver
// does: two sets of runs per workload, a fresh process and another seed
// for each run, workloads alternating. For every end-to-end metric it
// prints both set medians, their difference and each set's spread
// (quartile distance over median), and derives the bound from the widest
// spread. A metric that wants more than the driver's ceiling gets the
// ceiling and is reported as noise-limited. The check fails, and leaves
// BENCHMARK.json alone, when the benchmark would not pass the driver's
// own test with these bounds: a spread wider than its bound, or two
// medians that differ, in either direction, by more than it.
func selfCheck() int {
	type key struct{ wl, metric string }
	var sets [2]map[key][]float64
	for s := range sets {
		sets[s] = make(map[key][]float64)
		for i := 0; i < selfCheckRuns; i++ {
			for _, wl := range workloads {
				seed := int64(1000 + s*selfCheckRuns + i)
				res, err := child(wl.name, seed, 0, false)
				if err != nil {
					fmt.Fprintln(os.Stderr, "benchmark:", err)
					return 1
				}
				fmt.Fprintf(os.Stderr, "set %d run %d/%d %s seed %d:", s+1, i+1, selfCheckRuns, wl.name, seed)
				for _, m := range endToEnd {
					k := key{wl.name, m.name}
					sets[s][k] = append(sets[s][k], res.Metrics[m.name].Value)
					fmt.Fprintf(os.Stderr, " %s=%.5g", m.name, res.Metrics[m.name].Value)
				}
				fmt.Fprintln(os.Stderr)
			}
		}
	}

	wants := make(map[string]float64)  // the bound each metric's spread asks for
	widest := make(map[string]float64) // its widest spread
	drifts := make(map[string]float64) // the widest difference of its set medians
	fmt.Printf("| workload | metric | median 1 | median 2 | differ by | spread 1 | spread 2 |\n|---|---|---|---|---|---|---|\n")
	for _, m := range endToEnd {
		for _, wl := range workloads {
			k := key{wl.name, m.name}
			m1, m2 := median(sets[0][k]), median(sets[1][k])
			s1, s2 := spread(sets[0][k]), spread(sets[1][k])
			fmt.Printf("| %s | %s | %.4f | %.4f | %+.1f %% | %.1f %% | %.1f %% |\n",
				wl.name, m.name, m1, m2, 100*(m2-m1)/m1, 100*s1, 100*s2)
			widest[m.name] = max(widest[m.name], s1, s2)
			drifts[m.name] = max(drifts[m.name], math.Abs(m2-m1)/m1)
		}
		wants[m.name] = deriveBound(widest[m.name])
	}
	// Set-up is the shortest measurement: it gets the largest bound.
	for _, w := range wants {
		wants["setup_s"] = max(wants["setup_s"], w)
	}

	code := 0
	bounds := make(map[string]float64)
	fmt.Printf("\n| metric | widest spread | wants | bound | widest drift | verdict |\n|---|---|---|---|---|---|\n")
	for _, m := range endToEnd {
		bound := min(wants[m.name], boundCeiling)
		bounds[m.name] = bound
		verdict := "ok"
		switch {
		case widest[m.name] > bound:
			verdict = "FAIL: a spread wider than the largest bound the driver accepts"
			code = 1
		case drifts[m.name] > bound:
			verdict = "FAIL: the two sets differ by more than the bound"
			code = 1
		case wants[m.name] > boundCeiling:
			verdict = "noise-limited: capped at the driver's ceiling"
		case bound > boundTarget:
			verdict = fmt.Sprintf("ok for the driver; above the issue's target of %.2f", boundTarget)
		}
		fmt.Printf("| %s | %.1f %% | %.2f | %.2f | %.1f %% | %s |\n",
			m.name, 100*widest[m.name], wants[m.name], bound, 100*drifts[m.name], verdict)
	}
	if code != 0 {
		fmt.Println("BENCHMARK.json left unchanged")
		return code
	}
	if err := writeBounds(bounds); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	return 0
}

func writeBounds(bounds map[string]float64) error {
	m, path, err := readManifest()
	if err != nil {
		return err
	}
	for i := range m.EndToEnd {
		if b, ok := bounds[m.EndToEnd[i].Name]; ok {
			m.EndToEnd[i].Bound = b
		}
	}
	raw, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
