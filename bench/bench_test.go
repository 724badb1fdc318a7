package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// contract is BENCHMARK.json as the driver reads it.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readContract(t *testing.T) (contract, []byte) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	return c, raw
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestContractMatchesSpec: BENCHMARK.json is generated from spec.go and
// stays inside the driver's limits.
func TestContractMatchesSpec(t *testing.T) {
	c, raw := readContract(t)
	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, want) {
		t.Errorf("BENCHMARK.json differs from `go run ./bench -spec`; regenerate it")
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(raw))
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside the contract's alphabet", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(c.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range c.Workloads {
		name(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range c.EndToEnd {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end metric %+v breaks the contract", m)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if n := len(c.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	for _, m := range c.PerLayer {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("per-layer metric %s: unit %q", m.Name, m.Unit)
		}
	}
}

// parseLine reads the driver line: the last line of a run's output.
func parseLine(t *testing.T, out string) driverLine {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var line driverLine
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&line); err != nil {
		t.Fatalf("last line is not the result object: %v", err)
	}
	return line
}

func checkLine(t *testing.T, line driverLine, want map[string]string) {
	t.Helper()
	if !line.Correct || line.Attempted < 1 || line.Failed != 0 {
		t.Errorf("correct=%v attempted=%d failed=%d", line.Correct, line.Attempted, line.Failed)
	}
	if len(line.Metrics) != len(want) {
		t.Errorf("%d metrics emitted, contract names %d", len(line.Metrics), len(want))
	}
	for name, unit := range want {
		m, ok := line.Metrics[name]
		switch {
		case !ok:
			t.Errorf("metric %s not emitted", name)
		case m.Unit != unit:
			t.Errorf("metric %s: unit %q, contract says %q", name, m.Unit, unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("metric %s is %v", name, m.Value)
		}
	}
}

// TestSmoke runs every workload at the -quick scale, end-to-end pass and
// traced pass, and holds the output against BENCHMARK.json: every metric
// once, under its name and unit, finite, with the correctness gates
// passing. The six workloads run side by side: the smoke scale checks
// plumbing, not speed.
func TestSmoke(t *testing.T) {
	c, _ := readContract(t)
	e2e, layer := map[string]string{}, map[string]string{}
	for _, m := range c.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range c.PerLayer {
		layer[m.Name] = m.Unit
	}
	if len(c.Workloads) != len(workloads()) {
		t.Fatalf("contract names %d workloads, the program runs %d", len(c.Workloads), len(workloads()))
	}
	for _, w := range c.Workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			var out bytes.Buffer
			res, err := runOne(options{workload: w.Name, seed: 7, seconds: refSeconds, quick: true, trace: 1}, &out)
			if err != nil {
				t.Fatalf("%v\n%s", err, out.String())
			}
			checkLine(t, parseLine(t, out.String()), layer)

			// The same result rendered as the end-to-end pass's line.
			res.Traced = false
			line, err := res.driverLine()
			if err != nil {
				t.Fatal(err)
			}
			checkLine(t, *line, e2e)
			for _, m := range e2eMetrics() {
				if _, ok := res.EndToEnd[m.name]; ok != m.appliesTo(w.Name) {
					t.Errorf("end-to-end metric %s: measured=%v, spec says on=%v", m.name, ok, m.appliesTo(w.Name))
				}
			}
			for _, m := range layerMetrics() {
				measured := m.run == nil || slices.Contains(m.run, w.Name)
				if _, ok := res.PerLayer[m.name]; ok != measured {
					t.Errorf("per-layer metric %s: measured=%v, spec says %v", m.name, ok, measured)
				}
			}
			if _, err := os.Stat(res.TraceFile); err != nil {
				t.Errorf("span file: %v", err)
			}
			if w.Name == "sim_tta" && (res.ReplayBitEqual == nil || !*res.ReplayBitEqual) {
				t.Error("sim_tta is a pure function of the seed, yet the traced pass ended on other bits")
			}
		})
	}
}

// TestBrokenGateFailsRun feeds fleet_ingest a wrong expected frame size:
// the run must report it, flag the result incorrect and return an error
// (exit status 1 from main).
func TestBrokenGateFailsRun(t *testing.T) {
	var out bytes.Buffer
	res, err := runOne(options{workload: "fleet_ingest", seed: 7, seconds: refSeconds, quick: true, frameBytes: fleetFrameBytes + 1}, &out)
	if err == nil {
		t.Fatal("a wrong expected frame size passed")
	}
	if res == nil || res.Correct || len(res.Gates) == 0 {
		t.Fatalf("result does not carry the broken gate: %+v", res)
	}
	if line := parseLine(t, out.String()); line.Correct {
		t.Error("driver line says correct")
	}
	if !strings.Contains(out.String(), "GATE BROKEN") {
		t.Errorf("table does not show the broken gate:\n%s", out.String())
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := e2eMetric{name: "round_s_p50", better: "lower", bound: 0.10}
	higher := e2eMetric{name: "updates_per_s", better: "higher", bound: 0.10}
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.02}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{0.7, 1.0, 1.3, 0.8, 1.2}
	cases := []struct {
		m        e2eMetric
		old, new []float64
		want     string
	}{
		{lower, steady, scale(steady, 1.05), "same"},
		{lower, steady, scale(steady, 1.2), "worse"},
		{lower, steady, scale(steady, 0.8), "better"},
		{higher, steady, scale(steady, 0.8), "worse"},
		{higher, steady, scale(steady, 1.2), "better"},
		{lower, steady, noisy, "unresolved"},
		{lower, noisy, scale(noisy, 0.4), "better"}, // every new run beats every old one
		{lower, []float64{1}, []float64{1.5}, "worse"},
	}
	for i, c := range cases {
		if got := verdict(c.m, c.old, c.new); got != c.want {
			t.Errorf("case %d: %s, want %s", i, got, c.want)
		}
	}
	if q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v, Python's statistics.quantiles gives 2.75 5.5 8.25", q1, q2, q3)
	}
}
