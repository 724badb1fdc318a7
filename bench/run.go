package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"

	"adafl/internal/obs"
)

// metricValue is one reported number in the driver's schema.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverLine is the last line of a single-workload run's standard output.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// workloadResult is everything one pass over one workload produced; the
// -detail file and the all-workloads document carry it.
type workloadResult struct {
	Workload  string  `json:"workload"`
	Seed      uint64  `json:"seed"`
	Traced    bool    `json:"traced"`
	Scale     float64 `json:"scale"`
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	FailShare float64 `json:"fail_share"`
	// EndToEnd holds the metrics measured on this workload (never the
	// notApplicable filler). In a traced result they come from the
	// untraced reference pass, as end-to-end numbers always do.
	EndToEnd map[string]float64 `json:"end_to_end"`
	PerLayer map[string]float64 `json:"per_layer,omitempty"`
	Gates    []string           `json:"broken_gates,omitempty"`
	Notes    []string           `json:"notes,omitempty"`
	Checksum string             `json:"final_global_checksum,omitempty"`
	// ReplayBitEqual reports the replay contract (traced pass only): the
	// untraced and the traced session of one seed end on the same bits.
	ReplayBitEqual *bool  `json:"replay_bit_equal,omitempty"`
	TraceFile      string `json:"trace_file,omitempty"`
}

type environment struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	GitCommit  string  `json:"git_commit"`
	Seed       uint64  `json:"seed"`
	Scale      float64 `json:"scale"`
}

// document is what `go run ./bench` writes and -compare reads.
type document struct {
	Env     environment      `json:"env"`
	Results []workloadResult `json:"results"`
}

func (o options) scale() float64 {
	if o.quick {
		return quickScale
	}
	return o.seconds / refSeconds
}

// quickScale is the -quick budget factor: 1/50 of the rounds.
const quickScale = 0.02

// outDir is where span files and scratch directories go: bench/out next
// to this package when run from the repository root (the driver's and
// `go run ./bench`'s working directory), else ./out.
func outDir() string {
	if st, err := os.Stat("bench"); err == nil && st.IsDir() {
		return filepath.Join("bench", "out")
	}
	return "out"
}

// scratchDir makes a scratch directory under outDir that is removed on
// return and on SIGINT/SIGTERM. The path stays relative so unix socket
// names fit sun_path however deep the checkout sits.
func scratchDir() (dir string, cleanup func(), err error) {
	if err := os.MkdirAll(outDir(), 0o755); err != nil {
		return "", nil, err
	}
	dir, err = os.MkdirTemp(outDir(), "tmp-")
	if err != nil {
		return "", nil, err
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		if _, ok := <-sig; ok {
			os.RemoveAll(dir)
			os.Exit(130)
		}
	}()
	return dir, func() {
		signal.Stop(sig)
		close(sig)
		os.RemoveAll(dir)
	}, nil
}

// runOne runs a single workload in this process and prints the metric
// table followed by the driver's result line. A result is returned with
// the error when correctness gates broke.
func runOne(o options, stdout io.Writer) (*workloadResult, error) {
	var w *workload
	for _, cand := range workloads() {
		if cand.name == o.workload {
			cand := cand
			w = &cand
		}
	}
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	tmp, cleanup, err := scratchDir()
	if err != nil {
		return nil, err
	}
	defer cleanup()

	rc := &runCtx{seed: o.seed, scale: o.scale(), quick: o.quick, tmp: tmp, frameBytes: o.frameBytes}
	res := workloadResult{Workload: w.name, Seed: o.seed, Traced: o.trace == 1, Scale: rc.scale}
	out, err := w.run(rc)
	if err != nil {
		return nil, err
	}
	if o.trace == 1 {
		traced, err := runTraced(w, rc, out, &res)
		if err != nil {
			return nil, err
		}
		// Broken gates of either pass fail the run; the numbers stay the
		// untraced pass's.
		out.gates = append(out.gates, traced.gates...)
	}
	res.Correct = len(out.gates) == 0
	res.Attempted, res.Failed = out.attempted, out.failed
	if res.Attempted < 1 {
		res.Attempted = 1
	}
	res.FailShare = float64(res.Failed) / float64(res.Attempted)
	res.EndToEnd, res.Gates, res.Notes, res.Checksum = out.metrics, out.gates, out.notes, out.checksum

	line, err := res.driverLine()
	if err != nil {
		return nil, err
	}
	res.print(stdout)
	if o.detail != "" {
		data, err := json.MarshalIndent(res, "", " ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(o.detail, data, 0o644); err != nil {
			return nil, err
		}
	}
	last, err := json.Marshal(line)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "%s\n", last)
	if !res.Correct {
		return &res, fmt.Errorf("%s: %d correctness gate(s) broken", w.name, len(res.Gates))
	}
	return &res, nil
}

// runTraced is the second pass of a -trace 1 run: the same workload with
// a registry, an event log and bench-side spans attached, then the layer
// probes. untraced is the pass that just ran without them.
func runTraced(w *workload, rc *runCtx, untraced *outcome, res *workloadResult) (*outcome, error) {
	events, err := obs.OpenEventLog(filepath.Join(rc.tmp, "events.jsonl"))
	if err != nil {
		return nil, err
	}
	trc := *rc
	trc.traced, trc.reg, trc.events = true, obs.NewRegistry(), events
	trc.spans = newSpanLog(w.name, rc.seed)
	traced, err := w.run(&trc)
	if cerr := events.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("event log: %w", cerr)
	}
	if err != nil {
		return nil, err
	}
	layer := traced.layer
	probes, err := runProbes(&trc)
	if err != nil {
		return nil, fmt.Errorf("layer probes: %w", err)
	}
	for name, v := range probes {
		layer[name] = v
	}
	base, with := untraced.metrics[w.primary], traced.metrics[w.primary]
	if w.primaryHigher {
		base, with = 1/base, 1/with
	}
	layer["obs.trace_overhead_share"] = with/base - 1
	res.PerLayer = layer
	if untraced.checksum != "" {
		eq := untraced.checksum == traced.checksum
		res.ReplayBitEqual = &eq
		if !eq {
			untraced.note("replay contract: untraced final global %s, traced %s — not bit-equal (see README, Findings)",
				untraced.checksum, traced.checksum)
		}
	}
	if res.TraceFile, err = trc.spans.write(outDir()); err != nil {
		return nil, err
	}
	return traced, nil
}

// driverLine renders the contract's result object: every end-to-end
// metric on an end-to-end pass, every per-layer metric on a traced pass.
func (r *workloadResult) driverLine() (*driverLine, error) {
	line := &driverLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed,
		Metrics: map[string]metricValue{}}
	if r.Traced {
		for _, m := range layerMetrics() {
			v := r.PerLayer[m.name] // 0 when this workload's traced pass does not measure it
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("%s: per-layer metric %s is %v", r.Workload, m.name, v)
			}
			line.Metrics[m.name] = metricValue{v, m.unit}
		}
		return line, nil
	}
	for _, m := range e2eMetrics() {
		v := notApplicable
		if m.appliesTo(r.Workload) {
			var ok bool
			if v, ok = r.EndToEnd[m.name]; !ok {
				return nil, fmt.Errorf("%s: end-to-end metric %s was not measured", r.Workload, m.name)
			}
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%s: end-to-end metric %s is %v", r.Workload, m.name, v)
		}
		line.Metrics[m.name] = metricValue{v, m.unit}
	}
	return line, nil
}

// print writes the human-readable metric table.
func (r *workloadResult) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s  seed %d  traced %v  scale %.3g\n", r.Workload, r.Seed, r.Traced, r.Scale)
	for _, m := range e2eMetrics() {
		if v, ok := r.EndToEnd[m.name]; ok && m.appliesTo(r.Workload) {
			fmt.Fprintf(w, "  %-40s %14.6g %s\n", m.name, v, m.unit)
		} else {
			fmt.Fprintf(w, "  %-40s %14s\n", m.name, "n/a")
		}
	}
	fmt.Fprintf(w, "  %-40s %14.6g share (%d failed of %d attempted)\n", "fail_share", r.FailShare, r.Failed, r.Attempted)
	if r.Traced {
		for _, m := range layerMetrics() {
			if v, ok := r.PerLayer[m.name]; ok {
				fmt.Fprintf(w, "  %-40s %14.6g %s\n", m.name, v, m.unit)
			}
		}
		if r.ReplayBitEqual != nil {
			fmt.Fprintf(w, "  %-40s %14v\n", "replay_bit_equal", *r.ReplayBitEqual)
		}
		fmt.Fprintf(w, "  spans: %s\n", r.TraceFile)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	if len(r.Gates) == 0 {
		fmt.Fprintf(w, "  gates: ok\n")
	}
	for _, g := range r.Gates {
		fmt.Fprintf(w, "  GATE BROKEN: %s\n", g)
	}
}

// runAll runs every workload, each pass in a re-exec'd child so that
// peak_rss_mb is that workload's own high-water mark and no heap carries
// over, and prints the env block, the tables and the result document.
func runAll(o options) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	tmp, cleanup, err := scratchDir()
	if err != nil {
		return err
	}
	defer cleanup()

	doc := document{Env: readEnv(o)}
	envJSON, err := json.Marshal(doc.Env)
	if err != nil {
		return err
	}
	fmt.Printf("env %s\n", envJSON)
	var broken []string
	for run := 0; run < o.runs; run++ {
		for _, w := range workloads() {
			detail := filepath.Join(tmp, fmt.Sprintf("%s-%d.json", w.name, run))
			args := []string{"-workload", w.name, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
				"-trace", fmt.Sprint(o.trace), "-detail", detail}
			if o.quick {
				args = append(args, "-quick")
			}
			cmd := exec.Command(self, args...)
			var stdout bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
			runErr := cmd.Run()
			// Relay the child's table, not its driver line.
			table := strings.TrimRight(stdout.String(), "\n")
			if i := strings.LastIndexByte(table, '\n'); i >= 0 && strings.HasPrefix(table[i+1:], "{") {
				table = table[:i]
			}
			fmt.Println(table)
			data, err := os.ReadFile(detail)
			if err != nil {
				return fmt.Errorf("%s: child left no result (%v): %w", w.name, runErr, err)
			}
			var res workloadResult
			if err := json.Unmarshal(data, &res); err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			doc.Results = append(doc.Results, res)
			if runErr != nil {
				broken = append(broken, w.name)
			}
		}
	}
	if o.out != "" {
		data, err := json.MarshalIndent(doc, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.out, data, 0o644); err != nil {
			return err
		}
	}
	last, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", last)
	if len(broken) > 0 {
		return fmt.Errorf("workloads failed: %s", strings.Join(broken, ", "))
	}
	return nil
}

func readEnv(o options) environment {
	env := environment{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPUModel: "unknown", GitCommit: "unknown", Seed: o.seed, Scale: o.scale(),
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(l, "model name"); ok {
				env.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.GitCommit = strings.TrimSpace(string(out))
	}
	return env
}
