package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"adafl/internal/obs"
)

// refSeconds is the run length the workload budgets in this package were
// sized for (BENCHMARK.json run_seconds); -seconds scales them linearly.
const refSeconds = 10

// warmupRounds is how many leading rounds of a session are left out of
// every timing (buffers grow, connections warm, the protocol's own
// dense warm-up rounds run).
const warmupRounds = 2

// runCtx is what one pass over one workload is given.
type runCtx struct {
	seed   uint64
	scale  float64 // budget multiplier: seconds/refSeconds, or the -quick factor
	quick  bool    // -quick: no setup repeats, single-shot probes
	traced bool
	tmp    string // scratch directory, removed by the caller
	// frameBytes, when non-zero, replaces the expected fleet_ingest frame
	// size (the smoke test's proof that a broken gate fails the run).
	frameBytes int
	// Set only in the traced pass; nil instruments cost the program nothing.
	reg    *obs.Registry
	events *obs.EventLog
	spans  *spanLog
}

// untraced returns rc with every observability hook removed: the setup
// repeats and reference sessions must not pollute the traced registry.
func (rc *runCtx) untraced() *runCtx {
	c := *rc
	c.traced, c.reg, c.events, c.spans = false, nil, nil, nil
	return &c
}

// budget scales a round budget, keeping it a positive multiple of step.
func (rc *runCtx) budget(base, step int) int {
	n := int(math.Round(float64(base)*rc.scale/float64(step))) * step
	if n < step {
		n = step
	}
	return n
}

// outcome is what one pass over one workload produced.
type outcome struct {
	metrics   map[string]float64 // end-to-end metrics defined on this workload
	layer     map[string]float64 // per-layer metrics read from the traced run
	attempted int64
	failed    int64
	gates     []string // broken correctness gates
	notes     []string
	// checksum identifies the final global model bit for bit ("" when the
	// workload is not a pure function of the seed).
	checksum string
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, layer: map[string]float64{}}
}

func (o *outcome) set(name string, v float64) { o.metrics[name] = v }

func (o *outcome) gate(format string, args ...interface{}) {
	o.gates = append(o.gates, fmt.Sprintf(format, args...))
}

func (o *outcome) note(format string, args ...interface{}) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

func quietLogf(string, ...interface{}) {}

// median is NaN for no samples (quartiles wants at least one).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	_, m, _ := quartiles(xs)
	return m
}

// tail is the highest percentile that still has ten samples beyond it
// (the maximum when there are fewer than eleven samples).
func tail(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := len(s) - 11
	if i < 0 {
		i = len(s) - 1
	}
	return s[i]
}

func mean(xs []float64) float64 { return sum(xs) / float64(len(xs)) }

// checksumBits hashes the exact bit pattern of a vector.
func checksumBits(v []float64) string {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range v {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// peakRSSMB reads this process's resident-set high-water mark.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// roundDurations turns round-end timestamps into per-round durations,
// leaving out the warm-up rounds (and round 0, whose start is not
// observable from outside).
func roundDurations(ends []time.Time) []float64 {
	first := warmupRounds
	if first >= len(ends) {
		first = len(ends) - 1
	}
	if first < 1 {
		first = 1
	}
	durs := make([]float64, 0, len(ends))
	for i := first; i < len(ends); i++ {
		durs = append(durs, ends[i].Sub(ends[i-1]).Seconds())
	}
	return durs
}

// spentShort measures how much of a cost (rounds, uplink MB, simulated
// seconds) a learning curve spent short of the target accuracy: cost[i]
// is what was spent between evaluation i-1 and evaluation i, weighted by
// that evaluation's shortfall 1 − min(acc, target)/target. For a curve
// that steps from 0 to the target this is exactly the cost of the first
// evaluation at the target; for a real, noisy curve it does not hinge on
// the one evaluation that happens to cross (on mlp_proto the
// first-crossing round swings ±25 % from seed to seed, this ±6 %).
func spentShort(target float64, acc, cost []float64) float64 {
	var spent float64
	for i, a := range acc {
		spent += cost[i] * (1 - math.Min(a, target)/target)
	}
	return spent
}
