package netsim

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"adafl/internal/stats"
)

// Trace is a piecewise-constant bandwidth multiplier over simulated time,
// used to reproduce the dynamic network conditions the paper emphasises
// (static compression strategies assume fixed conditions; real links vary).
type Trace struct {
	steps []TraceStep
}

// TraceStep sets the bandwidth multiplier from time At onward.
type TraceStep struct {
	At         float64
	Multiplier float64
}

// NewTrace builds a trace from steps, sorting them by time. Multipliers
// must be positive. An empty trace is the identity.
func NewTrace(steps ...TraceStep) *Trace {
	for _, s := range steps {
		if s.Multiplier <= 0 {
			panic(fmt.Sprintf("netsim: non-positive trace multiplier %v", s.Multiplier))
		}
	}
	sorted := append([]TraceStep(nil), steps...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].At < sorted[j].At })
	return &Trace{steps: sorted}
}

// MultiplierAt returns the multiplier in effect at time t (1 before the
// first step).
func (tr *Trace) MultiplierAt(t float64) float64 {
	m := 1.0
	for _, s := range tr.steps {
		if s.At > t {
			break
		}
		m = s.Multiplier
	}
	return m
}

// RandomWalkTrace generates a trace whose multiplier performs a bounded
// geometric random walk in [lo, hi], stepping every period seconds for the
// given horizon. It models slowly varying congestion.
func RandomWalkTrace(rng *stats.RNG, period, horizon, lo, hi float64) *Trace {
	if lo <= 0 || hi < lo || period <= 0 {
		panic("netsim: invalid random walk parameters")
	}
	var steps []TraceStep
	m := (lo + hi) / 2
	for t := 0.0; t < horizon; t += period {
		factor := 1 + 0.3*(rng.Float64()*2-1)
		m *= factor
		if m < lo {
			m = lo
		}
		if m > hi {
			m = hi
		}
		steps = append(steps, TraceStep{At: t, Multiplier: m})
	}
	return NewTrace(steps...)
}

// ParseTraceCSV reads a trace from CSV text with one "time,multiplier"
// pair per line (comments start with '#', blank lines are skipped) —
// letting experiments replay externally recorded bandwidth traces.
func ParseTraceCSV(r io.Reader) (*Trace, error) {
	var steps []TraceStep
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		parts := strings.Split(text, ",")
		if len(parts) != 2 {
			return nil, fmt.Errorf("netsim: trace line %d: want time,multiplier", line)
		}
		at, err := strconv.ParseFloat(strings.TrimSpace(parts[0]), 64)
		if err != nil {
			return nil, fmt.Errorf("netsim: trace line %d: %v", line, err)
		}
		mult, err := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
		if err != nil {
			return nil, fmt.Errorf("netsim: trace line %d: %v", line, err)
		}
		if mult <= 0 {
			return nil, fmt.Errorf("netsim: trace line %d: non-positive multiplier %v", line, mult)
		}
		steps = append(steps, TraceStep{At: at, Multiplier: mult})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return NewTrace(steps...), nil
}

// DiurnalTrace generates a raised-cosine day/night bandwidth multiplier:
// the multiplier swings between hi (peak, at t = 0) and lo (trough, half a
// period later), sampled into a piecewise-constant step every step seconds
// for horizon seconds. It models the diurnal congestion wave the scenario
// engine's bandwidth model rides on.
func DiurnalTrace(period, lo, hi, step, horizon float64) *Trace {
	if lo <= 0 || hi < lo || period <= 0 || step <= 0 {
		panic("netsim: invalid diurnal parameters")
	}
	var steps []TraceStep
	for t := 0.0; t < horizon; t += step {
		phase := 2 * math.Pi * t / period
		m := lo + (hi-lo)*(1+math.Cos(phase))/2
		steps = append(steps, TraceStep{At: t, Multiplier: m})
	}
	return NewTrace(steps...)
}

// OutageTrace generates a trace that periodically collapses bandwidth to
// floor (e.g. 0.05) for outageDur seconds every interval seconds.
func OutageTrace(interval, outageDur, floor, horizon float64) *Trace {
	if floor <= 0 || interval <= 0 || outageDur <= 0 || outageDur >= interval {
		panic("netsim: invalid outage parameters")
	}
	var steps []TraceStep
	for t := interval; t < horizon; t += interval {
		steps = append(steps, TraceStep{At: t, Multiplier: floor})
		steps = append(steps, TraceStep{At: t + outageDur, Multiplier: 1})
	}
	return NewTrace(steps...)
}
