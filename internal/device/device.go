// Package device models embedded compute hardware: per-device cycle/FLOP
// throughput profiles (standing in for the paper's Raspberry Pi cluster)
// and perf-style cycle counters used by the overhead experiment (§V Q3).
package device

import "fmt"

// Profile characterises one device class's arithmetic throughput.
type Profile struct {
	Name string
	// ClockHz is the CPU clock frequency.
	ClockHz float64
	// FLOPsPerCycle is the sustained multiply-accumulate throughput per
	// cycle for the dense kernels the nn package runs (well below peak —
	// these are cache-unfriendly scalar loops on small cores).
	FLOPsPerCycle float64
	// BackwardFactor scales forward cost to estimate the backward pass
	// (weight + input gradients roughly double the forward work).
	BackwardFactor float64
}

// CyclesForFLOPs converts an arithmetic cost to CPU cycles.
func (p Profile) CyclesForFLOPs(flops float64) float64 {
	return flops / p.FLOPsPerCycle
}

// SecondsForCycles converts cycles to wall-clock seconds on this device.
func (p Profile) SecondsForCycles(cycles float64) float64 {
	return cycles / p.ClockHz
}

// SecondsForFLOPs converts an arithmetic cost directly to seconds.
func (p Profile) SecondsForFLOPs(flops float64) float64 {
	return p.SecondsForCycles(p.CyclesForFLOPs(flops))
}

// TrainSeconds estimates the wall time of training over the given number
// of samples for a model of the given forward cost per sample (forward +
// backward).
func (p Profile) TrainSeconds(flopsPerSample float64, samples int) float64 {
	return p.SecondsForFLOPs(flopsPerSample * (1 + p.BackwardFactor) * float64(samples))
}

// TrainCycles is TrainSeconds in cycle units, for perf-style accounting.
func (p Profile) TrainCycles(flopsPerSample float64, samples int) float64 {
	return p.CyclesForFLOPs(flopsPerSample * (1 + p.BackwardFactor) * float64(samples))
}

// Device profiles. The Raspberry Pi numbers are calibrated to the class of
// hardware in the paper's ablation cluster; Workstation approximates the
// paper's i9 server.
var (
	RaspberryPi3 = Profile{Name: "rpi3", ClockHz: 1.2e9, FLOPsPerCycle: 0.25, BackwardFactor: 2}
	RaspberryPi4 = Profile{Name: "rpi4", ClockHz: 1.5e9, FLOPsPerCycle: 0.5, BackwardFactor: 2}
	Workstation  = Profile{Name: "workstation", ClockHz: 3.0e9, FLOPsPerCycle: 4, BackwardFactor: 2}
)

// Scaled returns a copy of the profile with throughput multiplied by
// factor, modelling heterogeneous or throttled devices (e.g. the paper's
// 3× slower stragglers use factor 1/3).
func (p Profile) Scaled(factor float64) Profile {
	if factor <= 0 {
		panic("device: non-positive scale factor")
	}
	q := p
	q.Name = fmt.Sprintf("%s(x%.2f)", p.Name, factor)
	q.FLOPsPerCycle *= factor
	return q
}

// Arithmetic cost models for the AdaFL components, in FLOPs over a
// dim-dimensional gradient. They are used both by the cycle-count overhead
// experiment and by the simulated per-round compute times.

// UtilityScoreFLOPs is the cost of one cosine-similarity utility score:
// a dot product plus two norms (3 multiply-adds per coordinate) plus the
// negligible bandwidth term.
func UtilityScoreFLOPs(dim int) float64 { return 3 * float64(dim) }

// DGCEncodeFLOPs is the cost of one DGC encode: clipping (2/coord),
// momentum + accumulation updates (2/coord), and the exact top-k select,
// charged at 2 operations per coordinate. (compress.SelectTopKScratch is
// three read-only passes of about one integer operation per coordinate —
// histogram, gather, emit — plus a quickselect inside one histogram
// bucket. The charge is older than that select and is kept: this constant
// feeds simulated compute time, and changing it would move every simulated
// time-to-accuracy.)
func DGCEncodeFLOPs(dim int) float64 { return 6 * float64(dim) }
