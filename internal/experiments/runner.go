package experiments

import (
	"adafl/internal/fl"
	"adafl/internal/stats"
	"adafl/internal/trace"
)

// Curve is an averaged learning curve: x-positions (rounds or simulated
// seconds) with mean accuracy across the preset's seeds.
type Curve struct {
	X, Y []float64
}

// ToSeries copies the curve into a named figure series.
func (c Curve) ToSeries(fig *trace.Figure, name string) {
	s := fig.AddSeries(name)
	for i := range c.X {
		s.Add(c.X[i], c.Y[i])
	}
}

// Final returns the last y value (0 for an empty curve).
func (c Curve) Final() float64 {
	if len(c.Y) == 0 {
		return 0
	}
	return c.Y[len(c.Y)-1]
}

// averageCurves aligns per-seed curves by index and averages the y values
// (x is taken from the first curve; seeds share eval schedules).
func averageCurves(curves []Curve) Curve {
	if len(curves) == 0 {
		return Curve{}
	}
	n := len(curves[0].X)
	for _, c := range curves {
		if len(c.X) < n {
			n = len(c.X)
		}
	}
	out := Curve{X: make([]float64, n), Y: make([]float64, n)}
	copy(out.X, curves[0].X[:n])
	for i := 0; i < n; i++ {
		sum := 0.0
		for _, c := range curves {
			sum += c.Y[i]
		}
		out.Y[i] = sum / float64(len(curves))
	}
	return out
}

// syncCurve extracts the accuracy-vs-round curve from a sync history.
func syncCurve(h *fl.History) Curve {
	var c Curve
	for _, r := range h.Rows {
		if r.TestAcc == r.TestAcc { // not NaN
			c.X = append(c.X, float64(r.Round))
			c.Y = append(c.Y, r.TestAcc)
		}
	}
	return c
}

// asyncCurve extracts the accuracy-vs-time curve from an async history.
func asyncCurve(h *fl.History) Curve {
	var c Curve
	for _, r := range h.Rows {
		if r.TestAcc == r.TestAcc {
			c.X = append(c.X, r.Time)
			c.Y = append(c.Y, r.TestAcc)
		}
	}
	return c
}

// RunStats captures the communication-side outcome of one run.
type RunStats struct {
	FinalAcc    float64
	BestAcc     float64
	UplinkBytes int64
	Updates     int
}

// runSyncSeeds executes build for every seed, returning the averaged curve
// and mean stats.
func runSyncSeeds(seeds []uint64, rounds int, build func(seed uint64) *fl.SyncEngine) (Curve, RunStats) {
	var curves []Curve
	var agg RunStats
	for _, seed := range seeds {
		e := build(seed)
		e.RunRounds(rounds)
		curves = append(curves, syncCurve(&e.Hist))
		agg.FinalAcc += e.Hist.FinalAcc()
		agg.BestAcc += e.Hist.BestAcc()
		agg.UplinkBytes += e.TotalUplinkBytes()
		agg.Updates += e.TotalUpdates()
	}
	n := float64(len(seeds))
	agg.FinalAcc /= n
	agg.BestAcc /= n
	agg.UplinkBytes = int64(float64(agg.UplinkBytes) / n)
	agg.Updates = int(float64(agg.Updates) / n)
	return averageCurves(curves), agg
}

// runAsyncSeeds mirrors runSyncSeeds for the asynchronous engine.
func runAsyncSeeds(seeds []uint64, horizon float64, build func(seed uint64) *fl.AsyncEngine) (Curve, RunStats) {
	var curves []Curve
	var agg RunStats
	for _, seed := range seeds {
		e := build(seed)
		e.Run(horizon)
		curves = append(curves, asyncCurve(&e.Hist))
		agg.FinalAcc += e.Hist.FinalAcc()
		agg.BestAcc += e.Hist.BestAcc()
		agg.UplinkBytes += e.TotalUplinkBytes()
		agg.Updates += e.TotalUpdates()
	}
	n := float64(len(seeds))
	agg.FinalAcc /= n
	agg.BestAcc /= n
	agg.UplinkBytes = int64(float64(agg.UplinkBytes) / n)
	agg.Updates = int(float64(agg.Updates) / n)
	return averageCurves(curves), agg
}

// unreliableSet deterministically picks ⌈frac·N⌉ unreliable clients.
func unreliableSet(n int, frac float64, seed uint64) map[int]bool {
	k := int(frac*float64(n) + 0.5)
	out := make(map[int]bool, k)
	perm := stats.NewRNG(seed).Perm(n)
	for _, idx := range perm[:k] {
		out[idx] = true
	}
	return out
}
