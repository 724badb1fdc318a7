package core

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"adafl/internal/fl"
	"adafl/internal/stats"
	"adafl/internal/tensor"
)

// copyScaleNegL2 is the NegL2 similarity as it was written before the
// distance was taken in place: copy both vectors, scale each copy by its
// inverse norm, measure the Euclidean distance between the copies.
func copyScaleNegL2(local, globalDelta []float64) float64 {
	ln, gn := tensor.Norm2(local), tensor.Norm2(globalDelta)
	if ln == 0 || gn == 0 {
		return 0.5
	}
	a := tensor.CopyVec(local)
	tensor.ScaleVec(a, 1/ln)
	b := tensor.CopyVec(globalDelta)
	tensor.ScaleVec(b, 1/gn)
	sum := 0.0
	for i, v := range a {
		d := v - b[i]
		sum += d * d
	}
	return 1 / (1 + math.Sqrt(sum))
}

func TestNegL2SimilarityMatchesCopyScale(t *testing.T) {
	u := UtilityConfig{Metric: NegL2}
	r := stats.NewRNG(81)
	specials := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 5e-324, 1e200, -1e-160}
	lengths := []int{8554}
	for n := 0; n <= 33; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		for c := 0; c < 6; c++ {
			a, b := make([]float64, n), make([]float64, n)
			scale := math.Pow(10, float64(4*c-12)) // 1e-12 … 1e8
			for i := range a {
				a[i], b[i] = scale*r.Norm(), r.Norm()
			}
			switch {
			case c == 4 && n > 0:
				for i := 0; i < n/4+1; i++ {
					a[r.Intn(n)] = specials[r.Intn(len(specials))]
					b[r.Intn(n)] = specials[r.Intn(len(specials))]
				}
			case c == 5:
				copy(b, a) // identical directions
			}
			got, want := u.SimilarityAt(tensor.DeltaOf(a), nil, b), copyScaleNegL2(a, b)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("n=%d case %d: %v, copy-scale form %v", n, c, got, want)
			}
		}
	}
	// A zero side scores 0.5 whatever the lengths; two nonzero sides of
	// different lengths are a caller bug.
	if s := u.SimilarityAt(tensor.DeltaOf([]float64{1, 2}), nil, nil); s != 0.5 {
		t.Fatalf("against an empty vector: %v, want 0.5", s)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch between two nonzero vectors did not panic")
		}
	}()
	u.SimilarityAt(tensor.DeltaOf([]float64{1, 2}), nil, []float64{1})
}

func TestNegL2SimilarityAllocatesNothing(t *testing.T) {
	u := UtilityConfig{Metric: NegL2}
	a, b := make([]float64, 1000), make([]float64, 1000)
	for i := range a {
		a[i], b[i] = float64(i%7)-3, float64(i%5)-2
	}
	if n := testing.AllocsPerRun(10, func() { u.SimilarityAt(tensor.DeltaOf(a), nil, b) }); n != 0 {
		t.Fatalf("%v allocations per call, want 0", n)
	}
}

// scoredEngine returns a planner and an engine some rounds past warm-up,
// so every client has a cached delta and ĝ is nonzero.
func scoredEngine(clients int, seed uint64) (*SyncPlanner, *fl.SyncEngine, []int) {
	fed := newFed(clients, false, seed)
	cfg := fastConfig()
	cfg.AttachDGC(fed)
	p := NewSyncPlanner(cfg)
	e := fl.NewSyncEngine(fed, fl.FedAvg{}, p, seed+1)
	e.EvalEvery = 0
	e.RunRounds(cfg.Compression.WarmupRounds + 2)
	ids := make([]int, clients)
	for i := range ids {
		ids[i] = i
	}
	return p, e, ids
}

// TestSyncPlannerScoreAnyCoreCount: the fanned-out scores equal a serial
// loop over Utility.Score, bit for bit, at any GOMAXPROCS.
func TestSyncPlannerScoreAnyCoreCount(t *testing.T) {
	p, e, ids := scoredEngine(10, 82)
	want := make([]float64, len(ids))
	for k, i := range ids {
		up, down := e.Fed.Net.Bandwidths(i, e.Now())
		local := e.Fed.Clients[i].LastDelta
		if local == nil {
			t.Fatalf("client %d has no cached delta after warm-up", i)
		}
		want[k] = p.Cfg.Utility.Score(up, down, local, e.LastGlobalDelta)
	}
	for _, procs := range []int{1, 2, 7} {
		old := runtime.GOMAXPROCS(procs)
		got := p.score(ids, e)
		runtime.GOMAXPROCS(old)
		for k := range want {
			if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
				t.Fatalf("GOMAXPROCS=%d client %d: %v, serial %v", procs, ids[k], got[k], want[k])
			}
		}
	}
}

// BenchmarkSyncPlannerScore times one round's scoring of every client
// (the simulator's MLP, 8 554 parameters per delta).
func BenchmarkSyncPlannerScore(b *testing.B) {
	for _, clients := range []int{10, 100} {
		p, e, ids := scoredEngine(clients, 83)
		b.Run(fmt.Sprint(clients), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p.score(ids, e)
			}
		})
	}
}

// TestScoreAtMatchesScatteredScore: a client scoring against ĝ as the
// wire hands it over — its support, every other coordinate +0 — gets the
// bits Score gives against the scattered dense ĝ, for both metrics, a
// sparse and an empty support, and a local delta with ±Inf and NaN off
// the support.
func TestScoreAtMatchesScatteredScore(t *testing.T) {
	r := stats.NewRNG(29)
	const n = 4000
	for _, metric := range []SimilarityMetric{Cosine, NegL2} {
		u := DefaultUtility()
		u.Metric = metric
		for _, every := range []int{7, 0} {
			for _, off := range []float64{0.5, math.Inf(-1), math.NaN()} {
				local, g := make([]float64, n), make([]float64, n)
				idx, vals := []int32{}, []float64{}
				for i := range local {
					local[i] = r.Norm()
					if every > 0 && i%every == 1 {
						g[i] = r.Norm() * 1e-3
						idx, vals = append(idx, int32(i)), append(vals, g[i])
					}
				}
				local[2] = off // never on the support
				got, want := u.ScoreAt(2e6, 5e6, tensor.DeltaOf(local), idx, vals), u.Score(2e6, 5e6, local, g)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%v, support every %d, local[2] = %v: %v (%x), scattered %v (%x)",
						metric, every, off, got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
		}
	}
}
