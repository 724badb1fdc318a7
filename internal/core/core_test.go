package core

import (
	"math"
	"testing"
	"testing/quick"

	"adafl/internal/stats"
	"adafl/internal/tensor"
)

func TestSimilarityCosineRange(t *testing.T) {
	u := DefaultUtility()
	a := []float64{1, 0}
	if s := u.SimilarityAt(tensor.DeltaOf(a), nil, a); math.Abs(s-1) > 1e-12 {
		t.Fatalf("aligned similarity %v, want 1", s)
	}
	if s := u.SimilarityAt(tensor.DeltaOf(a), nil, []float64{-1, 0}); math.Abs(s) > 1e-12 {
		t.Fatalf("opposed similarity %v, want 0", s)
	}
	if s := u.SimilarityAt(tensor.DeltaOf(a), nil, []float64{0, 1}); math.Abs(s-0.5) > 1e-12 {
		t.Fatalf("orthogonal similarity %v, want 0.5", s)
	}
}

func TestSimilarityNegL2(t *testing.T) {
	u := UtilityConfig{SimWeight: 1, Metric: NegL2}
	a := []float64{3, 0} // direction (1,0)
	if s := u.SimilarityAt(tensor.DeltaOf(a), nil, []float64{7, 0}); math.Abs(s-1) > 1e-12 {
		t.Fatalf("same-direction NegL2 %v, want 1 (scale invariant)", s)
	}
	opp := u.SimilarityAt(tensor.DeltaOf(a), nil, []float64{-1, 0})
	if opp >= 0.5 {
		t.Fatalf("opposed NegL2 %v should be < 0.5", opp)
	}
	if s := u.SimilarityAt(tensor.DeltaOf(a), nil, []float64{0, 0}); s != 0.5 {
		t.Fatalf("zero-vector NegL2 %v, want neutral 0.5", s)
	}
}

func TestScoreMonotoneInBandwidth(t *testing.T) {
	u := DefaultUtility()
	g := []float64{1, 1}
	low := u.Score(1e4, 1e4, g, g)
	high := u.Score(1e7, 1e7, g, g)
	if high <= low {
		t.Fatalf("score not increasing in bandwidth: %v vs %v", low, high)
	}
}

func TestScoreMonotoneInSimilarity(t *testing.T) {
	u := DefaultUtility()
	ref := []float64{1, 0}
	aligned := u.Score(1e6, 1e6, []float64{1, 0}, ref)
	orthogonal := u.Score(1e6, 1e6, []float64{0, 1}, ref)
	opposed := u.Score(1e6, 1e6, []float64{-1, 0}, ref)
	if !(aligned > orthogonal && orthogonal > opposed) {
		t.Fatalf("score ordering broken: %v, %v, %v", aligned, orthogonal, opposed)
	}
}

func TestScoreInUnitIntervalProperty(t *testing.T) {
	u := DefaultUtility()
	f := func(seed uint64, bwRaw uint32) bool {
		r := stats.NewRNG(seed)
		g := make([]float64, 8)
		h := make([]float64, 8)
		for i := range g {
			g[i] = r.Norm()
			h[i] = r.Norm()
		}
		bw := float64(bwRaw)
		s := u.Score(bw, bw, g, h)
		return s >= 0 && s <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBandwidthTermSaturates(t *testing.T) {
	u := DefaultUtility()
	at := u.bandwidthTerm(u.BwRef, u.BwRef)
	above := u.bandwidthTerm(u.BwRef*100, u.BwRef*100)
	if math.Abs(at-1) > 1e-9 || above != 1 {
		t.Fatalf("saturation broken: at=%v above=%v", at, above)
	}
	if u.bandwidthTerm(0, 1e6) != 0 {
		t.Fatal("zero uplink should zero the term")
	}
}

func TestBandwidthTermUsesConstrainingLink(t *testing.T) {
	u := DefaultUtility()
	// (slow up, fast down) must equal (fast up, slow down).
	a := u.bandwidthTerm(1e4, 1e7)
	b := u.bandwidthTerm(1e7, 1e4)
	if a != b {
		t.Fatalf("asymmetric bandwidth term: %v vs %v", a, b)
	}
}

func TestSelectClientsAlgorithm1(t *testing.T) {
	scores := []float64{0.9, 0.2, 0.7, 0.55, 0.4}
	sel := SelectClients(scores, 2, 0.5)
	if len(sel) != 2 {
		t.Fatalf("selected %d, want 2", len(sel))
	}
	if sel[0].Client != 0 || sel[1].Client != 2 {
		t.Fatalf("wrong selection: %+v", sel)
	}
	// Invariants from Algorithm 1's "Subject to" block.
	for _, s := range sel {
		if s.Score < 0.5 {
			t.Fatal("selected below threshold")
		}
	}
	for _, s := range sel {
		for i, sc := range scores {
			if i != 0 && i != 2 && sc > s.Score {
				t.Fatal("unselected client outranks selected")
			}
		}
	}
}

func TestSelectClientsFewerThanK(t *testing.T) {
	sel := SelectClients([]float64{0.1, 0.9, 0.2}, 5, 0.5)
	if len(sel) != 1 || sel[0].Client != 1 {
		t.Fatalf("K'=min(K,|filtered|) broken: %+v", sel)
	}
}

func TestSelectClientsEmptyWhenAllBelowTau(t *testing.T) {
	if sel := SelectClients([]float64{0.1, 0.2}, 3, 0.9); len(sel) != 0 {
		t.Fatalf("selected %d from below-threshold pool", len(sel))
	}
}

func TestSelectClientsDeterministicTies(t *testing.T) {
	a := SelectClients([]float64{0.5, 0.5, 0.5}, 2, 0)
	b := SelectClients([]float64{0.5, 0.5, 0.5}, 2, 0)
	if a[0].Client != b[0].Client || a[1].Client != b[1].Client {
		t.Fatal("tie-breaking nondeterministic")
	}
	if a[0].Client != 0 || a[1].Client != 1 {
		t.Fatalf("ties should keep client order: %+v", a)
	}
}

func TestSelectClientsProperty(t *testing.T) {
	f := func(seed uint64, kRaw, tauRaw uint8) bool {
		r := stats.NewRNG(seed)
		scores := make([]float64, 20)
		for i := range scores {
			scores[i] = r.Float64()
		}
		k := int(kRaw%10) + 1
		tau := float64(tauRaw%100) / 100
		sel := SelectClients(scores, k, tau)
		if len(sel) > k {
			return false
		}
		selSet := map[int]bool{}
		minSel := 2.0
		for _, s := range sel {
			if s.Score < tau || scores[s.Client] != s.Score {
				return false
			}
			selSet[s.Client] = true
			if s.Score < minSel {
				minSel = s.Score
			}
		}
		// No unselected above-threshold client may outrank a selected one.
		for i, sc := range scores {
			if !selSet[i] && sc >= tau && sc > minSel && len(sel) == k {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestControllerWarmup(t *testing.T) {
	c := DefaultController()
	if !c.InWarmup(0) || !c.InWarmup(4) || c.InWarmup(5) {
		t.Fatal("warm-up window wrong")
	}
	if r := c.RatioForRank(3, 5, 2); r != c.WarmupRatio {
		t.Fatalf("warm-up ratio %v", r)
	}
	if r := c.RatioForScore(0.9, 2); r != c.WarmupRatio {
		t.Fatalf("warm-up score ratio %v", r)
	}
}

func TestControllerRankInterpolation(t *testing.T) {
	c := DefaultController()
	best := c.RatioForRank(0, 5, 10)
	worst := c.RatioForRank(4, 5, 10)
	mid := c.RatioForRank(2, 5, 10)
	if best != c.MinRatio {
		t.Fatalf("best rank ratio %v, want %v", best, c.MinRatio)
	}
	if math.Abs(worst-c.MaxRatio) > 1e-9 {
		t.Fatalf("worst rank ratio %v, want %v", worst, c.MaxRatio)
	}
	if !(best < mid && mid < worst) {
		t.Fatalf("interpolation not monotone: %v %v %v", best, mid, worst)
	}
	// Geometric midpoint of 4 and 210 is ~29.
	if math.Abs(mid-math.Sqrt(c.MinRatio*c.MaxRatio)) > 1e-6 {
		t.Fatalf("midpoint %v not geometric", mid)
	}
}

func TestControllerScoreMapping(t *testing.T) {
	c := DefaultController()
	if r := c.RatioForScore(1, 10); r != c.MinRatio {
		t.Fatalf("score 1 ratio %v", r)
	}
	if r := c.RatioForScore(0, 10); math.Abs(r-c.MaxRatio) > 1e-9 {
		t.Fatalf("score 0 ratio %v", r)
	}
	if c.RatioForScore(0.8, 10) >= c.RatioForScore(0.3, 10) {
		t.Fatal("higher score should compress less")
	}
	// Out-of-range scores clamp.
	if c.RatioForScore(2, 10) != c.MinRatio || math.Abs(c.RatioForScore(-1, 10)-c.MaxRatio) > 1e-9 {
		t.Fatal("score clamping broken")
	}
}

func TestControllerSingleClient(t *testing.T) {
	c := DefaultController()
	if r := c.RatioForRank(0, 1, 10); r != c.MinRatio {
		t.Fatalf("single-client ratio %v", r)
	}
}

func TestControllerValidate(t *testing.T) {
	bad := CompressionController{MinRatio: 10, MaxRatio: 5, WarmupRatio: 1}
	defer func() {
		if recover() == nil {
			t.Fatal("invalid bounds accepted")
		}
	}()
	bad.Validate()
}

func TestRatioTracker(t *testing.T) {
	var tr RatioTracker
	for _, r := range []float64{4, 210, 50} {
		tr.Observe(r)
	}
	if tr.MinRatio != 4 || tr.MaxRatio != 210 || tr.Count != 3 {
		t.Fatalf("tracker state %+v", tr)
	}
	if math.Abs(tr.Mean()-88) > 1e-9 {
		t.Fatalf("mean %v", tr.Mean())
	}
	var empty RatioTracker
	if empty.Mean() != 0 {
		t.Fatal("empty tracker mean")
	}
}

func TestDefaultConfigSane(t *testing.T) {
	c := DefaultConfig()
	if c.K != 5 || c.Tau != 0.3 || c.ExploreFrac != 0.8 || c.AsyncAnchor != 0.2 {
		t.Fatalf("unexpected defaults %+v", c)
	}
	c.Compression.Validate()
}

func TestScaleRatiosForModel(t *testing.T) {
	c := DefaultConfig()
	c.ScaleRatiosForModel(431080) // paper CNN: ladder untouched
	if c.Compression.MaxRatio != 210 {
		t.Fatalf("large model ladder clipped: %v", c.Compression.MaxRatio)
	}
	c2 := DefaultConfig()
	c2.ScaleRatiosForModel(9000) // small MLP: capped
	if c2.Compression.MaxRatio != 10 {
		t.Fatalf("small model ladder %v, want 10", c2.Compression.MaxRatio)
	}
	// MinRatio above the cap collapses to the cap instead of inverting.
	c3 := DefaultConfig()
	c3.Compression.MinRatio = 50
	c3.ScaleRatiosForModel(9000)
	if c3.Compression.MinRatio > c3.Compression.MaxRatio {
		t.Fatalf("inverted ladder: %v > %v", c3.Compression.MinRatio, c3.Compression.MaxRatio)
	}
}

func TestSimilarityMetricString(t *testing.T) {
	if Cosine.String() != "cosine" || NegL2.String() != "negl2" {
		t.Fatal("metric names wrong")
	}
}

func TestSelectClientsPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("K=0 accepted")
		}
	}()
	SelectClients([]float64{0.5}, 0, 0)
}
