package shard

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"adafl/internal/compress"
	"adafl/internal/obs"
	"adafl/internal/stats"
)

// mkSparse builds a valid sparse update message.
func mkSparse(dim int, idx []int32, vals []float64) *compress.Sparse {
	return &compress.Sparse{Dim: dim, Indices: idx, Values: vals}
}

// randomUpdates generates n valid sparse updates over dim coordinates.
func randomUpdates(n, dim, nnz int, seed uint64) []Update {
	rng := stats.NewRNG(seed)
	ups := make([]Update, n)
	for c := range ups {
		idx := make([]int32, nnz)
		vals := make([]float64, nnz)
		seen := map[int32]bool{}
		for i := range idx {
			v := int32(rng.Intn(dim))
			for seen[v] {
				v = int32(rng.Intn(dim))
			}
			seen[v] = true
			idx[i] = v
			vals[i] = rng.Norm()
		}
		ups[c] = Update{Client: c, Weight: 0.5 + rng.Float64(), Delta: mkSparse(dim, idx, vals)}
	}
	return ups
}

// referenceFold is the buffered two-phase aggregation the tree must
// reproduce: fold in slice order, one weight sum.
func referenceFold(dim int, ups []Update, unweighted bool) *Partial {
	p := NewPartial(dim)
	for _, u := range ups {
		p.Fold(u, unweighted)
	}
	return p
}

func runTree(t *testing.T, cfg Config, ups []Update) (*Partial, []QuarantineRecord) {
	t.Helper()
	tree := NewTree(cfg)
	for _, u := range ups {
		tree.Ingest(0, u)
	}
	return tree.Finish()
}

// TestTreeS1Bitwise: with one shard and sequential ingest the streaming
// fold is the buffered fold — bit for bit, weights included.
func TestTreeS1Bitwise(t *testing.T) {
	const dim = 257
	ups := randomUpdates(40, dim, 16, 1)
	want := referenceFold(dim, ups, false)
	got, quars := runTree(t, Config{Shards: 1, Dim: dim}, ups)
	if len(quars) != 0 {
		t.Fatalf("unexpected quarantines: %+v", quars)
	}
	if got.Count != want.Count || got.WeightSum != want.WeightSum {
		t.Fatalf("count/weight: got %d/%v want %d/%v", got.Count, got.WeightSum, want.Count, want.WeightSum)
	}
	for i := range want.Sum {
		if got.Sum[i] != want.Sum[i] {
			t.Fatalf("Sum[%d] differs bitwise: %v vs %v", i, got.Sum[i], want.Sum[i])
		}
	}
}

// TestTreeMultiShardTolerance: S>1 reassociates the summation, which in
// fixed point changes nothing — the result is the reference fold, bit for
// bit, weights included.
func TestTreeMultiShardTolerance(t *testing.T) {
	const dim = 300
	ups := randomUpdates(64, dim, 24, 2)
	want := referenceFold(dim, ups, false)
	for _, s := range []int{2, 3, 7} {
		got, _ := runTree(t, Config{Shards: s, Dim: dim}, ups)
		if !samePartial(got, want) {
			t.Fatalf("S=%d: merged partial differs from the reference fold", s)
		}
	}
}

// samePartial reports whether two partials hold the same bits.
func samePartial(a, b *Partial) bool {
	return a.Count == b.Count && a.WeightSum == b.WeightSum && a.Bound == b.Bound &&
		a.CtrlCount == b.CtrlCount && slices.Equal(a.Sum, b.Sum) && slices.Equal(a.CtrlSum, b.CtrlSum)
}

// val is word i of a sum as a float64.
func val(words []int64, i int) float64 { return float64(words[i]) / sumScale }

// TestFoldOrderFree: the same 64 updates folded in 20 random orders, at
// S ∈ {1, 2, 7}, and from 8 goroutines at once give one partial, bit for
// bit — Sum, weight, count and bound.
func TestFoldOrderFree(t *testing.T) {
	const dim = 500
	ups := randomUpdates(64, dim, 40, 5)
	for _, u := range ups {
		for i := range u.Delta.Values {
			u.Delta.Values[i] *= 1e-3 // the magnitudes the workloads fold
		}
	}
	want := referenceFold(dim, ups, false)
	rng := stats.NewRNG(9)
	order := make([]Update, len(ups))
	for k := 0; k < 20; k++ {
		copy(order, ups)
		for i := len(order) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			order[i], order[j] = order[j], order[i]
		}
		for _, s := range []int{1, 2, 7} {
			if got, _ := runTree(t, Config{Shards: s, Dim: dim}, order); !samePartial(got, want) {
				t.Fatalf("order %d, S=%d: merged partial differs from the slice-order fold", k, s)
			}
		}
	}
	for _, s := range []int{1, 2, 7} {
		tree := NewTree(Config{Shards: s, Dim: dim})
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := g; i < len(ups); i += 8 {
					tree.Ingest(0, ups[i])
				}
			}()
		}
		wg.Wait()
		if got, _ := tree.Finish(); !samePartial(got, want) {
			t.Fatalf("S=%d: concurrent ingest differs from the slice-order fold", s)
		}
	}
}

// TestFoldSubtractsExactly: the rounding is sign-symmetric, so folding
// −Δ takes back exactly what folding Δ added.
func TestFoldSubtractsExactly(t *testing.T) {
	const dim = 64
	ups := randomUpdates(16, dim, 12, 6)
	p := referenceFold(dim, ups[:8], false)
	want := append([]int64(nil), p.Sum...)
	for _, u := range ups[8:] {
		p.Fold(u, false)
	}
	for _, u := range ups[8:] {
		neg := &compress.Sparse{Dim: dim, Indices: u.Delta.Indices, Values: make([]float64, u.Delta.NNZ())}
		for i, v := range u.Delta.Values {
			neg.Values[i] = -v
		}
		p.Fold(Update{Client: u.Client, Weight: u.Weight, Delta: neg}, false)
	}
	if !slices.Equal(p.Sum, want) {
		t.Fatal("folding −Δ after Δ did not restore the sum bit for bit")
	}
}

// TestUnfoldTakesBackCtrl: unfold takes an update back out whole, its
// SCAFFOLD control delta, weight, count and bound included.
func TestUnfoldTakesBackCtrl(t *testing.T) {
	const dim = 32
	ups := randomUpdates(3, dim, 6, 12)
	for i := range ups {
		ups[i].Ctrl = make([]float64, dim)
		ups[i].Ctrl[i+1] = 0.25 * float64(i+1)
	}
	want := referenceFold(dim, ups[:2], false)
	got := referenceFold(dim, ups, false)
	u := ups[2]
	_, u.MaxAbs, _ = u.Delta.Check(dim)
	got.unfold(u)
	if !samePartial(got, want) {
		t.Fatalf("unfold left count %d, ctrl count %d; want %d, %d and the same bits",
			got.Count, got.CtrlCount, want.Count, want.CtrlCount)
	}
}

// TestFoldWindow: an update with a product of 2⁶ or more is quarantined by
// name, at the tree and at the buffered screen, and an aggregate whose
// bound reaches 2¹³ is refused at apply with the target untouched.
func TestFoldWindow(t *testing.T) {
	const dim = 8
	giant := func(c int) Update {
		return Update{Client: c, Weight: 0.5, Delta: mkSparse(dim, []int32{1, 2}, []float64{0.25, 1e308})}
	}
	got, quars := runTree(t, Config{Shards: 1, Dim: dim, MaxNormMult: 10}, []Update{
		{Client: 0, Weight: 0.5, Delta: mkSparse(dim, []int32{1}, []float64{127})}, // 63.5: inside
		giant(1), giant(2),
		{Client: 3, Weight: 2, Delta: mkSparse(dim, []int32{3}, []float64{32})}, // 64: outside
	})
	if got.Count != 1 || len(quars) != 3 {
		t.Fatalf("folded %d, quarantined %+v; want 1 and 3", got.Count, quars)
	}
	for _, q := range quars {
		if !strings.Contains(q.Reason, "outside the fold window") {
			t.Errorf("client %d quarantined as %q, want the fold window", q.ClientID, q.Reason)
		}
	}
	kept, quars := Screen(0, dim, 0, []Item{
		{Client: 1, Upd: giant(1).Delta, Weight: 0.5},
		{Client: 2, Upd: mkSparse(dim, []int32{0}, []float64{1}), Weight: 0.5},
	}, nil)
	if len(kept) != 1 || len(quars) != 1 || quars[0].ClientID != 1 ||
		!strings.Contains(quars[0].Reason, "outside the fold window") {
		t.Fatalf("screen kept %+v, quarantined %+v; want client 1 out by the fold window", kept, quars)
	}

	// 200 updates of 63 each: every one inside, their sum past 2¹³.
	p := NewPartial(dim)
	for c := 0; c < 200; c++ {
		p.Fold(Update{Client: c, Weight: 1, Delta: mkSparse(dim, []int32{4}, []float64{63})}, false)
	}
	dst := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	if err := p.AddTo(dst, 1); err == nil || !strings.Contains(err.Error(), "fold window") {
		t.Fatalf("AddTo past the window: err = %v", err)
	}
	if !slices.Equal(dst, []float64{1, 2, 3, 4, 5, 6, 7, 8}) {
		t.Fatalf("a refused aggregate moved its target: %v", dst)
	}
}

// TestTreeFixedOrderDeterminism: same shard count, same ingest order →
// bitwise identical merged partials, run after run.
func TestTreeFixedOrderDeterminism(t *testing.T) {
	const dim = 128
	ups := randomUpdates(50, dim, 12, 3)
	a, _ := runTree(t, Config{Shards: 4, Dim: dim}, ups)
	b, _ := runTree(t, Config{Shards: 4, Dim: dim}, ups)
	if a.WeightSum != b.WeightSum || a.Count != b.Count {
		t.Fatalf("scalar state differs: %v/%d vs %v/%d", a.WeightSum, a.Count, b.WeightSum, b.Count)
	}
	for i := range a.Sum {
		if a.Sum[i] != b.Sum[i] {
			t.Fatalf("Sum[%d] not deterministic: %v vs %v", i, a.Sum[i], b.Sum[i])
		}
	}
}

// TestTreeEdgeCases covers the degenerate rounds the aggregators must
// survive: no updates at all, all-zero weights, malformed updates
// dropped mid-stream, and a round where every update is rejected.
func TestTreeEdgeCases(t *testing.T) {
	const dim = 32
	t.Run("empty round", func(t *testing.T) {
		got, quars := runTree(t, Config{Shards: 3, Dim: dim}, nil)
		if got.Count != 0 || got.WeightSum != 0 || len(quars) != 0 {
			t.Fatalf("empty round produced state: %+v %+v", got, quars)
		}
	})
	t.Run("zero weights", func(t *testing.T) {
		ups := []Update{
			{Client: 0, Weight: 0, Delta: mkSparse(dim, []int32{1}, []float64{2})},
			{Client: 1, Weight: 0, Delta: mkSparse(dim, []int32{2}, []float64{3})},
		}
		got, _ := runTree(t, Config{Shards: 2, Dim: dim}, ups)
		if got.Count != 2 || got.WeightSum != 0 {
			t.Fatalf("zero-weight fold: count %d weight %v", got.Count, got.WeightSum)
		}
		// The caller's renormalisation guard (WeightSum == 0 → no-op)
		// is what keeps this from dividing by zero; Sum still holds the
		// raw zero-scaled fold.
		for i, v := range got.Sum {
			if v != 0 {
				t.Fatalf("Sum[%d] = %v for zero-weight folds", i, v)
			}
		}
	})
	t.Run("malformed dropped", func(t *testing.T) {
		good := Update{Client: 0, Weight: 1, Delta: mkSparse(dim, []int32{3}, []float64{1})}
		bad := Update{Client: 1, Weight: 1, Delta: mkSparse(dim, []int32{int32(dim) + 5}, []float64{9})}
		nilMsg := Update{Client: 2, Weight: 1, Delta: nil}
		got, quars := runTree(t, Config{Shards: 2, Dim: dim}, []Update{good, bad, nilMsg})
		if got.Count != 1 || got.Weight() != 1 {
			t.Fatalf("kept %d updates, weight %v", got.Count, got.Weight())
		}
		if len(quars) != 2 {
			t.Fatalf("quarantined %d, want 2: %+v", len(quars), quars)
		}
		for _, q := range quars {
			if q.ClientID != 1 && q.ClientID != 2 {
				t.Errorf("quarantined wrong client %d", q.ClientID)
			}
		}
	})
	t.Run("all evicted", func(t *testing.T) {
		ups := []Update{
			{Client: 0, Weight: 1, Delta: mkSparse(dim, []int32{0}, []float64{math.NaN()})},
			{Client: 1, Weight: 1, Delta: mkSparse(dim, []int32{0, 1}, []float64{1})},
		}
		got, quars := runTree(t, Config{Shards: 2, Dim: dim}, ups)
		if got.Count != 0 || got.WeightSum != 0 {
			t.Fatalf("all-evicted round folded state: %+v", got)
		}
		if len(quars) != 2 {
			t.Fatalf("quarantined %d, want 2", len(quars))
		}
	})
}

// TestTreeUnweightedAndCtrl: SCAFFOLD folds with scale 1 through
// Partial.Fold(u, true), the path fl's aggregators take, and a control
// variate folded on one shard survives the tree's cross-shard merge.
func TestTreeUnweightedAndCtrl(t *testing.T) {
	const dim = 16
	ctrl := make([]float64, dim)
	ctrl[4] = 2.5
	ups := []Update{
		{Client: 0, Weight: 7, Delta: mkSparse(dim, []int32{1}, []float64{1}), Ctrl: ctrl},
		{Client: 1, Weight: 9, Delta: mkSparse(dim, []int32{1}, []float64{3})},
	}
	got := referenceFold(dim, ups, true)
	if got.Weight() != 2 || got.Count != 2 {
		t.Fatalf("unweighted fold: weight %v count %d", got.Weight(), got.Count)
	}
	if val(got.Sum, 1) != 4 {
		t.Fatalf("Sum[1] = %v, want 4", val(got.Sum, 1))
	}
	if got.CtrlCount != 1 || got.CtrlSum == nil || val(got.CtrlSum, 4) != 2.5 {
		t.Fatalf("ctrl partial wrong: count %d sum %+v", got.CtrlCount, got.CtrlSum)
	}
	merged, _ := runTree(t, Config{Shards: 2, Dim: dim}, ups)
	if merged.Weight() != 16 || val(merged.Sum, 1) != 34 {
		t.Fatalf("weighted tree: weight %v Sum[1] %v, want 16 and 34", merged.Weight(), val(merged.Sum, 1))
	}
	if merged.CtrlCount != 1 || merged.CtrlSum == nil || val(merged.CtrlSum, 4) != 2.5 {
		t.Fatalf("ctrl partial lost in the merge: count %d sum %+v", merged.CtrlCount, merged.CtrlSum)
	}
}

// TestTreeRoundMedianNormGate: an absurd-magnitude update is judged
// against the round median at Finish and quarantined; the honest ones
// fold through.
func TestTreeRoundMedianNormGate(t *testing.T) {
	const dim = 64
	tree := NewTree(Config{Shards: 1, Dim: dim, MaxNormMult: 5})
	for c := 0; c < 4; c++ {
		tree.Ingest(2, Update{Client: c, Weight: 1, Delta: mkSparse(dim, []int32{int32(c)}, []float64{1})})
	}
	tree.Ingest(2, Update{Client: 9, Weight: 1, Delta: mkSparse(dim, []int32{7}, []float64{50})})
	got, quars := tree.Finish()
	if got.Count != 4 {
		t.Fatalf("folded %d honest updates, want 4", got.Count)
	}
	if len(quars) != 1 || quars[0].ClientID != 9 || quars[0].Round != 2 {
		t.Fatalf("outlier not quarantined: %+v", quars)
	}
	if !strings.Contains(quars[0].Reason, "round median") || quars[0].Norm != 50 {
		t.Fatalf("quarantine record incomplete: %+v", quars[0])
	}
	// Gate state is per round: after Finish the same outlier, alone in
	// its round, is below the gate's floor and folds.
	tree.Ingest(3, Update{Client: 9, Weight: 1, Delta: mkSparse(dim, []int32{7}, []float64{50})})
	got, quars = tree.Finish()
	if got.Count != 1 || len(quars) != 0 {
		t.Fatalf("gate state leaked across rounds: count %d quars %+v", got.Count, quars)
	}
}

// TestTreeBackpressure: 20 goroutines ingest at once into three
// shards. Each shard's lock serialises its folds, so nothing is lost:
// count, weight sum, the folded sum and received_total all balance. The
// weights and values are small dyadic numbers, so every sum is exact in
// any fold order.
func TestTreeBackpressure(t *testing.T) {
	const (
		dim       = 8
		producers = 20
		each      = 50
	)
	reg := obs.NewRegistry()
	tree := NewTree(Config{Shards: 3, Dim: dim, Metrics: reg})
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				c := p*each + i
				tree.Ingest(0, Update{Client: c, Weight: 0.5, Delta: mkSparse(dim, []int32{int32(c % dim)}, []float64{2})})
			}
		}()
	}
	wg.Wait()
	got, quars := tree.Finish()
	const n = producers * each
	if got.Count != n || got.Weight() != 0.5*n || len(quars) != 0 {
		t.Fatalf("concurrent ingest: folded %d (weight %v, %d quarantined), want %d (weight %v)",
			got.Count, got.Weight(), len(quars), n, 0.5*n)
	}
	for i := range got.Sum {
		if v := val(got.Sum, i); v != 0.5*2*n/dim {
			t.Fatalf("Sum[%d] = %v, want %v", i, v, 0.5*2*n/dim)
		}
	}
	var received int64
	for s := 0; s < 3; s++ {
		received += reg.Counter(fmt.Sprintf(`adafl_shard_received_total{shard="%d"}`, s)).Value()
	}
	if received != n {
		t.Fatalf("received counters sum to %d, want %d", received, n)
	}
}

// TestTreeSnapshotRestore: the tree keeps nothing across Finish, so a
// second round on a reused tree is bitwise a fresh tree's round — the
// merged partial and the norm gate's judgments included. Round one feeds
// norms four times larger; were they still in the gate, round two's
// outlier (norm ≈ 208, inside the fold window) would pass under the
// inflated median.
func TestTreeSnapshotRestore(t *testing.T) {
	const dim = 96
	cfg := Config{Shards: 3, Dim: dim, MaxNormMult: 50}
	round := func(seed uint64, scale float64) []Update {
		ups := randomUpdates(30, dim, 8, seed)
		for _, u := range ups {
			for i := range u.Delta.Values {
				u.Delta.Values[i] *= scale
			}
		}
		// One outlier per shard, after that shard's quorum.
		for c := 0; c < cfg.Shards; c++ {
			idx, vals := make([]int32, 48), make([]float64, 48)
			for i := range idx {
				idx[i], vals[i] = int32(i), 30
			}
			ups = append(ups, Update{Client: c, Weight: 1, Delta: mkSparse(dim, idx, vals)})
		}
		return ups
	}
	fresh := NewTree(cfg)
	for _, u := range round(8, 1) {
		fresh.Ingest(1, u)
	}
	want, wantQuars := fresh.Finish()

	reused := NewTree(cfg)
	for _, u := range round(7, 4) {
		reused.Ingest(0, u)
	}
	first, _ := reused.Finish()
	for _, u := range round(8, 1) {
		reused.Ingest(1, u)
	}
	got, quars := reused.Finish()
	if got != first {
		t.Fatal("Finish did not reuse its merged partial")
	}
	if len(wantQuars) != cfg.Shards || !reflect.DeepEqual(quars, wantQuars) {
		t.Fatalf("reused tree quarantined %+v, fresh tree %+v (want one per shard)", quars, wantQuars)
	}
	if got.Count != want.Count || got.WeightSum != want.WeightSum {
		t.Fatalf("reused scalars differ: %d/%v vs %d/%v", got.Count, got.WeightSum, want.Count, want.WeightSum)
	}
	for i := range want.Sum {
		if got.Sum[i] != want.Sum[i] {
			t.Fatalf("reused Sum[%d] differs: %v vs %v", i, got.Sum[i], want.Sum[i])
		}
	}
}

// TestTreeFinishAllocatesNothing: once a tree has seen a round, a round of
// Ingest and Finish allocates nothing — the shards' partials and norm
// gates and the merged result are all reused.
func TestTreeFinishAllocatesNothing(t *testing.T) {
	const dim = 512
	ups := randomUpdates(32, dim, 16, 11)
	tree := NewTree(Config{Shards: 3, Dim: dim, MaxNormMult: 1e6, Metrics: obs.NewRegistry()})
	allocs := testing.AllocsPerRun(20, func() {
		for _, u := range ups {
			tree.Ingest(0, u)
		}
		tree.Finish()
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per round, want 0", allocs)
	}
}

// TestValidateExactlyOncePerUpdate pins the hot-path contract: the
// streaming ingest checks each update exactly once, malformed or not, and
// the fold itself never checks it again.
func TestValidateExactlyOncePerUpdate(t *testing.T) {
	const dim = 16
	ups := []Update{
		{Client: 0, Weight: 1, Delta: mkSparse(dim, []int32{1}, []float64{1})},
		{Client: 1, Weight: 1, Delta: mkSparse(dim, []int32{99}, []float64{1})}, // out of range
		{Client: 2, Weight: 1, Delta: mkSparse(dim, []int32{2}, []float64{2})},
	}
	before := compress.CheckCalls()
	_, quars := runTree(t, Config{Shards: 2, Dim: dim}, ups)
	if got := compress.CheckCalls() - before; got != int64(len(ups)) {
		t.Fatalf("ingest ran %d checks for %d updates", got, len(ups))
	}
	if len(quars) != 1 {
		t.Fatalf("quarantined %d, want 1", len(quars))
	}
}

// TestTreeMetrics: the stripe-labelled instrument set reflects a round.
// Which stripe an ingesting goroutine picks is its core's, so the test
// sums every series over the stripes.
func TestTreeMetrics(t *testing.T) {
	const dim, stripes = 16, 2
	reg := obs.NewRegistry()
	tree := NewTree(Config{Shards: stripes, Dim: dim, Metrics: reg})
	for c := 0; c < 6; c++ {
		tree.Ingest(0, Update{Client: c, Weight: 1, Delta: mkSparse(dim, []int32{0}, []float64{1})})
	}
	tree.Ingest(0, Update{Client: 6, Weight: 1, Delta: nil}) // a structural reject
	tree.Finish()

	var received, evicted, folds int64
	for s := 0; s < stripes; s++ {
		label := fmt.Sprintf(`{shard="%d"}`, s)
		received += reg.Counter("adafl_shard_received_total" + label).Value()
		evicted += reg.Counter("adafl_shard_evicted_total" + label).Value()
		folds += reg.Histogram("adafl_shard_fold_seconds"+label, FoldLatencyBuckets).Count()
	}
	if received != 7 || evicted != 1 || folds != 6 {
		t.Fatalf("received %d, evicted %d, folds timed %d; want 7, 1 and 6", received, evicted, folds)
	}
	if n := reg.Histogram("adafl_shard_merge_seconds", obs.LatencyBuckets).Count(); n != 1 {
		t.Fatalf("merge latency count = %d, want 1", n)
	}
}

// TestTreeS1HoldsOnePartial: a one-stripe tree allocates one Dim-sized
// partial, and Finish returns it — there is no second, merged copy.
func TestTreeS1HoldsOnePartial(t *testing.T) {
	const dim = 1 << 16 // 512 KiB of words: far above the tree's other allocations
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tree := NewTree(Config{Shards: 1, Dim: dim})
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 8*dim*3/2 {
		t.Fatalf("NewTree at S = 1 allocated %d bytes, want one %d-byte partial", got, 8*dim)
	}
	tree.Ingest(0, Update{Client: 0, Weight: 1, Delta: mkSparse(dim, []int32{1}, []float64{1})})
	if got, _ := tree.Finish(); got != tree.stripes[0].part {
		t.Fatal("Finish returned a partial other than its stripe's")
	}
}

// TestScreenKeepsInputOrder: the buffered screen keeps the surviving
// items in input order and quarantines the rest.
func TestScreenKeepsInputOrder(t *testing.T) {
	const dim = 8
	items := []Item{
		{Client: 5, Upd: mkSparse(dim, []int32{1}, []float64{1})},
		{Client: 6, Upd: nil},
		{Client: 7, Upd: mkSparse(dim, []int32{2}, []float64{2})},
	}
	kept, quars := Screen(1, dim, 0, items, nil)
	if len(kept) != 2 || kept[0].Client != 5 || kept[1].Client != 7 {
		t.Fatalf("kept items wrong: %+v", kept)
	}
	if len(quars) != 1 || quars[0].ClientID != 6 {
		t.Fatalf("quarantine wrong: %+v", quars)
	}
}

// TestJudgeOrderIndependent: one round of four honest updates, a norm
// outlier inside the fold window, a structural reject and a window reject,
// fed in every order into trees of S = 1, 2 and 3. Every run gives the same
// quarantine records, in the same order, and the same partial bits, and
// they are Screen's records and the fold of Screen's kept items.
func TestJudgeOrderIndependent(t *testing.T) {
	const dim = 16
	ups := []Update{
		{Client: 0, Weight: 0.5, Delta: mkSparse(dim, []int32{0, 3}, []float64{0.25, -0.5})},
		{Client: 1, Weight: 1, Delta: mkSparse(dim, []int32{1, 4}, []float64{-0.375, 0.25})},
		{Client: 2, Weight: 0.75, Delta: mkSparse(dim, []int32{2, 9}, []float64{0.5, 0.125})},
		{Client: 3, Weight: 1.5, Delta: mkSparse(dim, []int32{5, 6}, []float64{0.3, -0.4})},
		{Client: 4, Weight: 1, Delta: mkSparse(dim, []int32{7, 8}, []float64{20, -30})},    // norm outlier
		{Client: 5, Weight: 1, Delta: mkSparse(dim, []int32{int32(dim)}, []float64{1})},    // out of range
		{Client: 6, Weight: 2, Delta: mkSparse(dim, []int32{10, 11}, []float64{40, 0.25})}, // product 80
	}
	const mult = 4
	items := make([]Item, len(ups))
	for i, u := range ups {
		items[i] = Item{Client: u.Client, Upd: u.Delta, Weight: u.Weight}
	}
	kept, wantQuars := Screen(0, dim, mult, items, nil)
	want := NewPartial(dim)
	for _, it := range kept {
		want.Fold(Update{Client: it.Client, Weight: it.Weight, Delta: it.Upd, MaxAbs: it.MaxAbs}, false)
	}
	if want.Count != 4 || len(wantQuars) != 3 || wantQuars[2].ClientID != 4 ||
		!strings.Contains(wantQuars[2].Reason, "round median") {
		t.Fatalf("Screen kept %d and quarantined %+v; want the honest four kept and client 4 gated last", want.Count, wantQuars)
	}

	trees := []*Tree{
		NewTree(Config{Shards: 1, Dim: dim, MaxNormMult: mult}),
		NewTree(Config{Shards: 2, Dim: dim, MaxNormMult: mult}),
		NewTree(Config{Shards: 3, Dim: dim, MaxNormMult: mult}),
	}
	order := slices.Clone(ups)
	runs := 0
	var permute func(k int)
	permute = func(k int) {
		if k == len(order) {
			runs++
			for _, tree := range trees {
				for _, u := range order {
					tree.Ingest(0, u)
				}
				got, quars := tree.Finish()
				if !samePartial(got, want) || !reflect.DeepEqual(quars, wantQuars) {
					t.Fatalf("S=%d, order %v: quarantined %+v, count %d; want Screen's %+v, count %d",
						len(tree.stripes), clients(order), quars, got.Count, wantQuars, want.Count)
				}
			}
			return
		}
		for i := k; i < len(order); i++ {
			order[k], order[i] = order[i], order[k]
			permute(k + 1)
			order[k], order[i] = order[i], order[k]
		}
	}
	permute(0)
	if runs != 5040 {
		t.Fatalf("ran %d orders, want all 5040", runs)
	}
}

func clients(ups []Update) []int {
	ids := make([]int, len(ups))
	for i, u := range ups {
		ids[i] = u.Client
	}
	return ids
}
