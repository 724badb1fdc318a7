package fl

import (
	"testing"

	"adafl/internal/compress"
	"adafl/internal/shard"
)

// shardApply routes updates through a fresh tree and applies the merged
// partial — the streaming counterpart of agg.Apply for tests.
func shardApply(t *testing.T, pa Aggregator, global []float64, ups []Update, shards int) {
	t.Helper()
	tree := shard.NewTree(shard.Config{
		Shards: shards, Dim: len(global), Unweighted: pa.PartialUnweighted(),
	})
	defer tree.Close()
	for _, u := range ups {
		tree.Ingest(0, shard.Update{Client: u.Client, Weight: u.Weight, Delta: u.Delta, Ctrl: u.CtrlDelta})
	}
	part, _ := tree.Finish()
	pa.ApplyPartial(global, part)
}

// TestApplyPartialBitwiseS1: for every aggregator, a
// single-shard streaming round moves the global model bit for bit as
// the buffered Apply — the core numerical-equivalence contract.
func TestApplyPartialBitwiseS1(t *testing.T) {
	const dim = 64
	mkUpdates := func(ctrl bool) []Update {
		ups := make([]Update, 9)
		for c := range ups {
			idx := []int32{int32(c), int32((c * 7) % dim)}
			vals := []float64{0.1 * float64(c+1), -0.37 * float64(c+2)}
			ups[c] = Update{
				Client: c, Weight: 0.05 * float64(c+1),
				Delta: &compress.Sparse{Dim: dim, Indices: idx, Values: vals},
			}
			if ctrl {
				cv := make([]float64, dim)
				cv[c] = float64(c) - 3.5
				ups[c].CtrlDelta = cv
			}
		}
		return ups
	}
	cases := []struct {
		name string
		mk   func() Aggregator
		ctrl bool
	}{
		{"fedavg", func() Aggregator { return FedAvg{} }, false},
		{"fedadam", func() Aggregator { return NewFedAdam(0.1) }, false},
		{"scaffold", func() Aggregator { return NewScaffold(1, 12) }, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ups := mkUpdates(tc.ctrl)
			buffered := tc.mk()
			streamed := tc.mk()
			gBuf := make([]float64, dim)
			gStr := make([]float64, dim)
			// Two rounds, so stateful aggregators (Adam moments, SCAFFOLD
			// c) must agree bitwise too.
			for round := 0; round < 2; round++ {
				buffered.Apply(gBuf, ups)
				shardApply(t, streamed, gStr, ups, 1)
			}
			for i := range gBuf {
				if gBuf[i] != gStr[i] {
					t.Fatalf("global[%d] differs bitwise: %v vs %v", i, gBuf[i], gStr[i])
				}
			}
			if sc, ok := buffered.(*Scaffold); ok {
				cBuf, cStr := sc.C(dim), streamed.(*Scaffold).C(dim)
				for i := range cBuf {
					if cBuf[i] != cStr[i] {
						t.Fatalf("control variate[%d] differs: %v vs %v", i, cBuf[i], cStr[i])
					}
				}
			}
		})
	}
}
