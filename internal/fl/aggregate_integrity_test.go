package fl

import (
	"math"
	"testing"

	"adafl/internal/compress"
)

// malformedUpdates builds the attack shapes a compromised or buggy
// client could ship: out-of-range indices, mismatched arrays, and a
// wrong declared dimension. Before validation was added, the first
// panicked inside Sparse.AddTo and the others silently corrupted or
// crashed the aggregation.
func malformedUpdates(dim int) []Update {
	return []Update{
		{Client: 7, Weight: 1, Delta: &compress.Sparse{
			Dim: dim, Indices: []int32{0, int32(dim + 3)}, Values: []float64{1, 99}}},
		{Client: 8, Weight: 1, Delta: &compress.Sparse{
			Dim: dim, Indices: []int32{0, 1, 2}, Values: []float64{1}}},
		{Client: 9, Weight: 1, Delta: &compress.Sparse{
			Dim: dim + 5, Indices: []int32{0}, Values: []float64{4}}},
		{Client: 10, Weight: 1, Delta: nil},
	}
}

func honestUpdate(dim int) Update {
	return Update{Client: 0, Weight: 3, Delta: &compress.Sparse{
		Dim: dim, Indices: []int32{1, 4}, Values: []float64{0.5, -0.25}}}
}

// TestAggregatorsRejectMalformedUpdates is the regression test for the
// blind-trust bug: each aggregator fed a mix of one honest and several
// malformed updates must neither panic nor let the malformed ones move
// the model — the result must be bitwise identical to aggregating the
// honest update alone.
func TestAggregatorsRejectMalformedUpdates(t *testing.T) {
	const dim = 8
	aggs := []func() Aggregator{
		func() Aggregator { return FedAvg{} },
		func() Aggregator { return NewFedAdam(0.1) },
		func() Aggregator { return NewScaffold(1, 4) },
	}
	for _, mk := range aggs {
		// Reference: honest update only, fresh aggregator state.
		ref := mk()
		wantGlobal := make([]float64, dim)
		for i := range wantGlobal {
			wantGlobal[i] = float64(i) * 0.1
		}
		ref.Apply(wantGlobal, []Update{honestUpdate(dim)})

		got := mk()
		gotGlobal := make([]float64, dim)
		for i := range gotGlobal {
			gotGlobal[i] = float64(i) * 0.1
		}
		mixed := append([]Update{honestUpdate(dim)}, malformedUpdates(dim)...)
		got.Apply(gotGlobal, mixed) // must not panic
		for i := range wantGlobal {
			if gotGlobal[i] != wantGlobal[i] {
				t.Fatalf("%s: malformed updates perturbed the model at %d: %v vs %v",
					got.Name(), i, gotGlobal[i], wantGlobal[i])
			}
		}
	}
}

// TestAggregatorsEmptyRoundIsNoOp pins the empty-selection audit: a
// round where no client delivered (all scores below τ with no fallback,
// every participant evicted, or total deadline loss) must leave the
// global model bitwise untouched and finite — no 0/0 from an empty
// weight sum, for nil, empty, and zero-weight update sets alike.
func TestAggregatorsEmptyRoundIsNoOp(t *testing.T) {
	const dim = 6
	zeroWeight := []Update{{Client: 0, Weight: 0,
		Delta: &compress.Sparse{Dim: dim, Indices: []int32{1}, Values: []float64{2}}}}
	type testCase struct {
		agg     Aggregator
		name    string
		updates []Update
	}
	var cases []testCase
	for _, agg := range []Aggregator{FedAvg{}, NewFedAdam(0.1), NewScaffold(1, 4)} {
		cases = append(cases,
			testCase{agg, "nil", nil},
			testCase{agg, "empty", []Update{}})
	}
	// Zero total weight divides 0/0 only in the weight-normalizing
	// aggregators; SCAFFOLD averages unweighted, so a zero-weight update
	// legitimately moves it and is excluded here.
	cases = append(cases,
		testCase{FedAvg{}, "zeroWeight", zeroWeight},
		testCase{NewFedAdam(0.1), "zeroWeight", zeroWeight})
	for _, tc := range cases {
		agg, name, updates := tc.agg, tc.name, tc.updates
		{
			global := make([]float64, dim)
			for i := range global {
				global[i] = math.Sqrt(float64(i + 1))
			}
			before := append([]float64(nil), global...)
			agg.Apply(global, updates) // must not panic or divide by zero
			for i := range global {
				if global[i] != before[i] {
					t.Fatalf("%s/%s: empty round moved the model at %d: %v vs %v",
						agg.Name(), name, i, global[i], before[i])
				}
			}
		}
	}
}

// TestAggregatorsAllMalformedIsNoOp: a round where every received
// update is malformed must leave the global model untouched.
func TestAggregatorsAllMalformedIsNoOp(t *testing.T) {
	const dim = 6
	global := make([]float64, dim)
	for i := range global {
		global[i] = math.Sqrt(float64(i + 1))
	}
	before := append([]float64(nil), global...)
	FedAvg{}.Apply(global, malformedUpdates(dim))
	for i := range global {
		if global[i] != before[i] {
			t.Fatalf("all-malformed round moved the model at %d", i)
		}
	}
}

// TestFedAvgQuarantinesFiniteGiants: two updates carrying 1e308 are finite,
// so scrubbing keeps them and, with no norm gate, nothing else judges them;
// summed, they used to make the global +Inf. The fold window quarantines
// them, and the global is bitwise the one from the honest update alone.
func TestFedAvgQuarantinesFiniteGiants(t *testing.T) {
	const dim = 8
	giant := func(c int) Update {
		return Update{Client: c, Weight: 1, Delta: &compress.Sparse{
			Dim: dim, Indices: []int32{1, 2}, Values: []float64{1e308, 0.5}}}
	}
	run := func(ups []Update) []float64 {
		global := make([]float64, dim)
		for i := range global {
			global[i] = float64(i) * 0.1
		}
		if err := (FedAvg{}).Apply(global, ups); err != nil {
			t.Fatal(err)
		}
		return global
	}
	want := run([]Update{honestUpdate(dim)})
	got := run([]Update{giant(5), honestUpdate(dim), giant(6)})
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("global[%d] = %v with the giants, %v without", i, got[i], want[i])
		}
	}
}
