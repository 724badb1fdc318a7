package shard

import (
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"adafl/internal/compress"
)

// FuzzShardMerge drives the streaming tree with adversarially generated
// update batches — random shard counts, random weights, sparse indices
// including duplicates and out-of-range ones, values past the fold window,
// and a norm multiplier that is 0 (gate off) or 2–10 — and cross-checks
// the tree against Screen over the same batch: the merged root partial
// against one plain fold of Screen's kept items in reverse order, and the
// quarantine records against Screen's. The invariants under fuzz:
//
//   - the tree never panics or deadlocks on malformed input;
//   - every update is either folded or quarantined, never both, never
//     neither;
//   - an update outside the fold window is quarantined by name;
//   - the tree's records are Screen's, and its merged partial equals the
//     reference bit for bit, whatever the shard count and the order.
func FuzzShardMerge(f *testing.F) {
	f.Add(uint64(1), uint8(1), uint8(4), uint8(8), uint8(0))
	f.Add(uint64(7), uint8(3), uint8(20), uint8(16), uint8(5))
	f.Add(uint64(42), uint8(8), uint8(50), uint8(3), uint8(0))
	// Edge-partial shaped batches: the two-tier root folds per-edge
	// partials whose client batches can carry duplicate IDs (a client
	// replayed after a reroute) and single-shard topologies (one edge).
	f.Add(uint64(1337), uint8(1), uint8(63), uint8(40), uint8(10))
	f.Add(uint64(2026), uint8(5), uint8(48), uint8(24), uint8(0))
	// A batch with finite values of 1e308 (the fold window).
	f.Add(uint64(308), uint8(2), uint8(40), uint8(6), uint8(0))
	// Norm outliers placed first in their shards (S = 2, gate 4×): clients
	// 0 and 1, norms ≈ 11.7 against a round median of 0.55. A gate that
	// judged each update against its shard's earlier ones folded both.
	f.Add(uint64(13), uint8(1), uint8(6), uint8(6), uint8(4))
	f.Fuzz(func(t *testing.T, seed uint64, shards, nups, dim8, gate uint8) {
		s := int(shards)%8 + 1
		n := int(nups) % 64
		dim := int(dim8)%48 + 2
		mult := float64(gate % 11)
		if mult < 2 {
			mult = 0
		}
		rng := newFuzzRNG(seed)

		ups := make([]Update, n)
		for c := range ups {
			nnz := int(rng.next() % uint64(dim+2)) // can exceed dim → invalid
			idx := make([]int32, nnz)
			vals := make([]float64, nnz)
			for i := range idx {
				// ~1/16 of indices land out of range, duplicates allowed.
				idx[i] = int32(rng.next() % uint64(dim+dim/16+1))
				switch rng.next() % 16 {
				case 0:
					vals[i] = math.NaN()
				case 1:
					vals[i] = math.Inf(1)
				case 2:
					vals[i] = 1e308 // finite, far outside the fold window
				default:
					vals[i] = float64(int64(rng.next()%2000)-1000) / 100
				}
			}
			d := dim
			if rng.next()%16 == 0 {
				d++ // declared-dim mismatch → invalid
			}
			ups[c] = Update{
				Client: c,
				Weight: float64(rng.next()%100) / 10,
				Delta:  &compress.Sparse{Dim: d, Indices: idx, Values: vals},
			}
		}
		// ~1/4 of updates duplicate the previous entry's client ID, weight
		// and delta content (fresh slices: Check scrubs in place),
		// modelling a rerouted client whose round replayed through a
		// second edge. The tree must fold every instance, never dedup;
		// identical content and weight keep validity uniform per ID so the
		// window check by client ID below stays sound.
		for c := 1; c < n; c++ {
			if rng.next()%4 != 0 {
				continue
			}
			prev := ups[c-1]
			ups[c] = Update{
				Client: prev.Client,
				Weight: prev.Weight,
				Delta: &compress.Sparse{Dim: prev.Delta.Dim,
					Indices: append([]int32(nil), prev.Delta.Indices...),
					Values:  append([]float64(nil), prev.Delta.Values...)},
			}
		}

		// Screen gets its own copies: Check scrubs in place, and an update
		// the tree rejects as wholly non-finite is all zeros after it.
		items := make([]Item, n)
		for i, u := range ups {
			items[i] = Item{Client: u.Client, Weight: u.Weight, Upd: &compress.Sparse{Dim: u.Delta.Dim,
				Indices: slices.Clone(u.Delta.Indices), Values: slices.Clone(u.Delta.Values)}}
		}

		tree := NewTree(Config{Shards: s, Dim: dim, MaxNormMult: mult})
		defer tree.Close()
		for _, u := range ups {
			tree.Ingest(0, u)
		}
		got, quars := tree.Finish()

		if got.Count+len(quars) != n {
			t.Fatalf("folded %d + quarantined %d != %d ingested", got.Count, len(quars), n)
		}
		for _, q := range quars {
			if windowErr(weightOf(ups, q.ClientID), maxFinite(ups, q.ClientID)) != nil &&
				validShape(ups, q.ClientID, dim) && !strings.Contains(q.Reason, "outside the fold window") {
				t.Fatalf("client %d is outside the fold window but quarantined as %q", q.ClientID, q.Reason)
			}
		}

		kept, wantQuars := Screen(0, dim, mult, items, nil)
		want := NewPartial(dim)
		for i := len(kept) - 1; i >= 0; i-- {
			it := kept[i]
			if windowErr(it.Weight, maxFinite(ups, it.Client)) != nil {
				t.Fatalf("client %d folded outside the fold window", it.Client)
			}
			want.Fold(Update{Client: it.Client, Weight: it.Weight, Delta: it.Upd, MaxAbs: it.MaxAbs}, false)
		}
		if !samePartial(got, want) {
			t.Fatalf("S=%d, mult %v: merged partial differs from the reverse-order fold of Screen's kept set (count %d vs %d)",
				s, mult, got.Count, want.Count)
		}
		if !reflect.DeepEqual(quars, wantQuars) {
			t.Fatalf("S=%d, mult %v: tree quarantined %+v, Screen %+v", s, mult, quars, wantQuars)
		}
	})
}

// weightOf, maxFinite and validShape read the first update from client c:
// every update from c carries the same weight and content.
func weightOf(ups []Update, c int) float64 {
	for _, u := range ups {
		if u.Client == c {
			return u.Weight
		}
	}
	return 0
}

func maxFinite(ups []Update, c int) (m float64) {
	for _, u := range ups {
		if u.Client == c {
			for _, v := range u.Delta.Values {
				if !math.IsNaN(v) && !math.IsInf(v, 0) {
					m = max(m, math.Abs(v))
				}
			}
			return m
		}
	}
	return 0
}

func validShape(ups []Update, c, dim int) bool {
	for _, u := range ups {
		if u.Client == c {
			_, _, err := u.Delta.Check(dim) // the tree has scrubbed it already
			return err == nil
		}
	}
	return false
}

// newFuzzRNG is a tiny splitmix64 so the fuzz body derives all its
// randomness from the fuzzer-controlled seed (test code must not call
// math/rand's global source under -fuzz).
type fuzzRNG struct{ s uint64 }

func newFuzzRNG(seed uint64) *fuzzRNG { return &fuzzRNG{s: seed} }

func (r *fuzzRNG) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
