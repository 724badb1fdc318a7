package edge

import (
	"math"
	"strings"
	"testing"

	"adafl/internal/shard"
)

func mkPartial(dim int, weight int64, count int) *shard.Partial {
	p := &shard.Partial{Dim: dim, Sum: make([]int64, dim), WeightSum: weight, Count: count}
	p.Sum[0] = weight // something for a merge to carry
	return p
}

// TestPartialValidation pins the root's ingest guards: duplicate partials
// from the same edge in the same round, stale rounds, mismatched
// dimensions and negative weights are all rejected without disturbing
// what was merged.
func TestPartialValidation(t *testing.T) {
	r := &Root{cfg: RootConfig{Dim: 4, Logf: t.Logf}, free: make(chan *shard.Partial, 2)}
	m := &roundMerge{pending: map[int]bool{1: true, 2: true}, part: shard.NewPartial(4)}

	if err := r.handleEvent(5, rootEv{kind: evPartial, edge: 1, round: 5, part: mkPartial(4, 2, 2)}, m); err != nil {
		t.Fatal(err)
	}
	if m.edges != 1 || m.part.Count != 2 || m.part.Sum[0] != 2 || m.pending[1] {
		t.Fatal("valid partial was not merged")
	}

	// A duplicate from the same edge for the same round: edge 1 is no
	// longer pending, so the replay is discarded and the merged partial is
	// untouched.
	if err := r.handleEvent(5, rootEv{kind: evPartial, edge: 1, round: 5, part: mkPartial(4, 99, 9)}, m); err != nil {
		t.Fatal(err)
	}
	if m.edges != 1 || m.part.Count != 2 || m.part.Sum[0] != 2 {
		t.Error("duplicate partial was merged")
	}

	for name, ev := range map[string]rootEv{
		"stale round":  {kind: evPartial, edge: 2, round: 4, part: mkPartial(4, 1, 1)},
		"wrong dim":    {kind: evPartial, edge: 2, round: 5, part: mkPartial(5, 1, 1)},
		"neg weight":   {kind: evPartial, edge: 2, round: 5, part: mkPartial(4, -1, 1)},
		"neg count":    {kind: evPartial, edge: 2, round: 5, part: mkPartial(4, 1, -1)},
		"unknown edge": {kind: evPartial, edge: 7, round: 5, part: mkPartial(4, 1, 1)},
	} {
		if err := r.handleEvent(5, ev, m); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if m.edges != 1 || m.part.Count != 2 {
			t.Errorf("%s: hostile partial was merged", name)
		}
	}
	if !m.pending[2] {
		t.Error("edge 2 left pending despite every partial being rejected")
	}
}

// TestClientsConfigValidation: the edge fleet clients refuse a shape the
// generator or the wire cannot carry before they dial anything.
func TestClientsConfigValidation(t *testing.T) {
	for _, tc := range []struct {
		name     string
		lo, hi   int
		dim, nnz int
	}{
		{"empty range", 3, 3, 10, 1},
		{"zero dim", 0, 1, 0, 1},
		{"zero nnz", 0, 1, 10, 0},
		{"nnz > dim", 0, 1, 10, 20},
		{"dim past int32", 0, 1, math.MaxInt32 + 1, 1},
	} {
		cfg := ClientsConfig{Bootstrap: "127.0.0.1:1", Lo: tc.lo, Hi: tc.hi, Dim: tc.dim, Nnz: tc.nnz, MaxRetries: 1}
		if err := RunClients(cfg); err == nil || strings.Contains(err.Error(), "retries exhausted") {
			t.Errorf("%s: got %v, want a config error before any dial", tc.name, err)
		}
	}
}
