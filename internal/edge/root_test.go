package edge

import (
	"math"
	"strings"
	"testing"

	"adafl/internal/shard"
)

func mkPartial(dim int, weight float64, count int) *shard.Partial {
	return &shard.Partial{Dim: dim, Sum: make([]float64, dim), WeightSum: weight, Count: count}
}

// TestPartialValidation pins the root's ingest guards: duplicate partials
// from the same edge in the same round, stale rounds, mismatched
// dimensions and non-finite weights are all rejected without disturbing
// the accepted set.
func TestPartialValidation(t *testing.T) {
	r := &Root{cfg: RootConfig{Dim: 4, Logf: t.Logf}}
	pending := map[int]bool{1: true, 2: true}
	parts := map[int]*shard.Partial{}

	first := mkPartial(4, 2, 2)
	if err := r.handleEvent(5, rootEv{kind: evPartial, edge: 1, round: 5, part: first}, pending, parts); err != nil {
		t.Fatal(err)
	}
	if parts[1] != first || pending[1] {
		t.Fatal("valid partial was not accepted")
	}

	// A duplicate from the same edge for the same round: edge 1 is no
	// longer pending, so the replay is discarded and the accepted
	// partial is untouched.
	dup := mkPartial(4, 99, 9)
	if err := r.handleEvent(5, rootEv{kind: evPartial, edge: 1, round: 5, part: dup}, pending, parts); err != nil {
		t.Fatal(err)
	}
	if parts[1] != first {
		t.Error("duplicate partial replaced the accepted one")
	}

	for name, ev := range map[string]rootEv{
		"stale round":  {kind: evPartial, edge: 2, round: 4, part: mkPartial(4, 1, 1)},
		"wrong dim":    {kind: evPartial, edge: 2, round: 5, part: mkPartial(5, 1, 1)},
		"nan weight":   {kind: evPartial, edge: 2, round: 5, part: mkPartial(4, math.NaN(), 1)},
		"inf weight":   {kind: evPartial, edge: 2, round: 5, part: mkPartial(4, math.Inf(1), 1)},
		"neg weight":   {kind: evPartial, edge: 2, round: 5, part: mkPartial(4, -1, 1)},
		"neg count":    {kind: evPartial, edge: 2, round: 5, part: mkPartial(4, 1, -1)},
		"unknown edge": {kind: evPartial, edge: 7, round: 5, part: mkPartial(4, 1, 1)},
	} {
		if err := r.handleEvent(5, ev, pending, parts); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, ok := parts[ev.edge]; ok && ev.edge != 1 {
			t.Errorf("%s: hostile partial was accepted", name)
		}
	}
	if !pending[2] {
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
