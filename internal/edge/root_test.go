package edge

import (
	"math"
	"strings"
	"testing"

	"adafl/internal/rpc"
	"adafl/internal/shard"
)

// mkEnv is an edge's MsgEdgePartial as its root's reader receives it.
func mkEnv(round, dim int, weight int64, count int) *rpc.Envelope {
	p := &shard.Partial{Dim: dim, Sum: make([]int64, dim), WeightSum: weight, Count: count}
	p.Sum[0] = weight // something for a merge to carry
	return &rpc.Envelope{Type: rpc.MsgEdgePartial, Round: round, Params: p.Slots(), WeightSum: weight, NumSamples: count}
}

// TestPartialValidation pins the root's ingest guards, run where the
// partials merge, on the edge's reader: duplicate partials from the same
// edge in the same round, stale rounds, mismatched dimensions and
// negative weights are all rejected without disturbing what was merged.
func TestPartialValidation(t *testing.T) {
	e1, e2 := &rpc.Peer{ID: 1}, &rpc.Peer{ID: 2}
	m := &roundMerge{pending: map[*rpc.Peer]bool{e1: true, e2: true}, part: shard.NewPartial(4)}
	r := &Root{cfg: RootConfig{Dim: 4, Logf: t.Logf}, round: 5, cur: m, changed: make(chan struct{})}
	recv := shard.NewPartial(4) // the reader's receive partial

	if !r.mergePartial(e1, mkEnv(5, 4, 2, 2), recv) {
		t.Fatal("valid partial was refused")
	}
	if m.edges != 1 || m.part.Count != 2 || m.part.Sum[0] != 2 || m.pending[e1] {
		t.Fatal("valid partial was not merged")
	}

	// A duplicate from the same edge for the same round: edge 1 is no
	// longer pending, so the replay is discarded and the merged partial is
	// untouched.
	if r.mergePartial(e1, mkEnv(5, 4, 99, 9), recv) {
		t.Error("duplicate partial was accepted")
	}
	if m.edges != 1 || m.part.Count != 2 || m.part.Sum[0] != 2 {
		t.Error("duplicate partial was merged")
	}

	for name, c := range map[string]struct {
		edge *rpc.Peer
		env  *rpc.Envelope
	}{
		"stale round":  {e2, mkEnv(4, 4, 1, 1)},
		"wrong dim":    {e2, mkEnv(5, 5, 1, 1)},
		"neg weight":   {e2, mkEnv(5, 4, -1, 1)},
		"neg count":    {e2, mkEnv(5, 4, 1, -1)},
		"unknown edge": {&rpc.Peer{ID: 7}, mkEnv(5, 4, 1, 1)},
	} {
		if r.mergePartial(c.edge, c.env, recv) {
			t.Errorf("%s: hostile partial was accepted", name)
		}
		if m.edges != 1 || m.part.Count != 2 {
			t.Errorf("%s: hostile partial was merged", name)
		}
	}
	if !m.pending[e2] {
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
