package shard_test

import (
	"strings"
	"testing"

	"adafl/internal/checkpoint"
	"adafl/internal/nn"
	"adafl/internal/rpc"
	"adafl/internal/stats"
)

// geometry and sessionMeta are the parts of the sync server's snapshot
// meta a resume checks; gob matches them to the server's own by name.
type geometry struct{ Shards int }

type sessionMeta struct {
	CompletedRound, NumClients, Rounds int
	ShardState                         *geometry
}

func (m *sessionMeta) Round() int { return m.CompletedRound }

// TestTreeRestoreGeometryMismatch: the tree holds nothing across a round
// boundary, so the session snapshot keeps only its shard count, and the
// server's resume refuses a chain of another shard count or another model
// rather than silently re-routing clients. A chain without the count
// (written before every server folded through a tree) is accepted.
func TestTreeRestoreGeometryMismatch(t *testing.T) {
	const rounds = 2
	newModel := func() *nn.Model { return nn.NewImageMLP([]int{1, 4, 4}, []int{4}, 2, stats.NewRNG(1)) }
	dim := newModel().NumParams()
	chain := func(g *geometry, dim int) string {
		dir := t.TempDir()
		w, _, err := checkpoint.Open(dir, false, checkpoint.DeltaOptions{}, t.Logf)
		if err != nil {
			t.Fatal(err)
		}
		w.Snapshot(&sessionMeta{CompletedRound: rounds - 1, NumClients: 1, Rounds: rounds, ShardState: g},
			checkpoint.Vector{Name: "global", Vals: make([]float64, dim)},
			checkpoint.Vector{Name: "gdelta", Vals: make([]float64, dim)})
		if res, _ := w.Wait(); res.Err != nil {
			t.Fatal(res.Err)
		}
		return dir
	}
	resume := func(dir string, shards int) error {
		srv, err := rpc.NewServer(rpc.ServerConfig{Addr: "127.0.0.1:0", NumClients: 1, Rounds: rounds,
			NewModel: newModel, Shards: shards, CheckpointDir: dir, Resume: true, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		_, err = srv.Run()
		return err
	}

	twoShards := chain(&geometry{Shards: 2}, dim)
	if err := resume(twoShards, 3); err == nil || !strings.Contains(err.Error(), "shard") {
		t.Fatalf("shard-count mismatch: err = %v, want a shard-count refusal", err)
	}
	if err := resume(twoShards, 2); err != nil {
		t.Fatalf("same shard count refused: %v", err)
	}
	if err := resume(chain(&geometry{Shards: 2}, dim+1), 2); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
	if err := resume(chain(nil, dim), 3); err != nil {
		t.Fatalf("a chain without a shard count should resume at any count: %v", err)
	}
}
