package edge

import (
	"math/rand/v2"
	"slices"
	"strings"
	"testing"
)

func specs(ids ...int) []EdgeSpec {
	out := make([]EdgeSpec, len(ids))
	for i, id := range ids {
		out[i] = EdgeSpec{ID: id}
	}
	return out
}

func TestPlanSpreadsLoad(t *testing.T) {
	topo, err := NewTopology(specs(0, 1), 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := topo.Plan(); err != nil {
		t.Fatal(err)
	}
	load := topo.load()
	if load[0] != 5 || load[1] != 5 {
		t.Errorf("identical edges should split the fleet evenly, got %v", load)
	}
	// Client 0 breaks the all-zero-load tie toward the lowest edge ID.
	if topo.Assign[0] != 0 {
		t.Errorf("client 0 on edge %d, want the tie broken to edge 0", topo.Assign[0])
	}
}

func TestPlanDeterministic(t *testing.T) {
	plan := func() []int {
		topo, err := NewTopology(specs(2, 0, 1), 64)
		if err != nil {
			t.Fatal(err)
		}
		if err := topo.Plan(); err != nil {
			t.Fatal(err)
		}
		return topo.Assign
	}
	a, b := plan(), plan()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("plan not deterministic at client %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestRerouteLeastLoadedProperty drives random topologies through random
// kill/rejoin sequences and checks the rule every step: a fresh plan's
// loads differ by at most one; each orphan, in ascending order, lands on
// a live edge holding the fewest clients at that moment, ties to the
// lowest ID; every client sits on a live edge; and the same sequence
// replays to the same assignment and epoch.
func TestRerouteLeastLoadedProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(44, 7))
	for trial := 0; trial < 500; trial++ {
		ids := rng.Perm(8)[:1+rng.IntN(6)]
		clients := 1 + rng.IntN(300)
		var steps []int // edge IDs to kill (when up) or rejoin (when down)
		for range 8 {
			steps = append(steps, ids[rng.IntN(len(ids))])
		}
		run := func(check bool) *Topology {
			topo, err := NewTopology(specs(ids...), clients)
			if err != nil {
				t.Fatal(err)
			}
			if err := topo.Plan(); err != nil {
				t.Fatal(err)
			}
			if check {
				load := topo.load()
				lo, hi := clients, 0
				for _, id := range ids {
					lo, hi = min(lo, load[id]), max(hi, load[id])
				}
				if hi-lo > 1 {
					t.Fatalf("trial %d: plan of %d clients over %v loads %v", trial, clients, ids, load)
				}
			}
			for _, id := range steps {
				if topo.Down[id] {
					topo.Rejoin(id)
					continue
				}
				if len(topo.Live()) == 1 {
					continue // the last edge: TestRerouteNoSurvivor
				}
				victims, load := topo.Clients(id), topo.load()
				orphans, err := topo.Reroute(id)
				if err != nil {
					t.Fatal(err)
				}
				if check {
					if !slices.Equal(orphans, victims) {
						t.Fatalf("trial %d: orphans of edge %d = %v, want %v", trial, id, orphans, victims)
					}
					for _, c := range orphans {
						got := topo.Assign[c]
						for _, s := range topo.Live() {
							if load[s.ID] < load[got] || load[s.ID] == load[got] && s.ID < got {
								t.Fatalf("trial %d: orphan %d went to edge %d (load %d), not edge %d (load %d)",
									trial, c, got, load[got], s.ID, load[s.ID])
							}
						}
						load[got]++
					}
				}
			}
			if check {
				for c, e := range topo.Assign {
					if topo.Spec(e) == nil || topo.Down[e] {
						t.Fatalf("trial %d: client %d on edge %d, not a live edge", trial, c, e)
					}
				}
			}
			return topo
		}
		a, b := run(true), run(false)
		if !slices.Equal(a.Assign, b.Assign) || a.Epoch != b.Epoch {
			t.Fatalf("trial %d: replay differs: epoch %d vs %d", trial, a.Epoch, b.Epoch)
		}
	}
}

func TestRerouteToSurvivors(t *testing.T) {
	topo, err := NewTopology(specs(0, 1, 2), 9)
	if err != nil {
		t.Fatal(err)
	}
	if err := topo.Plan(); err != nil {
		t.Fatal(err)
	}
	epoch := topo.Epoch
	victims := topo.Clients(1)
	orphans, err := topo.Reroute(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(orphans) != len(victims) {
		t.Fatalf("rerouted %d orphans, want %d", len(orphans), len(victims))
	}
	if topo.Epoch <= epoch {
		t.Errorf("epoch did not advance: %d -> %d", epoch, topo.Epoch)
	}
	for _, c := range orphans {
		if e := topo.Assign[c]; e == 1 || e < 0 {
			t.Errorf("orphan %d still on edge %d", c, e)
		}
	}
	if got := len(topo.Live()); got != 2 {
		t.Errorf("%d live edges after reroute, want 2", got)
	}
}

func TestRerouteNoSurvivor(t *testing.T) {
	topo, err := NewTopology(specs(0, 1), 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := topo.Plan(); err != nil {
		t.Fatal(err)
	}
	if _, err := topo.Reroute(0); err != nil {
		t.Fatal(err)
	}
	if _, err := topo.Reroute(1); err == nil || !strings.Contains(err.Error(), "no surviving edge") {
		t.Errorf("rerouting the last edge should fail, got %v", err)
	}
}

func TestRejoin(t *testing.T) {
	topo, err := NewTopology(specs(0, 1), 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := topo.Plan(); err != nil {
		t.Fatal(err)
	}
	if _, err := topo.Reroute(1); err != nil {
		t.Fatal(err)
	}
	epoch := topo.Epoch
	topo.Rejoin(1)
	if topo.Down[1] {
		t.Errorf("edge 1 still down after Rejoin")
	}
	if topo.Epoch <= epoch {
		t.Errorf("Rejoin should advance the epoch")
	}
	topo.Rejoin(1) // idempotent on an up edge
	if topo.Epoch != epoch+1 {
		t.Errorf("Rejoin of an up edge should not advance the epoch")
	}
}

func TestNewTopologyRejectsDuplicates(t *testing.T) {
	if _, err := NewTopology(specs(3, 3), 2); err == nil {
		t.Error("duplicate edge IDs should be rejected")
	}
	if _, err := NewTopology(nil, 2); err == nil {
		t.Error("empty topology should be rejected")
	}
}
