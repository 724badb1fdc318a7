package scenario

import (
	"testing"

	"adafl/internal/dataset"
	"adafl/internal/fl"
	"adafl/internal/netsim"
	"adafl/internal/nn"
	"adafl/internal/stats"
)

// TestRoundLinksFollowRoundClock pins the clock contract introduced with
// codec negotiation: the scenario's bandwidth trace modulates the netsim
// links on the *round* clock (round x round_seconds) — the same pure
// trace the negotiators read through TraceMult —
// not on the engine's simulated-transfer clock, which advances orders of
// magnitude slower and would leave the trace stuck on its first plateau.
func TestRoundLinksFollowRoundClock(t *testing.T) {
	sc, err := Load("../../examples/scenarios/fluctuating.json")
	if err != nil {
		t.Fatal(err)
	}
	const clients = 6
	fleet, err := NewFleet(sc, clients)
	if err != nil {
		t.Fatal(err)
	}

	const seed = 19
	ds := dataset.SynthMNIST(200, 12, seed)
	train, test := ds.Split(0.8, seed+1)
	parts := dataset.PartitionIID(train, clients, seed+2)
	net := netsim.UniformNetwork(clients, netsim.LTELink, seed+3)
	base := make([]netsim.Link, clients)
	for i := range base {
		base[i] = net.Link(i)
	}
	newModel := func() *nn.Model {
		return nn.NewImageMLP([]int{1, 12, 12}, []int{8}, 10, stats.NewRNG(seed+4))
	}
	cfg := fl.TrainConfig{LocalSteps: 1, BatchSize: 8, LR: 0.1}
	fed := fl.NewFederation(parts, test, net, newModel, cfg, seed+5)

	fleet.ConfigureFederation(fed)
	// The engine-time trace must not be attached: the round-clock
	// re-application below would compound with it.
	for i := 0; i < clients; i++ {
		if fed.Net.Link(i).Trace != nil {
			t.Fatalf("client %d link still carries the engine-time trace", i)
		}
	}

	planner := &Planner{Fleet: fleet, Inner: fl.NewFixedRatePlanner(1, 1, seed+7)}
	e := fl.NewSyncEngine(fed, fl.FedAvg{}, planner, seed+6)
	// fluctuating.json: rounds 0-2 sit on the 1.0x plateau, rounds 3-6 on
	// the 0.15x collapse (round_seconds=60, trace step at 180s).
	for round, wantMult := range map[int]float64{0: 1.0, 1: 1.0, 4: 0.15} {
		planner.Plan(round, e)
		for i := 0; i < clients; i++ {
			wantUp, wantDown := fleet.LinkBandwidth(i, round, base[i].UpBps, base[i].DownBps)
			got := fed.Net.Link(i)
			if got.UpBps != wantUp || got.DownBps != wantDown {
				t.Fatalf("round %d client %d: link %.0f/%.0f, want %.0f/%.0f",
					round, i, got.UpBps, got.DownBps, wantUp, wantDown)
			}
			classMult := sc.Classes[fleet.class[i]].BandwidthMult
			if want := base[i].UpBps * classMult * wantMult; got.UpBps != want {
				t.Fatalf("round %d client %d: UpBps %.0f, want base x class x trace = %.0f",
					round, i, got.UpBps, want)
			}
		}
	}
	// The collapse must actually lengthen simulated transfers: the same
	// payload takes 1/0.15 the bandwidth-limited time it takes on the
	// plateau.
	planner.Plan(0, e)
	plateau := fed.Net.Link(0)
	planner.Plan(4, e)
	collapsed := fed.Net.Link(0)
	if collapsed.UpBps >= plateau.UpBps {
		t.Fatalf("collapse round uplink %.0f not below plateau %.0f", collapsed.UpBps, plateau.UpBps)
	}
}
