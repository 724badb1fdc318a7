package edge

import (
	"math"
	"strings"
	"testing"

	"adafl/internal/netsim"
)

func specN(id int, region string, upBps float64) EdgeSpec {
	return EdgeSpec{
		ID:     id,
		Region: region,
		Access: netsim.Link{UpBps: 2.5e6, DownBps: 5e6, LatencyS: 0.01},
		Uplink: netsim.Link{UpBps: upBps, DownBps: upBps, LatencyS: 0.002},
	}
}

func TestLinkCost(t *testing.T) {
	l := netsim.Link{UpBps: 1e6, LatencyS: 0.01}
	if got, want := LinkCost(l, 1e6), 1.01; math.Abs(got-want) > 1e-12 {
		t.Errorf("LinkCost = %v, want %v", got, want)
	}
	if got := LinkCost(netsim.Link{UpBps: 0, LatencyS: 0.01}, 100); !math.IsInf(got, 1) {
		t.Errorf("dark uplink cost = %v, want +Inf", got)
	}
}

func TestDijkstraMultiHopRelay(t *testing.T) {
	// Edge 1's direct uplink is dark, but it shares region "a" with edge
	// 0: the only finite path to the root runs through the lateral link.
	specs := []EdgeSpec{specN(0, "a", 12.5e6), specN(1, "a", 0), specN(2, "b", 12.5e6)}
	g := buildGraph(specs, nil, CostModel{})
	dist := g.Dijkstra("root")
	d0, ok0 := dist[nodeID(0)]
	d1, ok1 := dist[nodeID(1)]
	if !ok0 || !ok1 {
		t.Fatalf("edges unreachable: dist=%v", dist)
	}
	if d1 <= d0 {
		t.Errorf("relayed edge should cost more than its relay: d1=%v d0=%v", d1, d0)
	}
	lateral := LinkCost(specs[0].Access, CostModel{}.partialBytes())
	if want := d0 + lateral; math.Abs(d1-want) > 1e-12 {
		t.Errorf("relay cost = %v, want d0+lateral = %v", d1, want)
	}
}

func TestDijkstraUnreachable(t *testing.T) {
	// Edge 1 has a dark uplink and no same-region sibling: no finite path.
	specs := []EdgeSpec{specN(0, "a", 12.5e6), specN(1, "b", 0)}
	dist := buildGraph(specs, nil, CostModel{}).Dijkstra("root")
	if _, ok := dist[nodeID(1)]; ok {
		t.Errorf("isolated edge should be absent from dist, got %v", dist[nodeID(1)])
	}
	if _, ok := dist[nodeID(0)]; !ok {
		t.Errorf("edge 0 should be reachable")
	}
}

func TestPlanSpreadsLoad(t *testing.T) {
	topo, err := NewTopology([]EdgeSpec{specN(0, "", 12.5e6), specN(1, "", 12.5e6)}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := topo.Plan(CostModel{}); err != nil {
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
	specs := []EdgeSpec{specN(2, "b", 12.5e6), specN(0, "a", 12.5e6), specN(1, "a", 6e6)}
	cm := CostModel{CrossRegionPenalty: 5, RegionOf: func(c int) string {
		if c%2 == 0 {
			return "a"
		}
		return "b"
	}}
	plan := func() []int {
		topo, err := NewTopology(specs, 64)
		if err != nil {
			t.Fatal(err)
		}
		if err := topo.Plan(cm); err != nil {
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

func TestRegionAffinity(t *testing.T) {
	topo, err := NewTopology([]EdgeSpec{specN(0, "a", 12.5e6), specN(1, "b", 12.5e6)}, 8)
	if err != nil {
		t.Fatal(err)
	}
	cm := CostModel{CrossRegionPenalty: 100, RegionOf: func(c int) string {
		if c < 4 {
			return "a"
		}
		return "b"
	}}
	if err := topo.Plan(cm); err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 8; c++ {
		want := 0
		if c >= 4 {
			want = 1
		}
		if topo.Assign[c] != want {
			t.Errorf("client %d on edge %d, want %d (region affinity)", c, topo.Assign[c], want)
		}
	}
}

func TestRerouteToSurvivors(t *testing.T) {
	topo, err := NewTopology([]EdgeSpec{specN(0, "a", 12.5e6), specN(1, "a", 12.5e6), specN(2, "b", 12.5e6)}, 9)
	if err != nil {
		t.Fatal(err)
	}
	cm := CostModel{}
	if err := topo.Plan(cm); err != nil {
		t.Fatal(err)
	}
	epoch := topo.Epoch
	victims := topo.Clients(1)
	orphans, err := topo.Reroute(1, cm)
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

func TestRerouteExcludesOutageRegion(t *testing.T) {
	topo, err := NewTopology([]EdgeSpec{specN(0, "a", 12.5e6), specN(1, "b", 12.5e6), specN(2, "c", 12.5e6)}, 6)
	if err != nil {
		t.Fatal(err)
	}
	cm := CostModel{RegionDown: func(r string) bool { return r == "b" }}
	if err := topo.Plan(cm); err != nil {
		t.Fatal(err)
	}
	for c, e := range topo.Assign {
		if e == 1 {
			t.Errorf("client %d assigned to edge 1 in dark region b", c)
		}
	}
	if _, err := topo.Reroute(0, cm); err != nil {
		t.Fatal(err)
	}
	for c, e := range topo.Assign {
		if e != 2 {
			t.Errorf("client %d on edge %d, want 2 (only survivor outside the outage)", c, e)
		}
	}
}

func TestRerouteNoSurvivor(t *testing.T) {
	topo, err := NewTopology([]EdgeSpec{specN(0, "a", 12.5e6), specN(1, "a", 12.5e6)}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := topo.Plan(CostModel{}); err != nil {
		t.Fatal(err)
	}
	if _, err := topo.Reroute(0, CostModel{}); err != nil {
		t.Fatal(err)
	}
	if _, err := topo.Reroute(1, CostModel{}); err == nil || !strings.Contains(err.Error(), "no surviving edge") {
		t.Errorf("rerouting the last edge should fail, got %v", err)
	}
}

func TestRerouteAllUplinksDark(t *testing.T) {
	// Survivor exists but cannot reach the root: distinct regions, dark
	// uplink, so there is no lateral relay either.
	topo, err := NewTopology([]EdgeSpec{specN(0, "a", 12.5e6), specN(1, "b", 0)}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := topo.Plan(CostModel{}); err != nil {
		t.Fatal(err)
	}
	if _, err := topo.Reroute(0, CostModel{}); err == nil || !strings.Contains(err.Error(), "all uplinks dark") {
		t.Errorf("want an all-uplinks-dark error, got %v", err)
	}
}

func TestRejoin(t *testing.T) {
	topo, err := NewTopology([]EdgeSpec{specN(0, "a", 12.5e6), specN(1, "a", 12.5e6)}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := topo.Plan(CostModel{}); err != nil {
		t.Fatal(err)
	}
	if _, err := topo.Reroute(1, CostModel{}); err != nil {
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
	if _, err := NewTopology([]EdgeSpec{specN(3, "a", 1), specN(3, "b", 1)}, 2); err == nil {
		t.Error("duplicate edge IDs should be rejected")
	}
	if _, err := NewTopology(nil, 2); err == nil {
		t.Error("empty topology should be rejected")
	}
}
