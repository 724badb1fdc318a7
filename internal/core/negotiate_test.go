package core

import (
	"math"
	"reflect"
	"testing"
)

func TestNegotiationConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*NegotiationConfig)
		ok   bool
	}{
		{"defaults", func(*NegotiationConfig) {}, true},
		{"min levels zero", func(c *NegotiationConfig) { c.MinLevels = 0 }, false},
		{"max below min", func(c *NegotiationConfig) { c.MaxLevels = 2 }, false},
		{"max over wire cap", func(c *NegotiationConfig) { c.MaxLevels = 1<<20 + 1 }, false},
		{"double every zero", func(c *NegotiationConfig) { c.LevelDoubleEvery = 0 }, false},
		{"switch ratio NaN", func(c *NegotiationConfig) { c.SwitchRatio = math.NaN() }, false},
		{"switch ratio sub-1", func(c *NegotiationConfig) { c.SwitchRatio = 0.5 }, false},
		{"smoothing zero", func(c *NegotiationConfig) { c.BytesSmoothing = 0 }, false},
		{"smoothing over 1", func(c *NegotiationConfig) { c.BytesSmoothing = 1.5 }, false},
		{"smoothing NaN", func(c *NegotiationConfig) { c.BytesSmoothing = math.NaN() }, false},
		{"cost gain negative", func(c *NegotiationConfig) { c.CostGain = -1 }, false},
		{"cost gain NaN", func(c *NegotiationConfig) { c.CostGain = math.NaN() }, false},
	}
	for _, c := range cases {
		cfg := DefaultNegotiation()
		c.mut(&cfg)
		err := cfg.Validate()
		if c.ok && err != nil {
			t.Errorf("%s: valid config rejected: %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: invalid config accepted", c.name)
		}
		if _, nerr := NewNegotiator(cfg, DefaultController()); (nerr == nil) != c.ok {
			t.Errorf("%s: NewNegotiator disagreed with Validate", c.name)
		}
	}
}

func TestNegotiatorAssignSwitchesCodecAtThreshold(t *testing.T) {
	n, err := NewNegotiator(DefaultNegotiation(), DefaultController())
	if err != nil {
		t.Fatal(err)
	}
	plan := map[int]float64{0: 4, 1: 50, 2: 0}
	out := n.Assign(0, plan, nil)
	if _, ok := out[2]; ok {
		t.Fatal("withheld client (ratio 0) assigned")
	}
	if a := out[0]; a.Codec != CodecDGC || a.Ratio != 4 || a.Levels != 0 {
		t.Fatalf("shallow client got %+v, want dgc at 4x", a)
	}
	if a := out[1]; a.Codec != CodecDAdaQuant || a.Levels < 3 {
		t.Fatalf("deep client got %+v, want dadaquant", a)
	}
}

func TestNegotiatorBandwidthDeepensCompression(t *testing.T) {
	n, _ := NewNegotiator(DefaultNegotiation(), DefaultController())
	plan := map[int]float64{0: 8, 1: 8}
	bw := func(id int) float64 {
		if id == 0 {
			return 0.25 // throttled link
		}
		return 1
	}
	out := n.Assign(0, plan, bw)
	if out[0].Ratio <= out[1].Ratio {
		t.Fatalf("throttled client not compressed deeper: %v vs %v", out[0].Ratio, out[1].Ratio)
	}
	if out[0].Codec != CodecDAdaQuant {
		t.Fatalf("8x at quarter bandwidth = 32x effective, expected codec switch; got %+v", out[0])
	}
	// A fat link (mult > 1) gets a finer level grid than a throttled one.
	deep := map[int]float64{0: 50, 1: 50}
	out2 := n.Assign(20, deep, func(id int) float64 {
		if id == 0 {
			return 0.5
		}
		return 2
	})
	if out2[0].Levels >= out2[1].Levels {
		t.Fatalf("throttled client levels %d not coarser than fat link's %d", out2[0].Levels, out2[1].Levels)
	}
}

func TestNegotiatorRatioClampedToCeiling(t *testing.T) {
	ctrl := DefaultController()
	n, _ := NewNegotiator(DefaultNegotiation(), ctrl)
	out := n.Assign(0, map[int]float64{0: 1e9}, func(int) float64 { return 1e-9 })
	if out[0].Ratio > 4*ctrl.MaxRatio {
		t.Fatalf("assigned ratio %v exceeds 4x controller ceiling %v", out[0].Ratio, 4*ctrl.MaxRatio)
	}
	// NaN and non-positive bandwidth multipliers degrade to 1, never NaN.
	for _, m := range []float64{math.NaN(), 0, -2, math.Inf(1)} {
		out := n.Assign(0, map[int]float64{0: 8}, func(int) float64 { return m })
		if math.IsNaN(out[0].Ratio) || out[0].Ratio < 1 {
			t.Fatalf("bw mult %v produced ratio %v", m, out[0].Ratio)
		}
	}
}

func TestNegotiatorBytePressure(t *testing.T) {
	n, _ := NewNegotiator(DefaultNegotiation(), DefaultController())
	// Client 1 has uploaded 9x the bytes of client 0.
	n.RecordUpload(0, 1000)
	n.RecordUpload(1, 9000)
	out := n.Assign(0, map[int]float64{0: 8, 1: 8}, nil)
	if out[1].Ratio <= out[0].Ratio {
		t.Fatalf("heavy sender not pushed deeper: %v vs %v", out[1].Ratio, out[0].Ratio)
	}
}

func TestNegotiatorScoreMult(t *testing.T) {
	n, _ := NewNegotiator(DefaultNegotiation(), DefaultController())
	if m := n.ScoreMult(7); m != 1 {
		t.Fatalf("unseen client multiplier %v, want 1", m)
	}
	n.Assign(0, map[int]float64{0: 4, 1: 800}, nil)
	m0, m1 := n.ScoreMult(0), n.ScoreMult(1)
	if m0 != 1 {
		t.Fatalf("min-ratio client multiplier %v, want 1", m0)
	}
	if m1 <= 1 || m1 > 1.25+1e-12 {
		t.Fatalf("deep-ratio client multiplier %v, want (1, 1.25]", m1)
	}
}

// TestNegotiatorDeterministicReplay pins the core determinism contract:
// the same config, plan stream, bandwidth function and byte history yield
// identical assignments, regardless of the order uploads were recorded in.
func TestNegotiatorDeterministicReplay(t *testing.T) {
	run := func(recordOrder []int) []map[int]CodecAssignment {
		n, _ := NewNegotiator(DefaultNegotiation(), DefaultController())
		var got []map[int]CodecAssignment
		for round := 0; round < 12; round++ {
			plan := map[int]float64{}
			for id := 0; id < 6; id++ {
				if (round+id)%3 != 0 {
					plan[id] = 4 + float64((id*7+round)%40)
				}
			}
			bw := func(id int) float64 { return 0.5 + float64((id+round)%4)*0.5 }
			got = append(got, n.Assign(round, plan, bw))
			// Record uploads in the caller's order — receipt order varies
			// between live runs, the assignments must not.
			for _, id := range recordOrder {
				if _, ok := plan[id]; ok {
					n.RecordUpload(id, 500+id*137+round*31)
				}
			}
		}
		return got
	}
	a := run([]int{0, 1, 2, 3, 4, 5})
	b := run([]int{5, 3, 1, 4, 2, 0})
	if !reflect.DeepEqual(a, b) {
		t.Fatal("assignments depend on upload receipt order")
	}
}

func TestNegotiatorAssignByLoadRanksHeaviestDeepest(t *testing.T) {
	n, _ := NewNegotiator(DefaultNegotiation(), DefaultController())
	ids := []int{0, 1, 2}
	n.RecordUpload(0, 100)
	n.RecordUpload(1, 10000)
	n.RecordUpload(2, 1000)
	out := n.AssignByLoad(10, ids)
	if !(out[0].Ratio < out[2].Ratio && out[2].Ratio < out[1].Ratio) {
		t.Fatalf("load ranking broken: %v / %v / %v", out[0].Ratio, out[2].Ratio, out[1].Ratio)
	}
	// First round (all-zero history) ties break by ascending id.
	n2, _ := NewNegotiator(DefaultNegotiation(), DefaultController())
	out2 := n2.AssignByLoad(10, []int{2, 0, 1})
	if !(out2[0].Ratio <= out2[1].Ratio && out2[1].Ratio <= out2[2].Ratio) {
		t.Fatalf("tie-break not by id: %v / %v / %v", out2[0].Ratio, out2[1].Ratio, out2[2].Ratio)
	}
}

func TestNegotiatorSnapshotRestoreRoundTrip(t *testing.T) {
	n, _ := NewNegotiator(DefaultNegotiation(), DefaultController())
	for round := 0; round < 5; round++ {
		n.Assign(round, map[int]float64{0: 20, 1: 6}, nil)
		n.RecordUpload(0, 800+round*100)
		n.RecordUpload(1, 4000)
	}
	snap := n.Snapshot()

	m, _ := NewNegotiator(DefaultNegotiation(), DefaultController())
	if err := m.Restore(snap); err != nil {
		t.Fatal(err)
	}
	// Mutating the restored negotiator must not write through to the snapshot.
	m.RecordUpload(0, 1)
	if snap.Links[0].State.EWMABytes == m.links[0].EWMABytes {
		t.Fatal("restore aliases the snapshot's link state")
	}
	// Both continue identically from the same state.
	n2, _ := NewNegotiator(DefaultNegotiation(), DefaultController())
	if err := n2.Restore(n.Snapshot()); err != nil {
		t.Fatal(err)
	}
	a := n.Assign(5, map[int]float64{0: 20, 1: 6}, nil)
	b := n2.Assign(5, map[int]float64{0: 20, 1: 6}, nil)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("restored negotiator diverges from the live one")
	}
}

func TestNegotiatorRestoreRefusesMismatch(t *testing.T) {
	n, _ := NewNegotiator(DefaultNegotiation(), DefaultController())
	if err := n.Restore(nil); err == nil {
		t.Fatal("nil state accepted")
	}
	other := DefaultNegotiation()
	other.SwitchRatio = 99
	m, _ := NewNegotiator(other, DefaultController())
	if err := m.Restore(n.Snapshot()); err == nil {
		t.Fatal("config-mismatched checkpoint accepted; assignments would silently diverge")
	}
}
