package shard

import (
	"math"
	"strings"
	"testing"
)

func mkItem(client int, dim int, idx []int32, vals []float64) Item {
	return Item{Client: client, Upd: mkSparse(dim, idx, vals)}
}

// TestScreenBitwiseUnaffected is the acceptance property in
// miniature: aggregating a screened round that contained malformed and
// outlier updates produces a global model bitwise identical to a round
// that only ever saw the honest updates.
func TestScreenBitwiseUnaffected(t *testing.T) {
	const dim = 16
	honest := []Item{
		mkItem(0, dim, []int32{1, 5}, []float64{0.2, -0.1}),
		mkItem(1, dim, []int32{0, 9}, []float64{-0.3, 0.15}),
		mkItem(2, dim, []int32{2, 7}, []float64{0.25, 0.05}),
	}
	attack := []Item{
		mkItem(7, dim, []int32{0, int32(dim)}, []float64{1, 999}), // index out of range
		mkItem(8, dim, []int32{0, 1}, []float64{1}),               // length mismatch
		mkItem(9, dim, []int32{3, 4}, []float64{4e6, -7e6}),       // norm outlier
		mkItem(10, dim, []int32{2}, []float64{math.NaN()}),        // entirely non-finite
		{Client: 11, Upd: nil},                                    // nil message
	}
	aggregate := func(ups []Item) []float64 {
		global := make([]float64, dim)
		for i := range global {
			global[i] = float64(i) * 0.01
		}
		weightSum := 0.0
		agg := make([]float64, dim)
		for _, u := range ups {
			w := 0.1
			u.Upd.AddTo(agg, w)
			weightSum += w
		}
		if weightSum > 0 {
			for i := range global {
				global[i] += agg[i] / weightSum
			}
		}
		return global
	}

	want := aggregate(honest)
	kept, quarantined := Screen(3, dim, 10, append(append([]Item{}, honest...), attack...), nil)
	got := aggregate(kept)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("screened aggregation differs at %d: %v vs %v", i, got[i], want[i])
		}
	}
	if len(quarantined) != len(attack) {
		t.Fatalf("quarantined %d updates, want %d: %+v", len(quarantined), len(attack), quarantined)
	}
	byClient := map[int]QuarantineRecord{}
	for _, q := range quarantined {
		if q.Round != 3 {
			t.Errorf("quarantine record round %d, want 3", q.Round)
		}
		byClient[q.ClientID] = q
	}
	for client, frag := range map[int]string{
		7:  "out of range",
		8:  "indices vs",
		9:  "round median",
		10: "non-finite",
		11: "nil message",
	} {
		q, ok := byClient[client]
		if !ok {
			t.Errorf("client %d not quarantined", client)
			continue
		}
		if !strings.Contains(q.Reason, frag) {
			t.Errorf("client %d: reason %q missing %q", client, q.Reason, frag)
		}
	}
	if byClient[9].Norm == 0 {
		t.Error("norm-gated record did not carry the offending norm")
	}
}

// TestScreenScrubsPartialNaN: a mostly-finite update survives
// with its non-finite coordinates zeroed, rather than being dropped.
func TestScreenScrubsPartialNaN(t *testing.T) {
	const dim = 8
	u := mkItem(0, dim, []int32{0, 1, 2}, []float64{1, math.NaN(), 2})
	kept, quarantined := Screen(0, dim, 0, []Item{u}, nil)
	if len(quarantined) != 0 || len(kept) != 1 {
		t.Fatalf("partially non-finite update mishandled: kept %d quarantined %d", len(kept), len(quarantined))
	}
	if v := kept[0].Upd.Values[1]; v != 0 {
		t.Fatalf("NaN coordinate not scrubbed: %v", v)
	}
}

// TestScreenNormGateNeedsQuorumAndScale: the gate stays out of
// the way with fewer than three updates or an all-zero round.
func TestScreenNormGateNeedsQuorumAndScale(t *testing.T) {
	const dim = 4
	big := mkItem(0, dim, []int32{0}, []float64{1e9})
	small := mkItem(1, dim, []int32{1}, []float64{1e-9})
	kept, quarantined := Screen(0, dim, 2, []Item{big, small}, nil)
	if len(kept) != 2 || len(quarantined) != 0 {
		t.Fatalf("gate engaged below the update quorum: kept %d", len(kept))
	}
	zeros := []Item{
		mkItem(0, dim, []int32{0}, []float64{0}),
		mkItem(1, dim, []int32{1}, []float64{0}),
		mkItem(2, dim, []int32{2}, []float64{0.5}),
	}
	kept, quarantined = Screen(0, dim, 2, zeros, nil)
	if len(kept) != 3 || len(quarantined) != 0 {
		t.Fatalf("gate fired on a zero-median round: kept %d quarantined %d", len(kept), len(quarantined))
	}
}
