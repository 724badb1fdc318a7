package core

import (
	"reflect"
	"testing"
)

// TestPlanRound is the table test of the single selection rule. Rows are
// built so a reserved pick is distinguishable from a top-score pick:
// scores fall with position (ids[0] scores highest) and, through recent(),
// the high scorers were also selected most recently, so the fairness
// reservation reaches for the tail of ids while Algorithm 1 takes the head.
func TestPlanRound(t *testing.T) {
	seq := func(n int) []int {
		ids := make([]int, n)
		for i := range ids {
			ids[i] = i
		}
		return ids
	}
	falling := func(n int) []float64 { // 0.9, 0.9-0.05, ... all above DefaultConfig's τ for n ≤ 12
		s := make([]float64, n)
		for i := range s {
			s[i] = 0.9 - 0.05*float64(i)
		}
		return s
	}
	recent := func(ids []int) map[int]int { // ids[0] picked last round, the tail idle longest
		m := map[int]int{}
		for i, id := range ids {
			m[id] = 100 - i
		}
		return m
	}
	base := DefaultConfig()
	base.Compression.WarmupRounds = 2
	with := func(mut func(*Config)) Config {
		c := base
		mut(&c)
		return c
	}
	const round = 200 // past warm-up and past every recent() entry

	cases := []struct {
		name      string
		cfg       Config
		round     int
		ids       []int
		scores    []float64
		lastSel   map[int]int
		deltaZero bool
		want      []int // expected clients, in rank order
		warmRatio bool  // every pick at WarmupRatio instead of the rank ladder
	}{
		// Round-half-up reservation at ExploreFrac 0.8: 3 of 4, 4 of 5, 6 of 8
		// (math.Ceil would give 4, 4, 7 and switch utility ranking off at K=4).
		{name: "K=4 reserves 3", cfg: with(func(c *Config) { c.K = 4 }), round: round,
			ids: seq(8), scores: falling(8), lastSel: recent(seq(8)), want: []int{0, 7, 6, 5}},
		{name: "K=5 reserves 4", cfg: with(func(c *Config) { c.K = 5 }), round: round,
			ids: seq(8), scores: falling(8), lastSel: recent(seq(8)), want: []int{0, 7, 6, 5, 4}},
		{name: "K=8 reserves 6", cfg: with(func(c *Config) { c.K = 8 }), round: round,
			ids: seq(12), scores: falling(12), lastSel: recent(seq(12)), want: []int{0, 1, 11, 10, 9, 8, 7, 6}},
		{name: "ExploreFrac·K=1.25 reserves 1", cfg: with(func(c *Config) { c.K = 5; c.ExploreFrac = 0.25 }), round: round,
			ids: seq(8), scores: falling(8), lastSel: recent(seq(8)), want: []int{0, 1, 2, 3, 7}},
		{name: "round-robin reserves all K", cfg: with(func(c *Config) { c.K = 3; c.ExploreFrac = 1 }), round: round,
			ids: seq(6), scores: falling(6), lastSel: recent(seq(6)), want: []int{5, 4, 3}},

		// Sparse ids: never-selected clients tie at -1 and resolve to the
		// lowest id; a client absent from ids is never planned.
		{name: "sparse ids, nobody selected yet", cfg: with(func(c *Config) { c.K = 2; c.Tau = 0 }), round: round,
			ids: []int{3, 17, 40}, scores: []float64{0.5, 0.9, 0.2}, lastSel: map[int]int{}, want: []int{3, 17}},
		{name: "sparse ids, rotation reaches the idle one", cfg: with(func(c *Config) { c.K = 2; c.Tau = 0 }), round: round,
			ids: []int{3, 17, 40}, scores: []float64{0.5, 0.9, 0.2}, lastSel: map[int]int{3: 5, 17: 5, 99: 1}, want: []int{40, 3}},
		// PR 2's wire-selector regression: ids far beyond len(scores) used
		// to index the score vector by id and panic.
		{name: "ids beyond len(scores)", cfg: with(func(c *Config) { c.K = 2; c.Tau = 0 }), round: round,
			ids: []int{5, 107, 3000}, scores: []float64{0.9, 0.8, 0.7}, lastSel: map[int]int{5: 9, 107: 9}, want: []int{3000, 5}},
		{name: "fewer clients than reserved slots", cfg: with(func(c *Config) { c.K = 5 }), round: round,
			ids: []int{8, 9}, scores: []float64{0.9, 0.8}, lastSel: map[int]int{}, want: []int{8, 9}},
		{name: "empty roster", cfg: base, round: round, ids: nil, scores: nil, lastSel: map[int]int{}, want: []int{}},

		// Fallback and warm-up: everyone, ascending, at the warm-up ratio.
		{name: "all below τ with no reservation falls back", cfg: with(func(c *Config) { c.K = 2; c.Tau = 0.9; c.ExploreFrac = 0 }), round: round,
			ids: []int{1, 5, 9}, scores: []float64{0.1, 0.2, 0.05}, lastSel: map[int]int{}, want: []int{1, 5, 9}, warmRatio: true},
		{name: "zero global delta is warm-up", cfg: base, round: round,
			ids: []int{1, 5, 9}, lastSel: map[int]int{}, deltaZero: true, want: []int{1, 5, 9}, warmRatio: true},
		{name: "configured warm-up round", cfg: base, round: 1,
			ids: []int{7, 42}, lastSel: map[int]int{}, want: []int{7, 42}, warmRatio: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := len(tc.lastSel)
			plan := tc.cfg.PlanRound(tc.round, tc.ids, tc.scores, tc.lastSel, tc.deltaZero)
			got := make([]int, len(plan))
			for i, p := range plan {
				got[i] = p.Client
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("planned %v, want %v", got, tc.want)
			}
			if len(tc.lastSel) != before {
				t.Fatal("PlanRound wrote to lastSel; recording picks is the caller's job")
			}
			cc := tc.cfg.Compression
			for rank, p := range plan {
				want := cc.RatioForRank(rank, len(plan), tc.round)
				if tc.warmRatio {
					want = cc.WarmupRatio
				}
				if p.Ratio != want {
					t.Errorf("rank %d (client %d): ratio %v, want %v", rank, p.Client, p.Ratio, want)
				}
			}
		})
	}
}
