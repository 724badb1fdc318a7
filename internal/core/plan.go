package core

// Planned is one client PlanRound selected and the compression ratio it
// was assigned.
type Planned struct {
	Client int
	Ratio  float64
}

// warmup reports whether a round runs under the warm-up rule: inside the
// configured warm-up phase, or with a zero previous global delta ĝ — the
// model has not moved yet, so there is nothing to score utility against.
func (c Config) warmup(round int, deltaZero bool) bool {
	return c.Compression.InWarmup(round) || deltaZero
}

// PlanRound is the lockstep round's selection rule, the one copy the
// simulator (SyncPlanner.Plan) and the wire server (internal/rpc) both
// run. ids are the clients that may be selected this round, ascending —
// a sparse set once evictions, re-joins or a scenario's availability gate
// have thinned the roster; callers leave ineligible clients out of it
// entirely. scores[i] is the utility score of ids[i] (unread in a warm-up
// round). lastSel maps a client to the round it last participated
// (absent: never); PlanRound only reads it, the caller records the
// returned picks. deltaZero reports ‖ĝ‖ = 0.
//
// The result is ordered:
//
//   - Warm-up (see warmup): every id, ascending, at WarmupRatio.
//   - Otherwise round-half-up ExploreFrac·K of the K slots are reserved
//     for fairness. Algorithm 1 (SelectClients) fills the rest by
//     descending score above τ, then each reserved slot takes the
//     unchosen client idle the longest (ties to the lowest id). Ratios
//     follow that rank order, MinRatio first.
//   - Fallback: with nothing reserved and every score below τ Algorithm 1
//     selects nobody; the round then runs like warm-up rather than burn
//     wall-clock on an empty plan, which also refreshes every client's
//     cached delta so the next round's scores are informed.
func (c Config) PlanRound(round int, ids []int, scores []float64, lastSel map[int]int, deltaZero bool) []Planned {
	everyone := func() []Planned {
		out := make([]Planned, len(ids))
		for i, id := range ids {
			out[i] = Planned{Client: id, Ratio: c.Compression.WarmupRatio}
		}
		return out
	}
	if c.warmup(round, deltaZero) {
		return everyone()
	}

	reserve := int(0.5 + c.ExploreFrac*float64(c.K))
	if reserve > c.K {
		reserve = c.K
	}
	// selected holds dense indices into ids.
	var selected []ScoredClient
	if kTop := c.K - reserve; kTop >= 1 {
		selected = SelectClients(scores, kTop, c.Tau)
	}
	chosen := make([]bool, len(ids))
	for _, sc := range selected {
		chosen[sc.Client] = true
	}
	last := func(i int) int {
		if r, ok := lastSel[ids[i]]; ok {
			return r
		}
		return -1
	}
	for slot := 0; slot < reserve; slot++ {
		best := -1
		for i := range ids {
			if !chosen[i] && (best == -1 || last(i) < last(best)) {
				best = i
			}
		}
		if best == -1 {
			break
		}
		chosen[best] = true
		selected = append(selected, ScoredClient{Client: best, Score: scores[best]})
	}
	if len(selected) == 0 {
		return everyone()
	}
	out := make([]Planned, len(selected))
	for rank, sc := range selected {
		out[rank] = Planned{
			Client: ids[sc.Client],
			Ratio:  c.Compression.RatioForRank(rank, len(selected), round),
		}
	}
	return out
}
