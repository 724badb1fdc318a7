package shard

import (
	"fmt"
	"sort"

	"adafl/internal/compress"
)

// Logf is the logging callback type shared with the engines.
type Logf func(format string, args ...interface{})

func quiet(string, ...interface{}) {}

// QuarantineRecord documents one rejected client update: which client,
// which round, why, and the update's L2 norm (0 for structural rejects,
// where the norm is not trustworthy). Quarantined updates are never
// folded; the caller evicts the offending client exactly like a
// straggler, so its weight leaves the renormalisation.
type QuarantineRecord struct {
	Round    int
	ClientID int
	Reason   string
	Norm     float64
}

// QuarantineLogCap bounds a session's quarantine log, in its result and in
// its snapshots: only the newest records are kept, so a long run under a
// sustained attack cannot grow either without limit.
const QuarantineLogCap = 4096

// AppendQuarantines appends recs to a quarantine log, drops the oldest
// records beyond QuarantineLogCap and adds their number to dropped.
// Appending nothing re-bounds a log restored from a snapshot. The sync
// server and the async session both keep their logs with it.
func AppendQuarantines(log []QuarantineRecord, dropped int, recs ...QuarantineRecord) ([]QuarantineRecord, int) {
	log = append(log, recs...)
	if over := len(log) - QuarantineLogCap; over > 0 {
		dropped += over
		log = append(log[:0], log[over:]...)
	}
	return log, dropped
}

// Item pairs an update with its sender for the buffered screen. Tag is
// an opaque caller token (the rpc server stores its slice index there to
// map kept items back onto connections). Weight is the scale the update
// will fold with, which the fold window judges it at; Screen sets MaxAbs,
// max|Δⱼ|, on the items it keeps, for the fold's bound (Update.MaxAbs).
type Item struct {
	Client int
	Tag    int
	Upd    *compress.Sparse
	Weight float64
	MaxAbs float64
}

// NormGateMinUpdates is the minimum number of structurally valid
// updates before the median-relative norm gate engages: with fewer, the
// median is dominated by the very update under judgment and the gate
// would be deciding against itself.
const NormGateMinUpdates = 3

// Screen is the buffered (single-shot) integrity screen, used when the
// server aggregates at the barrier: it validates every received update
// before aggregation and returns the survivors plus quarantine records
// for the rejects:
//
//  1. Structural validation (compress.Sparse.Check): declared
//     dimension, index/value pairing, index bounds. A failure here would
//     panic the aggregation or silently corrupt the model.
//  2. Non-finite scrubbing (the same Check pass): NaN/Inf values are
//     zeroed in place; an update with no finite signal at all is
//     quarantined rather than applied as a zero update from a client
//     whose training has diverged.
//  3. The fold window: an update with any |Weight·Δⱼ| ≥ 2⁶ is
//     quarantined ("outside the fold window"), so that no single update
//     can push the fixed-point aggregate (Partial) out of its range.
//  4. L2-norm outlier gate: with maxNormMult > 0 and at least
//     NormGateMinUpdates survivors, updates whose norm exceeds
//     maxNormMult times the round's median norm are quarantined. The
//     median is robust to the outliers being gated; the gate is skipped
//     when the median is zero (an all-zero round has no scale to judge
//     against).
//
// Screen mutates only the updates' values (scrubbing) and never
// reorders kept items. Tree.Ingest runs the same checks per update, with
// the causal variant of the norm gate (see onlineGate).
func Screen(round, dim int, maxNormMult float64, ups []Item, logf Logf) (keep []Item, quarantined []QuarantineRecord) {
	if logf == nil {
		logf = quiet
	}
	keep = make([]Item, 0, len(ups))
	for _, u := range ups {
		n, maxAbs, err := u.Upd.Check(dim)
		if err != nil {
			quarantined = append(quarantined, QuarantineRecord{
				Round: round, ClientID: u.Client, Reason: err.Error(),
			})
			continue
		}
		if n > 0 && n == u.Upd.NNZ() {
			quarantined = append(quarantined, QuarantineRecord{
				Round: round, ClientID: u.Client,
				Reason: fmt.Sprintf("update entirely non-finite (%d values)", n),
			})
			continue
		}
		if err := windowErr(u.Weight, maxAbs); err != nil {
			quarantined = append(quarantined, QuarantineRecord{Round: round, ClientID: u.Client, Reason: err.Error()})
			continue
		}
		if n > 0 {
			logf("server: round %d: scrubbed %d non-finite values from client %d",
				round+1, n, u.Client)
		}
		u.MaxAbs = maxAbs
		keep = append(keep, u)
	}

	if maxNormMult <= 0 || len(keep) < NormGateMinUpdates {
		return keep, quarantined
	}
	norms := make([]float64, len(keep))
	for i, u := range keep {
		norms[i] = u.Upd.Norm2()
	}
	med := Median(norms)
	if med <= 0 {
		return keep, quarantined
	}
	limit := maxNormMult * med
	gated := keep[:0]
	for i, u := range keep {
		if norms[i] > limit {
			quarantined = append(quarantined, QuarantineRecord{
				Round: round, ClientID: u.Client, Norm: norms[i],
				Reason: fmt.Sprintf("L2 norm %.4g exceeds %.4g (%.3g x round median %.4g)",
					norms[i], limit, maxNormMult, med),
			})
			continue
		}
		gated = append(gated, u)
	}
	return gated, quarantined
}

// Median returns the median of xs (mean of the middle pair for even
// counts). xs is copied, not mutated.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// onlineGate is the streaming form of the median-relative norm gate. A
// shard cannot hold the round's updates back to compute a retrospective
// median — that would reintroduce the O(clients) buffering the tree
// exists to remove — so the gate is causal: an update is judged against
// the median of the norms this shard has already accepted this round,
// once at least NormGateMinUpdates of them exist. Updates arriving
// before the quorum fold unconditionally, exactly as the buffered gate
// declines to judge rounds with fewer than NormGateMinUpdates updates.
// Only O(updates-per-shard) scalars are retained.
type onlineGate struct {
	mult  float64
	norms []float64 // accepted norms this round, kept sorted
}

// admit reports whether an update with the given norm passes the gate,
// returning the median it was judged against (0 when the gate did not
// engage). Accepted norms join the running median; rejected ones do
// not — a flood of outliers must not drag the median toward itself.
func (g *onlineGate) admit(norm float64) (ok bool, med float64) {
	if g.mult > 0 && len(g.norms) >= NormGateMinUpdates {
		med = g.median()
		if med > 0 && norm > g.mult*med {
			return false, med
		}
	}
	i := sort.SearchFloat64s(g.norms, norm)
	g.norms = append(g.norms, 0)
	copy(g.norms[i+1:], g.norms[i:])
	g.norms[i] = norm
	return true, med
}

// median of the sorted accepted norms, O(1).
func (g *onlineGate) median() float64 {
	n := len(g.norms)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return g.norms[n/2]
	}
	return (g.norms[n/2-1] + g.norms[n/2]) / 2
}

// reset clears the per-round gate state, keeping the backing array.
func (g *onlineGate) reset() { g.norms = g.norms[:0] }
