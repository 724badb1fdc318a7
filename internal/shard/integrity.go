package shard

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"adafl/internal/compress"
)

// Logf is the logging callback type shared with the engines.
type Logf func(format string, args ...interface{})

func quiet(string, ...interface{}) {}

// QuarantineRecord documents one rejected client update: which client,
// which round, why, and the update's L2 norm (0 for structural rejects,
// where the norm is not trustworthy). A quarantined update leaves no
// trace in the aggregate; the caller evicts the offending client exactly
// like a straggler, so its weight leaves the renormalisation.
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

// Item pairs an update with its sender for Screen. Weight is the scale
// the update will fold with, which the fold window judges it at; Screen
// sets MaxAbs, max|Δⱼ|, on the items it keeps, for the fold's bound
// (Update.MaxAbs).
type Item struct {
	Client int
	Upd    *compress.Sparse
	Weight float64
	MaxAbs float64
}

// NormGateMinUpdates is the minimum number of structurally valid
// updates before the median-relative norm gate engages: with fewer, the
// median is dominated by the very update under judgment and the gate
// would be deciding against itself.
const NormGateMinUpdates = 3

// Screen is the integrity screen over a round held in memory. No engine
// calls it — every fold in the program is Tree.Ingest's — but bench/'s
// probes time it and the tests hold the tree to it as their reference. It
// runs the rules Tree.Ingest and Tree.Finish run, through the same two
// functions, and returns the survivors plus quarantine records for the
// rejects:
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
//  4. The L2-norm outlier gate (judge): with maxNormMult > 0 and at least
//     NormGateMinUpdates survivors, updates whose norm exceeds
//     maxNormMult times the round's median norm are quarantined; a zero
//     median skips the gate.
//
// Screen mutates only the updates' values (scrubbing) and never
// reorders kept items; the records come in Tree.Finish's order.
func Screen(round, dim int, maxNormMult float64, ups []Item, logf Logf) (keep []Item, quarantined []QuarantineRecord) {
	if logf == nil {
		logf = quiet
	}
	hs := make([]held, 0, len(ups))
	for i, it := range ups {
		u := Update{Client: it.Client, Weight: it.Weight, Delta: it.Upd}
		scrubbed, reason := check(dim, &u)
		if scrubbed > 0 {
			logf("server: round %d: scrubbed %d non-finite values from client %d", round+1, scrubbed, u.Client)
		}
		if reason != "" {
			quarantined = append(quarantined, QuarantineRecord{Round: round, ClientID: u.Client, Reason: reason})
			continue
		}
		h := held{round: round, at: i, u: u}
		if maxNormMult > 0 {
			h.norm = u.Delta.Norm2()
		}
		hs = append(hs, h)
	}
	quarantined, cut := judge(maxNormMult, quarantined, hs)
	hs = hs[:cut]
	slices.SortFunc(hs, func(a, b held) int { return a.at - b.at })
	keep = make([]Item, len(hs))
	for i, h := range hs {
		keep[i] = ups[h.at]
		keep[i].MaxAbs = h.u.MaxAbs
	}
	return keep, quarantined
}

// check is the per-update half of the screen, run once per update on
// arrival: Check's structural validation and scrub, the whole-update
// non-finite reject and the fold window. It returns the reject's reason
// ("" for none) and the values it scrubbed, and sets u.MaxAbs for the
// fold's bound.
func check(dim int, u *Update) (scrubbed int, reason string) {
	scrubbed, maxAbs, err := u.Delta.Check(dim)
	switch {
	case err != nil:
		return 0, err.Error()
	case scrubbed > 0 && scrubbed == u.Delta.NNZ():
		return 0, fmt.Sprintf("update entirely non-finite (%d values)", scrubbed)
	}
	if err := windowErr(u.Weight, maxAbs); err != nil {
		return scrubbed, err.Error()
	}
	u.MaxAbs = maxAbs
	return scrubbed, ""
}

// held is an update that passed check, folded and awaiting the norm
// gate: its round, its L2 norm and, for Screen, its index in the input.
type held struct {
	round int
	norm  float64
	at    int
	u     Update
}

// judge is the barrier's half of the screen, the one norm gate every
// engine applies: at round end for the sync server and the edge, at
// version apply for the async session, and in Screen. quars holds the
// round's structural and window rejects and hs the updates that passed
// them. With mult > 0 and at least NormGateMinUpdates updates in hs, each
// whose L2 norm exceeds mult × their median is quarantined; a zero median
// skips the gate (an all-zero round has no scale to judge against).
// judge reorders hs by norm and returns the quarantined ones as hs[cut:],
// and quars in client order with the norm rejects after the rest.
func judge(mult float64, quars []QuarantineRecord, hs []held) (recs []QuarantineRecord, cut int) {
	slices.SortFunc(quars, byClient)
	cut = len(hs)
	if mult <= 0 || len(hs) < NormGateMinUpdates {
		return quars, cut
	}
	slices.SortFunc(hs, func(a, b held) int { return cmp.Compare(a.norm, b.norm) })
	m := len(hs) / 2
	med := hs[m].norm
	if len(hs)%2 == 0 {
		med = (hs[m-1].norm + hs[m].norm) / 2
	}
	if med <= 0 {
		return quars, cut
	}
	limit := mult * med
	for cut > 0 && hs[cut-1].norm > limit {
		cut--
	}
	n := len(quars)
	for _, h := range hs[cut:] {
		quars = append(quars, QuarantineRecord{Round: h.round, ClientID: h.u.Client, Norm: h.norm,
			Reason: fmt.Sprintf("L2 norm %.4g exceeds %.4g (%.3g x round median %.4g)", h.norm, limit, mult, med)})
	}
	slices.SortFunc(quars[n:], byClient)
	return quars, cut
}

// byClient orders quarantine records by client, then round, norm and
// reason, so that the order records arrive in never shows.
func byClient(a, b QuarantineRecord) int {
	return cmp.Or(cmp.Compare(a.ClientID, b.ClientID), cmp.Compare(a.Round, b.Round),
		cmp.Compare(a.Norm, b.Norm), strings.Compare(a.Reason, b.Reason))
}
