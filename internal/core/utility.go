// Package core implements AdaFL, the paper's contribution: a utility- and
// connectivity-guided federated learning framework. It consists of
//
//   - the utility score S_i = f(B_i^down, B_i^up, U(g_i, ĝ)) combining link
//     bandwidth with gradient similarity (equation 6),
//   - adaptive node selection (Algorithm 1): threshold-filter by τ, rank by
//     score, keep the top K,
//   - adaptive gradient compression: per-client DGC compression ratios
//     driven by the utility ranking, from MinRatio (high-utility clients)
//     to MaxRatio (low-utility clients), with a warm-up phase of full
//     participation and low compression,
//   - engine adapters: a fl.RoundPlanner for synchronous AdaFL (top-k
//     participation) and a fl.AsyncGate + fl.AsyncStrategy pair for the
//     fully-asynchronous variant.
package core

import (
	"fmt"
	"math"

	"adafl/internal/tensor"
)

// SimilarityMetric selects how U(g_i, ĝ) is computed. The paper uses
// cosine similarity and notes L2/Euclidean alternatives.
type SimilarityMetric int

// Supported similarity metrics.
const (
	// Cosine maps the angle between gradients to [0, 1].
	Cosine SimilarityMetric = iota
	// NegL2 maps the Euclidean distance between direction-normalised
	// gradients to (0, 1] via 1/(1+d).
	NegL2
)

func (m SimilarityMetric) String() string {
	if m == Cosine {
		return "cosine"
	}
	return "negl2"
}

// UtilityConfig parameterises the utility score f.
type UtilityConfig struct {
	// SimWeight and BwWeight blend the similarity and bandwidth terms;
	// they are normalised internally so only their ratio matters.
	SimWeight, BwWeight float64
	// Metric selects the gradient similarity U.
	Metric SimilarityMetric
	// BwRef is the bandwidth (bytes/s) that saturates the bandwidth term;
	// links at or above BwRef score 1.
	BwRef float64
}

// DefaultUtility returns the configuration used throughout the paper's
// experiments: similarity-dominated scoring with a mild bandwidth term
// saturating at a WiFi-class uplink.
func DefaultUtility() UtilityConfig {
	return UtilityConfig{SimWeight: 0.8, BwWeight: 0.2, Metric: Cosine, BwRef: 2.5e6}
}

// SimilarityAt computes U(g_i, ĝ) ∈ [0, 1] against the ĝ given by its
// support, as tensor.CosineSimilarityAt reads one: vals at the coordinates
// idx and +0 elsewhere, or vals itself when idx is nil. Both forms of one
// ĝ give the same bits, as do both forms of a tensor.Delta local.
func (u UtilityConfig) SimilarityAt(local tensor.Delta, idx []int32, vals []float64) float64 {
	switch u.Metric {
	case Cosine:
		// Cosine is directionally sensitive: aligned → 1, opposed → 0.
		return (tensor.CosineSimilarityAt(local, idx, vals) + 1) / 2
	case NegL2:
		return negL2Similarity(local, idx, vals)
	default:
		panic(fmt.Sprintf("core: unknown similarity metric %d", u.Metric))
	}
}

// negL2Similarity is 1/(1+‖a/‖a‖ − b/‖b‖‖₂), or 0.5 when either side is
// zero, for the b SimilarityAt reads from idx and vals. It takes both norms
// in one pass and the distance in a second, scaling each element as it
// goes; every sum runs in index order and each scaled element is rounded
// before the subtraction, so the bits are those of copying both vectors,
// scaling the copies and measuring their distance.
func negL2Similarity(a tensor.Delta, idx []int32, vals []float64) float64 {
	if idx == nil && a.Len() != len(vals) {
		if tensor.Norm2(vals) == 0 || a.Norm2() == 0 {
			return 0.5
		}
		panic("core: NegL2 similarity length mismatch")
	}
	aa, bb, _ := tensor.SupportSums(a, idx, vals)
	na, nb := math.Sqrt(aa), math.Sqrt(bb)
	if na == 0 || nb == 0 {
		return 0.5
	}
	return 1 / (1 + math.Sqrt(tensor.ScaledDistanceAt(a, idx, vals, 1/na, 1/nb)))
}

// Score computes the utility score S_i for a client with the given link
// bandwidths and cached local gradient, against the previous global
// gradient ĝ. The result lies in [0, 1].
func (u UtilityConfig) Score(upBps, downBps float64, local, globalDelta []float64) float64 {
	return u.ScoreAt(upBps, downBps, tensor.DeltaOf(local), nil, globalDelta)
}

// ScoreAt is Score for the local gradient and the ĝ SimilarityAt reads.
func (u UtilityConfig) ScoreAt(upBps, downBps float64, local tensor.Delta, idx []int32, vals []float64) float64 {
	ws := u.SimWeight + u.BwWeight
	if ws <= 0 {
		panic("core: utility weights sum to zero")
	}
	return (u.SimWeight*u.SimilarityAt(local, idx, vals) + u.BwWeight*u.bandwidthTerm(upBps, downBps)) / ws
}

// bandwidthTerm maps the client's constraining (minimum) link bandwidth to
// [0, 1] with saturation at BwRef. A log scale keeps order-of-magnitude
// differences visible without letting gigabit links dominate.
func (u UtilityConfig) bandwidthTerm(upBps, downBps float64) float64 {
	if u.BwRef <= 0 {
		return 1
	}
	bw := math.Min(upBps, downBps)
	if bw <= 0 {
		return 0
	}
	v := math.Log1p(bw) / math.Log1p(u.BwRef)
	if v > 1 {
		v = 1
	}
	return v
}

// ScoredClient pairs a client index with its utility score.
type ScoredClient struct {
	Client int
	Score  float64
}

// SelectClients implements Algorithm 1: filter clients whose score meets
// the threshold τ, sort descending by score, and return the top
// min(K, |filtered|) as ScoredClient values (highest first). Ties keep
// ascending client order for determinism.
func SelectClients(scores []float64, k int, tau float64) []ScoredClient {
	if k < 1 {
		panic("core: K must be at least 1")
	}
	filtered := make([]ScoredClient, 0, len(scores))
	for i, s := range scores {
		if s >= tau {
			filtered = append(filtered, ScoredClient{Client: i, Score: s})
		}
	}
	// Insertion sort by descending score (stable, deterministic; n ≤ 100s).
	for i := 1; i < len(filtered); i++ {
		for j := i; j > 0 && filtered[j].Score > filtered[j-1].Score; j-- {
			filtered[j], filtered[j-1] = filtered[j-1], filtered[j]
		}
	}
	if k > len(filtered) {
		k = len(filtered)
	}
	return filtered[:k]
}
