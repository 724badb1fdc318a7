package shard

import "adafl/internal/compress"

// Partial is one node's running aggregate: the weighted sum of every
// delta folded so far plus the scalars needed to renormalise exactly at
// the root. Memory is constant in the number of folded updates — one
// dense Dim-length vector (plus one more once a SCAFFOLD control delta
// arrives) regardless of fleet size.
//
// The fold is the two-phase form of FedAvg: Sum accumulates w_u·Δ_u and
// WeightSum accumulates w_u, so the root's Axpy(1/WeightSum, Sum, global)
// reproduces the buffered aggregators bit for bit when the fold order
// matches the buffered update order (see DESIGN.md §Sharded aggregation
// for the determinism contract).
type Partial struct {
	// Dim is the model dimension every folded delta must declare.
	Dim int
	// Sum is Σ scale_u · Δ_u, densified.
	Sum []float64
	// WeightSum is Σ scale_u (equals Count in unweighted mode).
	WeightSum float64
	// Count is the number of folded updates.
	Count int
	// CtrlSum is Σ Δc_u over updates carrying a SCAFFOLD control delta
	// (nil until the first one arrives); CtrlCount counts them.
	CtrlSum   []float64
	CtrlCount int
}

// NewPartial returns an empty partial for a dim-parameter model.
func NewPartial(dim int) *Partial {
	return &Partial{Dim: dim, Sum: make([]float64, dim)}
}

// Fold accumulates one update. The delta must already have passed
// Validate(Dim) — Fold itself never re-validates, which is what keeps
// the ingest path at exactly one validation per update. In unweighted
// mode (SCAFFOLD) every update folds with scale 1 instead of u.Weight.
func (p *Partial) Fold(u Update, unweighted bool) {
	scale := u.Weight
	if unweighted {
		scale = 1
	}
	u.Delta.AddTo(p.Sum, scale)
	p.WeightSum += scale
	p.Count++
	if u.Ctrl != nil {
		if p.CtrlSum == nil {
			p.CtrlSum = make([]float64, p.Dim)
		}
		for i, v := range u.Ctrl {
			p.CtrlSum[i] += v
		}
		p.CtrlCount++
	}
}

// Merge folds q into p coordinate-wise. The root reducer calls Merge in
// ascending shard order, which fixes the floating-point summation order
// and makes the tree result bit-deterministic for a given shard count,
// routing and per-shard fold order.
func (p *Partial) Merge(q *Partial) {
	if q == nil || q.Count == 0 && q.CtrlCount == 0 {
		return
	}
	if q.Dim != p.Dim {
		panic("shard: merging partials of different dimensions")
	}
	for i, v := range q.Sum {
		p.Sum[i] += v
	}
	p.WeightSum += q.WeightSum
	p.Count += q.Count
	if q.CtrlSum != nil {
		if p.CtrlSum == nil {
			p.CtrlSum = make([]float64, p.Dim)
		}
		for i, v := range q.CtrlSum {
			p.CtrlSum[i] += v
		}
		p.CtrlCount += q.CtrlCount
	}
}

// Reset zeroes the partial for the next round, keeping allocations.
func (p *Partial) Reset() {
	for i := range p.Sum {
		p.Sum[i] = 0
	}
	p.WeightSum = 0
	p.Count = 0
	if p.CtrlSum != nil {
		for i := range p.CtrlSum {
			p.CtrlSum[i] = 0
		}
	}
	p.CtrlCount = 0
}

// Update is one client contribution as the shard tree ingests it.
type Update struct {
	// Client is the contributing client's id (also the routing key).
	Client int
	// Weight is the client's aggregation weight (ignored in unweighted
	// mode).
	Weight float64
	// Delta is the sparse model delta.
	Delta *compress.Sparse
	// Ctrl optionally carries a SCAFFOLD control-variate delta.
	Ctrl []float64
}
