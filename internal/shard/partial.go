package shard

import (
	"fmt"
	"math"
	"unsafe"

	"adafl/internal/compress"
)

// The fold's fixed-point units (DESIGN.md §Sharded aggregation). A Sum or
// CtrlSum word counts 2⁻⁵⁰, so an int64 spans ±2¹³; WeightSum counts 2⁻⁴⁰
// (±2²³, room for 10⁴ weight-1 clients at one edge); Bound counts 2⁻²⁰.
const (
	sumScale    = 0x1p50
	weightScale = 0x1p40
	boundScale  = 0x1p20

	// productLimit is the fold window an update must fit: an update with
	// any |w·Δⱼ| ≥ productLimit is quarantined before it is folded. It is
	// 80× the largest product any workload folds.
	productLimit = 0x1p6
	// sumLimit is the window of a whole aggregate: a partial whose Bound
	// reaches it may have wrapped and is never applied.
	sumLimit = 0x1p13
)

// Partial is one node's running aggregate: the weighted sum of every
// delta folded so far plus the scalars needed to renormalise exactly at
// the root. Memory is constant in the number of folded updates — one
// dense Dim-length vector (plus one more once a SCAFFOLD control delta
// arrives) regardless of fleet size.
//
// The fold is the two-phase form of FedAvg: Sum accumulates w_u·Δ_u and
// WeightSum accumulates w_u, so the root's AddTo(global, 1/Weight())
// applies the weighted mean. Both accumulate in int64 fixed point: each
// product w·Δⱼ is rounded once to the unit, and every fold and merge after
// that is integer addition, which is associative and commutative. The
// result is therefore the same bits whatever the fold order, the shard
// count, the edge count or the arrival order.
type Partial struct {
	// Dim is the model dimension every folded delta must declare.
	Dim int
	// Sum is Σ scale_u · Δ_u, densified, in words of 2⁻⁵⁰.
	Sum []int64
	// WeightSum is Σ scale_u in words of 2⁻⁴⁰ (Count in unweighted mode).
	WeightSum int64
	// Count is the number of folded updates.
	Count int
	// CtrlSum is Σ Δc_u over updates carrying a SCAFFOLD control delta
	// (nil until the first one arrives), in words of 2⁻⁵⁰; CtrlCount
	// counts them.
	CtrlSum   []int64
	CtrlCount int
	// Bound is an upper bound on every |Sumⱼ| and |CtrlSumⱼ|, in words of
	// 2⁻²⁰: Σ scale_u·max|Δ_u| (+ max|Δc_u|), each term rounded up. It
	// merges by addition, so it too is independent of order.
	Bound int64
}

// NewPartial returns an empty partial for a dim-parameter model.
func NewPartial(dim int) *Partial {
	return &Partial{Dim: dim, Sum: make([]int64, dim)}
}

// Fold accumulates one update; outside bench/ and the tests every fold
// is Tree.Ingest's. An update Screen kept carries its MaxAbs and passed
// Check(Dim) and the fold window, so Fold does not check it again; one
// without MaxAbs is checked here, and Fold panics if that check fails.
// Unweighted (SCAFFOLD), it folds at scale 1 instead of u.Weight.
func (p *Partial) Fold(u Update, unweighted bool) {
	if unweighted {
		u.Weight = 1
	}
	if u.MaxAbs == 0 {
		var err error
		if _, u.MaxAbs, err = u.Delta.Check(p.Dim); err != nil {
			panic("shard: Fold of an unscreened update: " + err.Error())
		}
	}
	p.fold(u)
}

// fold is Fold for an update whose check has run, with u.MaxAbs from it.
func (p *Partial) fold(u Update) { p.add(u, 1) }

// unfold takes back exactly what fold(u) added: roundWord is
// sign-symmetric, so each word of −w·Δ is minus the word of w·Δ, and the
// scalars are integers. The partial is then bit for bit what it would be
// had u never been folded.
func (p *Partial) unfold(u Update) { p.add(u, -1) }

// add folds sign·u, sign ±1, at scale u.Weight.
func (p *Partial) add(u Update, sign int64) {
	s := float64(sign) // ±1: every product with it is exact
	d := u.Delta
	foldWords(p.Sum, d.Indices, d.Values, s*u.Weight)
	p.Bound += sign * boundWord(math.Abs(u.Weight)*u.MaxAbs)
	p.WeightSum += roundWord(s * u.Weight * weightScale)
	p.Count += int(sign)
	if u.Ctrl != nil {
		if p.CtrlSum == nil {
			p.CtrlSum = make([]int64, p.Dim)
		}
		var m float64
		for i, v := range u.Ctrl {
			p.CtrlSum[i] += roundWord(float64(s * v * sumScale))
			m = max(m, math.Abs(v))
		}
		p.Bound += sign * boundWord(m)
		p.CtrlCount += int(sign)
	}
}

// foldWords adds each s·vals[j], rounded to a 2⁻⁵⁰ word, to
// words[idx[j]].
func foldWords(words []int64, idx []int32, vals []float64, s float64) {
	s *= sumScale // a power of two: exact, so each product is rounded once
	vals = vals[:len(idx)]
	for j, i := range idx {
		// The conversion keeps the product a separately rounded float64:
		// Go may not fuse it into an FMA with the rounding add.
		words[i] += roundWord(float64(s * vals[j]))
	}
}

// roundWord rounds x to the nearest integer, halves away from zero. It is
// branch-free and sign-symmetric (roundWord(−x) = −roundWord(x)), so
// folding −Δ subtracts exactly what folding Δ added. Inside the window
// (|x| < 2⁶³) it is off by at most one word.
func roundWord(x float64) int64 { return int64(x + math.Copysign(0.5, x)) }

// boundWord is b in Bound's words, rounded up. Anything at or past the
// window (and NaN) saturates there, which is enough to refuse the
// aggregate and keeps the integer sum from overflowing.
func boundWord(b float64) int64 {
	if !(b < sumLimit) {
		return sumLimit * boundScale
	}
	return int64(math.Ceil(b * boundScale))
}

// Merge folds q into p: integer addition, word by word, so merging
// partials in any order gives the same bits.
func (p *Partial) Merge(q *Partial) {
	if q == nil || q.Count == 0 && q.CtrlCount == 0 {
		return
	}
	if q.Dim != p.Dim {
		panic("shard: merging partials of different dimensions")
	}
	addInts(p.Sum, q.Sum)
	p.WeightSum += q.WeightSum
	p.Count += q.Count
	p.Bound += q.Bound
	if q.CtrlSum != nil {
		if p.CtrlSum == nil {
			p.CtrlSum = make([]int64, p.Dim)
		}
		addInts(p.CtrlSum, q.CtrlSum)
		p.CtrlCount += q.CtrlCount
	}
}

func addInts(dst, src []int64) {
	dst = dst[:len(src)]
	for i, v := range src {
		dst[i] += v
	}
}

// Slots is Sum with each word's bits in a float64 slot — the same memory,
// not a copy, valid while Sum is: a partial crosses the wire as
// MsgEdgePartial's Params, which the codec moves bit for bit. SetSlots
// reads them back.
func (p *Partial) Slots() []float64 {
	return unsafe.Slice((*float64)(unsafe.Pointer(unsafe.SliceData(p.Sum))), len(p.Sum))
}

// SetSlots sets Sum from slots another node's Slots wrote (len(slots) ==
// Dim), and Bound from the largest |Sumⱼ|: that node kept its own window,
// so its words are exact and the largest bounds them all; merged, the
// bounds add up as a fold's do.
func (p *Partial) SetSlots(slots []float64) {
	var m uint64
	for i, v := range slots {
		w := int64(math.Float64bits(v))
		p.Sum[i] = w
		m = max(m, uint64(max(w, -w))) // −MinInt64 wraps to itself: 2⁶³ as a uint64
	}
	p.Bound = int64(m>>30) + 1 // 2⁻⁵⁰ words → 2⁻²⁰ words, rounded up
}

// Weight is WeightSum as a float64.
func (p *Partial) Weight() float64 { return float64(p.WeightSum) / weightScale }

// Window reports an aggregate that may have left the fold window: its
// Bound reaches 2¹³, so a word may have wrapped. Such a partial is never
// applied; AddTo and AddCtrlTo refuse it.
func (p *Partial) Window() error {
	if p.Bound < sumLimit*boundScale {
		return nil
	}
	return fmt.Errorf("shard: aggregate of %d updates bounded by %.4g reaches the fold window ±2^13; not applied",
		p.Count, float64(p.Bound)/boundScale)
}

// AddTo adds a·Sum to dst, converting each word to float64 once. It is the
// one place a partial leaves fixed point. A partial outside the window
// (Window) leaves dst untouched and returns the error.
func (p *Partial) AddTo(dst []float64, a float64) error {
	if err := p.Window(); err != nil {
		return err
	}
	addWords(dst, p.Sum, a)
	return nil
}

// AddCtrlTo is AddTo for CtrlSum (a no-op before any control delta).
func (p *Partial) AddCtrlTo(dst []float64, a float64) error {
	if err := p.Window(); err != nil {
		return err
	}
	if p.CtrlSum != nil {
		addWords(dst, p.CtrlSum, a)
	}
	return nil
}

func addWords(dst []float64, words []int64, a float64) {
	s := a / sumScale // a power of two: exact
	dst = dst[:len(words)]
	for i, w := range words {
		dst[i] += float64(s * float64(w))
	}
}

// Reset zeroes the partial for the next round, keeping allocations.
func (p *Partial) Reset() {
	clear(p.Sum)
	p.WeightSum = 0
	p.Count = 0
	clear(p.CtrlSum)
	p.CtrlCount = 0
	p.Bound = 0
}

// Update is one client contribution as the shard tree ingests it.
type Update struct {
	// Client is the contributing client's id.
	Client int
	// Weight is the scale the update folds with: the client's
	// aggregation weight, or 1 for an unweighted (SCAFFOLD) rule.
	Weight float64
	// Delta is the sparse model delta.
	Delta *compress.Sparse
	// Ctrl optionally carries a SCAFFOLD control-variate delta.
	Ctrl []float64
	// MaxAbs is max|Δⱼ| as the screen measured it (Item.MaxAbs); 0 has
	// Fold measure it.
	MaxAbs float64
}

// windowErr reports an update whose largest product w·max|Δ| leaves the
// fold window.
func windowErr(w, maxAbs float64) error {
	if b := math.Abs(w) * maxAbs; !(b < productLimit) {
		return fmt.Errorf("update outside the fold window: |w·Δ| reaches %.4g (limit 2^6)", b)
	}
	return nil
}
