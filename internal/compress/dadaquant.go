package compress

import (
	"math"

	"adafl/internal/stats"
	"adafl/internal/tensor"
)

// DAdaQuant is a doubly-adaptive stochastic quantizer in the style of
// DAdaQuant (Hönig et al., arXiv 2111.00465): the level count adapts both
// over *time* — a global schedule that starts coarse and doubles as
// training progresses, spending bytes where they buy the most accuracy —
// and per *client* — the negotiator assigns each client a level count from
// its observed link state via SetLevels. Rounding reuses QSGD's unbiased
// stochastic scheme.
//
// When the requested ratio is deeper than dense quantization alone can
// reach (32/bits), Encode sparsifies to the top-k coordinates first and
// quantizes the survivors, so one codec covers the whole ratio range the
// negotiator can ask for. The message's wire cost is deterministic given
// (dim, ratio, levels): k never depends on the gradient values, which the
// scenario golden-replay tests rely on.
type DAdaQuant struct {
	// MinLevels and MaxLevels bound the level count s (both ≥ 1).
	MinLevels, MaxLevels int
	// DoubleEvery is the global schedule period: the scheduled level count
	// is MinLevels doubled once per DoubleEvery rounds, saturating at
	// MaxLevels.
	DoubleEvery int

	rng    *stats.RNG
	round  int
	levels int
	sel    selector

	// v is the error-feedback residual: gradient mass a deep-ratio top-k
	// encode leaves unsent is carried into the next encode instead of
	// dropped — without it, consecutive deep-compression rounds (a
	// bandwidth collapse) silently discard most of the update. A dense
	// quantized encode flushes the whole residual. Like DGC, the clear
	// performed by the latest Encode stays staged until Commit or Rollback,
	// so a rejected or lost upload's mass is re-transmitted rather than
	// destroyed; a newer Encode implicitly commits its predecessor.
	//
	// The stage holds only what the clear destroyed. A sparse encode keeps
	// the message's indices and the k values the quantizer overwrote in
	// the message (stageVals); a dense flush hands the residual buffer
	// itself over (stageV) and leaves v empty, and Commit zeroes the buffer
	// and hands it back. Neither copies the residual.
	v         []float64
	stageIdx  []int32
	stageVals []float64
	stageV    []float64
	pending   bool
}

// NewDAdaQuant returns a doubly-adaptive quantizer with the given level
// bounds and doubling period, drawing stochastic-rounding randomness from
// rng. It panics on non-positive levels or period, or min > max — the
// same contract as NewQSGD.
func NewDAdaQuant(minLevels, maxLevels, doubleEvery int, rng *stats.RNG) *DAdaQuant {
	if minLevels < 1 || maxLevels < minLevels {
		panic("compress: DAdaQuant needs 1 <= MinLevels <= MaxLevels")
	}
	if doubleEvery < 1 {
		panic("compress: DAdaQuant needs DoubleEvery >= 1")
	}
	return &DAdaQuant{MinLevels: minLevels, MaxLevels: maxLevels, DoubleEvery: doubleEvery, rng: rng}
}

// Name implements Codec.
func (d *DAdaQuant) Name() string { return "dadaquant" }

// Reset implements Codec.
func (d *DAdaQuant) Reset() {
	d.round, d.levels = 0, 0
	d.v = nil
	d.stageIdx, d.stageV = nil, nil
	d.pending = false
}

// SetRound advances the global schedule; the client calls it with the
// server's round number before each Encode.
func (d *DAdaQuant) SetRound(r int) {
	if r > 0 {
		d.round = r
	}
}

// SetLevels pins the per-client level count assigned by the negotiator,
// clamped to [MinLevels, MaxLevels]. 0 returns to the global schedule.
func (d *DAdaQuant) SetLevels(l int) {
	if l > 0 {
		if l < d.MinLevels {
			l = d.MinLevels
		}
		if l > d.MaxLevels {
			l = d.MaxLevels
		}
	} else {
		l = 0
	}
	d.levels = l
}

// Levels resolves the level count in effect: the negotiated assignment if
// one is pinned, the global schedule otherwise.
func (d *DAdaQuant) Levels() int {
	if d.levels > 0 {
		return d.levels
	}
	return ScheduledLevels(d.round, d.MinLevels, d.MaxLevels, d.DoubleEvery)
}

// ScheduledLevels is DAdaQuant's global time schedule as a pure function:
// the level count starts at min and doubles once per `every` rounds,
// saturating at max. Shared with the server-side negotiator so both ends
// agree on the schedule without exchanging it.
func ScheduledLevels(round, min, max, every int) int {
	if min < 1 {
		min = 1
	}
	if max < min {
		max = min
	}
	if every < 1 {
		every = 1
	}
	lv := min
	for r := every; r <= round && lv < max; r += every {
		lv *= 2
	}
	if lv > max {
		lv = max
	}
	return lv
}

// KForRatioQuantized returns how many coordinates a quantized-sparse
// message may keep so its wire size (header + norm scalar + k indices +
// ⌈k·bits/8⌉ packed values) stays within a factor ratio of dense.
// Clamped to [1, dim] with the same NaN/Inf handling as KForRatio.
func KForRatioQuantized(dim int, ratio float64, bits int) int {
	if math.IsNaN(ratio) || ratio <= 1 {
		return dim
	}
	if math.IsInf(ratio, 1) {
		return 1
	}
	budget := float64(DenseBytes(dim))/ratio - float64(headerBytes+BytesPerValue)
	k := int(budget * 8 / float64(8*BytesPerIndex+bits))
	if k < 1 {
		k = 1
	}
	if k > dim {
		k = dim
	}
	return k
}

// Encode implements Codec. The level count comes from Levels(); the ratio
// selects between dense quantization (when bits alone reach it) and
// top-k + quantization (when it is deeper). The gradient is folded into
// the error-feedback residual first, so unsent mass from deep-ratio
// rounds rides along until a shallower round flushes it.
func (d *DAdaQuant) Encode(grad []float64, ratio float64) *Sparse {
	d.Commit()
	lv := d.Levels()
	bits := QuantBitsFor(lv)
	dim := len(grad)
	if len(d.v) != dim {
		d.v = make([]float64, dim)
	}
	for i, x := range grad {
		d.v[i] += x
	}
	d.pending = true
	denseQuantCost := headerBytes + BytesPerValue + (dim*bits+7)/8
	budget := DenseBytes(dim)
	if !math.IsNaN(ratio) && ratio > 1 {
		budget = int(float64(DenseBytes(dim)) / ratio)
	}
	if denseQuantCost <= budget || math.IsNaN(ratio) || ratio <= 1 {
		return d.flushDense(lv, bits)
	}
	k := KForRatioQuantized(dim, ratio, bits)
	if k >= dim {
		return d.flushDense(lv, bits)
	}
	msg := d.sel.selectTopK(d.v, k)
	// Stage what the clear destroys: the selected values, before the
	// quantizer below overwrites them in the message.
	d.stageIdx = msg.Indices
	d.stageVals = append(d.stageVals[:0], msg.Values...)
	for _, idx := range msg.Indices {
		d.v[idx] = 0
	}
	norm := tensor.Norm2(msg.Values)
	msg.QuantBits = bits
	msg.QuantLevels = lv
	msg.QuantNorm = norm
	if norm == 0 {
		return msg
	}
	s := float64(lv)
	for i, v := range msg.Values {
		msg.Values[i] = quantizeStochastic(d.rng, norm, s, v)
	}
	return msg
}

// flushDense quantizes the full accumulated gradient and clears the
// residual by staging its buffer: v stays empty until Commit.
func (d *DAdaQuant) flushDense(lv, bits int) *Sparse {
	norm := tensor.Norm2(d.v)
	out := NewSparseDense(d.v)
	out.QuantBits = bits
	out.QuantLevels = lv
	out.QuantNorm = norm
	d.stageV, d.v = d.v, nil
	if norm == 0 {
		return out
	}
	s := float64(lv)
	for i, g := range out.Values {
		out.Values[i] = quantizeStochastic(d.rng, norm, s, g)
	}
	return out
}

// Commit finalises the most recent Encode: the server accepted the upload
// and the stage is dropped — a dense flush's residual buffer comes back
// zeroed. Idempotent.
func (d *DAdaQuant) Commit() {
	if !d.pending {
		return
	}
	if d.stageV != nil {
		clear(d.stageV)
		d.v = d.stageV
	}
	d.stageIdx, d.stageV = nil, nil
	d.pending = false
}

// Rollback undoes the most recent Encode's residual clear: the whole
// accumulated gradient (sent and unsent mass alike) returns to the
// residual, so a failed or quarantined upload is re-transmitted by the
// next accepted round instead of being destroyed. Only the latest Encode
// can be rolled back.
func (d *DAdaQuant) Rollback() {
	if !d.pending {
		return
	}
	if d.stageV != nil {
		d.v = d.stageV
	}
	for i, idx := range d.stageIdx {
		d.v[idx] = d.stageVals[i]
	}
	d.stageIdx, d.stageV = nil, nil
	d.pending = false
}
