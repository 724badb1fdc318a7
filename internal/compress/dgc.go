package compress

import (
	"fmt"
	"math"
	"sync"

	"adafl/internal/tensor"
)

// DGC implements Deep Gradient Compression (Lin et al. 2017), the codec
// AdaFL's adaptive compression builds on. Per encode call it:
//
//  1. clips the incoming gradient to ClipNorm (local gradient clipping,
//     preventing explosion under aggressive sparsification),
//  2. applies momentum correction: u ← m·u + g, v ← v + u, so delayed
//     small coordinates accumulate momentum-consistent mass instead of
//     being repeatedly discarded,
//  3. transmits the top-k coordinates of the accumulator v and clears the
//     transmitted coordinates of both u and v (error feedback).
//
// The clear of u is deferred: Encode subtracts what it sends from v and
// stages the sent values; Commit (or the next Encode) zeroes u at their
// indices, and Rollback adds them back to v. u is untouched until then, so
// Rollback is exact by construction. The stage holds the values at the
// width they travel, float32, which is exact (Encode rounded them so),
// and the indices only when the message is not dense: a warm-up client
// keeps 4 B per parameter for its stage, not the 12 B message, which the
// caller may drop or change once it is sent.
//
// The struct is per-client state; one DGC instance must not be shared
// between clients.
type DGC struct {
	// Momentum is the correction factor m (typically the trainer's own
	// momentum coefficient). It must not change after the first Encode.
	Momentum float64
	// ClipNorm bounds the L2 norm of each incoming gradient before
	// accumulation; 0 disables clipping.
	ClipNorm float64
	// MsgClipFactor, when positive, bounds the L2 norm of each transmitted
	// message to MsgClipFactor·‖g‖ (the current incoming gradient's norm).
	// The clipped-away portion stays in the accumulator, so mass is
	// conserved but large stale residuals drain over several rounds
	// instead of being dumped at once. 0 disables message clipping.
	MsgClipFactor float64

	// u is the momentum accumulator and v the residual. With Momentum 0,
	// u is not kept: all an Encode reads of it is 0·u, which the flush of
	// 0·u + g erases (±0 plus g is g, and ±0 flushes to +0), so no later
	// bit depends on it and it would be 8 B per coordinate of dead state.
	u, v []float64

	// sel is the top-k select with its scratch, kept across Encode calls
	// and sized to the bracket, so a steady-state encode allocates only
	// the outgoing message and its stage.
	sel selector

	// The stage is the latest Encode's message while its upload can still
	// fail or be quarantined: Commit (upload accepted) clears u at its
	// indices, Rollback (upload lost/rejected) returns its values to v —
	// without it, a rejected round would silently destroy the
	// error-feedback residual instead of retrying it. stageVals holds the
	// sent values as float32, stageIdx their indices, nil when the message
	// has every coordinate; staged says whether a stage is open.
	staged    bool
	stageIdx  []int32
	stageVals []float32
}

// NewDGC returns a DGC codec with the given momentum correction factor and
// clipping threshold.
func NewDGC(momentum, clipNorm float64) *DGC {
	return &DGC{Momentum: momentum, ClipNorm: clipNorm}
}

// Name implements Codec.
func (d *DGC) Name() string { return "dgc" }

// Reset implements Codec.
func (d *DGC) Reset() {
	d.u, d.v = nil, nil
	d.dropStage()
}

// Validate rejects configurations whose error-feedback arithmetic would
// drift or explode: a momentum at or above 1 (the u accumulator diverges),
// or NaN/negative clip bounds. Call it where configs are parsed; Encode
// itself stays unchecked on the hot path.
func (d *DGC) Validate() error {
	if math.IsNaN(d.Momentum) || d.Momentum < 0 || d.Momentum >= 1 {
		return fmt.Errorf("compress: DGC Momentum %v outside [0, 1)", d.Momentum)
	}
	if math.IsNaN(d.ClipNorm) || d.ClipNorm < 0 {
		return fmt.Errorf("compress: DGC ClipNorm %v negative or NaN", d.ClipNorm)
	}
	if math.IsNaN(d.MsgClipFactor) || d.MsgClipFactor < 0 {
		return fmt.Errorf("compress: DGC MsgClipFactor %v negative or NaN", d.MsgClipFactor)
	}
	return nil
}

// AccumulatedNorm exposes the L2 norm of the residual accumulator, used by
// tests and diagnostics to verify error feedback drains over time.
func (d *DGC) AccumulatedNorm() float64 { return tensor.Norm2(d.v) }

// Encode implements Codec.
func (d *DGC) Encode(grad []float64, ratio float64) *Sparse {
	return d.encodeDelta(tensor.DeltaOf(grad), ratio)
}

// EncodeDelta runs enc on grad. DGC reads it as it is, with the bits its
// Encode gives on the float64 vector: a wire client's update, its trained
// parameters minus the broadcast's, is read as the two float32 vectors it
// is the difference of and never built. Any other codec is given the
// vector, filled for the call into a buffer borrowed from wholeScratch
// (every codec copies what it keeps of its input).
func EncodeDelta(enc Codec, grad tensor.Delta, ratio float64) *Sparse {
	if d, ok := enc.(*DGC); ok {
		return d.encodeDelta(grad, ratio)
	}
	bp := wholeScratch.Get().(*[]float64)
	*bp = grad.Fill(*bp)
	msg := enc.Encode(*bp, ratio)
	wholeScratch.Put(bp)
	return msg
}

// wholeScratch holds EncodeDelta's vectors as *[]float64, so a Put boxes
// no slice header.
var wholeScratch = sync.Pool{New: func() any { return new([]float64) }}

// encodeDelta is Encode on a tensor.Delta.
func (d *DGC) encodeDelta(grad tensor.Delta, ratio float64) *Sparse {
	d.Commit()
	dim := grad.Len()
	if d.v == nil {
		d.v = make([]float64, dim)
		if d.Momentum != 0 {
			d.u = make([]float64, dim)
		}
	}
	if len(d.v) != dim {
		panic("compress: DGC gradient dimension changed")
	}
	var buf [tensor.DeltaChunk]float64
	// ‖g‖ over the finite coordinates, for the two clips. A non-finite one
	// counts as zero here and in the update below: a single NaN would
	// propagate through the clip's norm and the u/v updates, permanently
	// poisoning the error-feedback state for every later round, while zero
	// keeps the coordinate's residual intact.
	sum := 0.0
	if d.ClipNorm > 0 || d.MsgClipFactor > 0 {
		for lo := 0; lo < dim; {
			g := grad.Chunk(buf[:], lo, dim)
			for _, x := range g {
				if finite(x) {
					sum += x * x
				}
			}
			lo += len(g)
		}
	}
	gnorm := math.Sqrt(sum)
	clip := d.ClipNorm > 0 && gnorm > d.ClipNorm
	scale := d.ClipNorm / gnorm // read only when clip
	// One sweep clips the gradient, folds it into u and v, and — when the
	// clip fired — accumulates the clipped gradient's own norm, which is
	// what MsgClipFactor bounds against. Momentum that has decayed into the
	// subnormal range is flushed to zero, as in nn.SGD; such a u moves no v
	// that is not itself below 2⁻⁹⁶⁹.
	//
	// A u that is not kept is a chunk of stack scratch here: the loop reads
	// back only the finite values it wrote, and 0 times them changes no bit.
	sum = 0
	var noU [tensor.DeltaChunk]float64
	for lo := 0; lo < dim; {
		g := grad.Chunk(buf[:], lo, dim)
		du, dv := noU[:len(g)], d.v[lo:lo+len(g)]
		if d.u != nil {
			du = d.u[lo : lo+len(g)]
		}
		for i, x := range g {
			if !finite(x) {
				x = 0
			}
			if clip {
				x *= scale
				sum += x * x
			}
			u := tensor.FlushSubnormal(d.Momentum*du[i] + x)
			du[i] = u
			dv[i] += u
		}
		lo += len(g)
	}
	if clip {
		gnorm = math.Sqrt(sum)
	}
	msg := d.sel.selectTopK(d.v, KForRatio(dim, ratio))
	if d.MsgClipFactor > 0 {
		bound := d.MsgClipFactor * gnorm
		if n := tensor.Norm2(msg.Values); n > bound && n > 0 {
			tensor.ScaleVec(msg.Values, bound/n)
		}
	}
	// Round last, after the scaling and before the stage: v -= sent below
	// then keeps each coordinate's rounding error in the residual (a value
	// minus its float32 neighbour is exact), so no mass is lost to the
	// rounding and Rollback's v += sent still lands on the old v.
	roundToFloat32(msg.Values)
	// Clear v now and stage what was sent for u's clear: Commit (or the
	// next Encode) zeroes u at its indices, Rollback adds it back to v.
	d.stageVals = make([]float32, len(msg.Values))
	for i, idx := range msg.Indices {
		d.v[idx] -= msg.Values[i]
		d.stageVals[i] = float32(msg.Values[i])
	}
	if len(msg.Indices) < dim {
		d.stageIdx = make([]int32, len(msg.Indices))
		copy(d.stageIdx, msg.Indices)
	}
	d.staged = true
	return msg
}

// dropStage closes the stage and lets its buffers go.
func (d *DGC) dropStage() {
	d.staged, d.stageIdx, d.stageVals = false, nil, nil
}

// Commit finalises the most recent Encode: the transmitted mass was
// accepted by the server, so the momentum u of the sent coordinates is
// cleared and the stage dropped. Calling Commit (or Rollback) twice is a
// no-op.
func (d *DGC) Commit() {
	if !d.staged {
		return
	}
	if d.u != nil {
		if d.stageIdx == nil {
			clear(d.u)
		}
		for _, idx := range d.stageIdx {
			d.u[idx] = 0
		}
	}
	d.dropStage()
}

// Rollback undoes the most recent Encode's error-feedback clear: the
// transmitted values are returned to the accumulator v, and u, whose
// clear was deferred, is as the Encode left it. A failed or quarantined
// upload's mass is thus re-transmitted by the next accepted round instead
// of being destroyed. Only the latest Encode can be rolled back; a newer
// Encode implicitly commits its predecessor.
func (d *DGC) Rollback() {
	if !d.staged {
		return
	}
	if d.stageIdx == nil {
		for i, x := range d.stageVals {
			d.v[i] += float64(x)
		}
	}
	for i, idx := range d.stageIdx {
		d.v[idx] += float64(d.stageVals[i])
	}
	d.dropStage()
}
