package compress

import (
	"fmt"
	"math"

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
// keeps the returned message as its stage; Commit (or the next Encode)
// zeroes u at the message's indices, and Rollback adds its values back to
// v. u is untouched until then, so Rollback is exact by construction and
// the stage costs nothing beyond the message itself. The caller must not
// mutate the returned message before Commit or Rollback.
//
// The struct is per-client state; one DGC instance must not be shared
// between clients.
type DGC struct {
	// Momentum is the correction factor m (typically the trainer's own
	// momentum coefficient).
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

	u, v []float64

	// scratch is the selection buffer, recycled across Encode calls so a
	// steady-state encode allocates only the outgoing message.
	scratch []float64

	// staged is the latest Encode's message while its upload can still
	// fail or be quarantined: Commit (upload accepted) clears u at its
	// indices, Rollback (upload lost/rejected) returns its values to v —
	// without it, a rejected round would silently destroy the
	// error-feedback residual instead of retrying it.
	staged *Sparse
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
	d.staged = nil
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
	d.Commit()
	if d.u == nil {
		d.u = make([]float64, len(grad))
		d.v = make([]float64, len(grad))
	}
	if len(d.u) != len(grad) {
		panic("compress: DGC gradient dimension changed")
	}
	// ‖g‖ over the finite coordinates, for the two clips. A non-finite one
	// counts as zero here and in the update below: a single NaN would
	// propagate through the clip's norm and the u/v updates, permanently
	// poisoning the error-feedback state for every later round, while zero
	// keeps the coordinate's residual intact.
	sum := 0.0
	if d.ClipNorm > 0 || d.MsgClipFactor > 0 {
		for _, x := range grad {
			if finite(x) {
				sum += x * x
			}
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
	sum = 0
	du, dv := d.u[:len(grad)], d.v[:len(grad)]
	for i, x := range grad {
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
	if clip {
		gnorm = math.Sqrt(sum)
	}
	// The select buffer only serves a sparse k: a dense warm-up encode
	// does not allocate it.
	k := KForRatio(len(grad), ratio)
	if k < len(grad) && cap(d.scratch) < len(grad) {
		d.scratch = make([]float64, len(grad))
	}
	msg := SelectTopKScratch(d.v, k, d.scratch)
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
	// Clear v now and stage the message for u's clear: Commit (or the
	// next Encode) zeroes u at its indices, Rollback adds it back to v.
	for i, idx := range msg.Indices {
		d.v[idx] -= msg.Values[i]
	}
	d.staged = msg
	return msg
}

// Commit finalises the most recent Encode: the transmitted mass was
// accepted by the server, so the momentum u of the sent coordinates is
// cleared and the stage dropped. Calling Commit (or Rollback) twice is a
// no-op.
func (d *DGC) Commit() {
	if d.staged == nil {
		return
	}
	for _, idx := range d.staged.Indices {
		d.u[idx] = 0
	}
	d.staged = nil
}

// Rollback undoes the most recent Encode's error-feedback clear: the
// transmitted values are returned to the accumulator v, and u, whose
// clear was deferred, is as the Encode left it. A failed or quarantined
// upload's mass is thus re-transmitted by the next accepted round instead
// of being destroyed. Only the latest Encode can be rolled back; a newer
// Encode implicitly commits its predecessor.
func (d *DGC) Rollback() {
	if d.staged == nil {
		return
	}
	for i, idx := range d.staged.Indices {
		d.v[idx] += d.staged.Values[i]
	}
	d.staged = nil
}
