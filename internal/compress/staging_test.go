package compress

import (
	"fmt"
	"math"
	"testing"

	"adafl/internal/stats"
	"adafl/internal/tensor"
)

// stagedDGC is DGC's staging as it was written before the deferred clear:
// Encode zeroes u and subtracts the message from v at the sent indices,
// after copying the indices, the values and the old u aside; Rollback
// puts those copies back. TestStagingDeferredMatchesCopied replays it
// against DGC.
type stagedDGC struct {
	Momentum, ClipNorm, MsgClipFactor float64

	u, v, scratch []float64

	pendingIdx  []int32
	pendingVals []float64
	pendingU    []float64
	pending     bool
}

func (d *stagedDGC) Encode(grad []float64, ratio float64) *Sparse {
	if d.u == nil {
		d.u = make([]float64, len(grad))
		d.v = make([]float64, len(grad))
	}
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
	scale := d.ClipNorm / gnorm
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
	k := KForRatio(len(grad), ratio)
	if cap(d.scratch) < len(grad) {
		d.scratch = make([]float64, len(grad))
	}
	msg := SelectTopKScratch(d.v, k, d.scratch)
	if d.MsgClipFactor > 0 {
		bound := d.MsgClipFactor * gnorm
		if n := tensor.Norm2(msg.Values); n > bound && n > 0 {
			tensor.ScaleVec(msg.Values, bound/n)
		}
	}
	roundToFloat32(msg.Values)
	d.pendingIdx = append(d.pendingIdx[:0], msg.Indices...)
	d.pendingVals = append(d.pendingVals[:0], msg.Values...)
	if cap(d.pendingU) < len(msg.Indices) {
		d.pendingU = make([]float64, len(msg.Indices))
	}
	d.pendingU = d.pendingU[:len(msg.Indices)]
	for i, idx := range msg.Indices {
		d.pendingU[i] = d.u[idx]
	}
	d.pending = true
	for i, idx := range msg.Indices {
		d.u[idx] = 0
		d.v[idx] -= msg.Values[i]
	}
	return msg
}

func (d *stagedDGC) Commit() { d.pending = false }

func (d *stagedDGC) Rollback() {
	if !d.pending {
		return
	}
	for i, idx := range d.pendingIdx {
		d.u[idx] = d.pendingU[i]
		d.v[idx] += d.pendingVals[i]
	}
	d.pending = false
}

// stagedDAdaQuant is DAdaQuant's staging as it was written before the
// residual stopped being copied: every Encode snapshots the whole
// accumulated residual, and Rollback copies the snapshot back. The level
// count is fixed per call (lv) instead of resolved from a schedule.
type stagedDAdaQuant struct {
	rng      *stats.RNG
	scratch  []float64
	v        []float64
	pendingV []float64
	pending  bool
}

func (d *stagedDAdaQuant) Encode(grad []float64, ratio float64, lv int) *Sparse {
	bits := QuantBitsFor(lv)
	dim := len(grad)
	if len(d.v) != dim {
		d.v = make([]float64, dim)
	}
	for i, x := range grad {
		d.v[i] += x
	}
	d.pendingV = append(d.pendingV[:0], d.v...)
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
	if cap(d.scratch) < dim {
		d.scratch = make([]float64, dim)
	}
	msg := SelectTopKScratch(d.v, k, d.scratch)
	for _, idx := range msg.Indices {
		d.v[idx] = 0
	}
	norm := tensor.Norm2(msg.Values)
	msg.QuantBits, msg.QuantLevels, msg.QuantNorm = bits, lv, norm
	if norm == 0 {
		return msg
	}
	for i, v := range msg.Values {
		msg.Values[i] = quantizeStochastic(d.rng, norm, float64(lv), v)
	}
	return msg
}

func (d *stagedDAdaQuant) flushDense(lv, bits int) *Sparse {
	norm := tensor.Norm2(d.v)
	out := NewSparseDense(d.v)
	out.QuantBits, out.QuantLevels, out.QuantNorm = bits, lv, norm
	for i := range d.v {
		d.v[i] = 0
	}
	if norm == 0 {
		return out
	}
	for i, g := range out.Values {
		out.Values[i] = quantizeStochastic(d.rng, norm, float64(lv), g)
	}
	return out
}

func (d *stagedDAdaQuant) Commit() { d.pending = false }

func (d *stagedDAdaQuant) Rollback() {
	if !d.pending {
		return
	}
	copy(d.v, d.pendingV)
	d.pending = false
}

// stagingGrad draws one gradient of the given family: plain normals,
// normals with NaN and ±Inf spliced in, or magnitudes around 1e-307 whose
// momentum decays into the subnormal range within a few encodes (zero
// gradients, the fourth family, let it get there).
func stagingGrad(r *stats.RNG, dim, family int) []float64 {
	g := make([]float64, dim)
	switch family {
	case 0:
		for i := range g {
			g[i] = r.Norm()
		}
	case 1:
		for i := range g {
			g[i] = r.Norm()
		}
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			g[r.Intn(dim)] = bad
		}
	case 2:
		for i := range g {
			g[i] = r.Norm() * 1e-307
		}
	}
	return g
}

// sameBits reports whether a and b hold the same float64 bit patterns,
// naming the first coordinate that differs.
func sameBits(a, b []float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("length %d, want %d", len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return fmt.Errorf("[%d] = %x, want %x", i, math.Float64bits(a[i]), math.Float64bits(b[i]))
		}
	}
	return nil
}

func sameMessage(got, want *Sparse) error {
	if got.Dim != want.Dim || got.QuantBits != want.QuantBits || got.QuantLevels != want.QuantLevels ||
		math.Float64bits(got.QuantNorm) != math.Float64bits(want.QuantNorm) || len(got.Indices) != len(want.Indices) {
		return fmt.Errorf("header %d/%d/%d/%v nnz %d, want %d/%d/%d/%v nnz %d",
			got.Dim, got.QuantBits, got.QuantLevels, got.QuantNorm, len(got.Indices),
			want.Dim, want.QuantBits, want.QuantLevels, want.QuantNorm, len(want.Indices))
	}
	for i := range got.Indices {
		if got.Indices[i] != want.Indices[i] {
			return fmt.Errorf("index %d = %d, want %d", i, got.Indices[i], want.Indices[i])
		}
	}
	if err := sameBits(got.Values, want.Values); err != nil {
		return fmt.Errorf("values%v", err)
	}
	return nil
}

// dgcCommittedU is u as the copying DGC would hold it: the deferred clear
// of a staged message applied.
func dgcCommittedU(d *DGC) []float64 {
	u := append([]float64(nil), d.u...)
	if d.staged != nil {
		for _, idx := range d.staged.Indices {
			u[idx] = 0
		}
	}
	return u
}

// dadaResidual is v as the copying DAdaQuant would hold it: a dense
// flush's staged buffer leaves v empty, which stands for all zeros.
func dadaResidual(d *DAdaQuant, dim int) []float64 {
	if d.v == nil && d.stageV != nil {
		return make([]float64, dim)
	}
	return d.v
}

// stagingOp picks the next call of a random staging sequence: an Encode
// (which implicitly commits an open stage), a Commit or a Rollback, each
// sometimes repeated so the idempotent paths are hit too.
func stagingOp(r *stats.RNG) string {
	switch x := r.Intn(10); {
	case x < 5:
		return "encode"
	case x < 8:
		return "commit"
	}
	return "rollback"
}

// TestStagingDeferredMatchesCopied pins both error-feedback codecs' staging
// bit for bit against the copying versions above. Random sequences of
// Encode, Commit and Rollback (an Encode after an Encode is the implicit
// commit) run on the codec and its reference side by side: a dense first
// encode followed by sparse ratios, clipping of the gradient and of the
// message, non-finite gradient coordinates, and momentum decaying into the
// subnormal range. After every step the messages, u, v and the
// accumulated norm must carry the same bits.
func TestStagingDeferredMatchesCopied(t *testing.T) {
	ratios := []float64{1, 2, 4, 8, 50, 210}
	configs := []struct{ momentum, clip, msgClip float64 }{
		{0.9, 0, 0}, {0.5, 3, 0}, {0.9, 5, 0.5}, {0, 0, 1.5}, {0.99, 0, 0},
	}
	for ci, cfg := range configs {
		t.Run(fmt.Sprintf("dgc/%d", ci), func(t *testing.T) {
			r := stats.NewRNG(uint64(100 + ci))
			dim := 300 + 37*ci
			d := &DGC{Momentum: cfg.momentum, ClipNorm: cfg.clip, MsgClipFactor: cfg.msgClip}
			ref := &stagedDGC{Momentum: cfg.momentum, ClipNorm: cfg.clip, MsgClipFactor: cfg.msgClip}
			encodes := 0
			for step := 0; step < 400; step++ {
				op := stagingOp(r)
				switch op {
				case "encode":
					ratio := ratios[r.Intn(len(ratios))]
					if encodes == 0 {
						ratio = 1
					}
					family := r.Intn(4)
					g := stagingGrad(r, dim, family)
					got, want := d.Encode(g, ratio), ref.Encode(g, ratio)
					if err := sameMessage(got, want); err != nil {
						t.Fatalf("step %d (ratio %v, family %d): message %v", step, ratio, family, err)
					}
					encodes++
				case "commit":
					d.Commit()
					ref.Commit()
				case "rollback":
					d.Rollback()
					ref.Rollback()
				}
				if err := sameBits(dgcCommittedU(d), ref.u); err != nil {
					t.Fatalf("step %d after %s: u%v", step, op, err)
				}
				if err := sameBits(d.v, ref.v); err != nil {
					t.Fatalf("step %d after %s: v%v", step, op, err)
				}
				if a, b := d.AccumulatedNorm(), tensor.Norm2(ref.v); math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("step %d after %s: AccumulatedNorm %v, want %v", step, op, a, b)
				}
			}
		})
	}
	for seed := uint64(0); seed < 4; seed++ {
		t.Run(fmt.Sprintf("dadaquant/%d", seed), func(t *testing.T) {
			r := stats.NewRNG(200 + seed)
			dim := 256 + 61*int(seed)
			d := NewDAdaQuant(1, 1<<20, 8, stats.NewRNG(seed))
			ref := &stagedDAdaQuant{rng: stats.NewRNG(seed)}
			encodes := 0
			for step := 0; step < 400; step++ {
				op := stagingOp(r)
				switch op {
				case "encode":
					ratio := ratios[r.Intn(len(ratios))]
					if encodes == 0 {
						ratio = 1
					}
					lv := 1 + r.Intn(40)
					// Finite families only: a NaN in the residual makes
					// the quantizer's norm NaN for every later round.
					family := []int{0, 2, 3}[r.Intn(3)]
					g := stagingGrad(r, dim, family)
					d.SetLevels(lv)
					got, want := d.Encode(g, ratio), ref.Encode(g, ratio, lv)
					if err := sameMessage(got, want); err != nil {
						t.Fatalf("step %d (ratio %v, levels %d): message %v", step, ratio, lv, err)
					}
					encodes++
				case "commit":
					d.Commit()
					ref.Commit()
				case "rollback":
					d.Rollback()
					ref.Rollback()
				}
				if err := sameBits(dadaResidual(d, dim), ref.v); err != nil {
					t.Fatalf("step %d after %s: v%v", step, op, err)
				}
			}
			// Both quantizers drew the same random numbers.
			if a, b := d.rng.Uint64(), ref.rng.Uint64(); a != b {
				t.Fatalf("RNG streams diverged: %x vs %x", a, b)
			}
		})
	}
}

// TestStagingHoldsNoResidualCopy: neither codec keeps a dimension-sized
// copy for its stage. After a dense encode and a sparse one, DGC's stage
// is the sparse message itself, and DAdaQuant's holds at most the k
// values its quantizer overwrote.
func TestStagingHoldsNoResidualCopy(t *testing.T) {
	const dim = 4096
	r := stats.NewRNG(5)
	d := NewDGC(0.9, 0)
	d.Encode(stagingGrad(r, dim, 0), 1)
	msg := d.Encode(stagingGrad(r, dim, 0), 50)
	if d.staged != msg {
		t.Fatal("DGC's stage is not the message it returned")
	}
	q := NewDAdaQuant(1, 64, 8, stats.NewRNG(6))
	q.Encode(stagingGrad(r, dim, 0), 1)
	if q.v != nil || len(q.stageV) != dim {
		t.Fatal("DAdaQuant's dense flush did not hand its residual buffer to the stage")
	}
	qm := q.Encode(stagingGrad(r, dim, 0), 50)
	if q.stageV != nil || cap(q.stageVals) > 2*qm.NNZ() || len(q.stageVals) != qm.NNZ() {
		t.Fatalf("DAdaQuant stage: %d values (cap %d) for a %d-value message", len(q.stageVals), cap(q.stageVals), qm.NNZ())
	}
}
