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

	u, v []float64

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
	msg := SelectTopK(d.v, KForRatio(len(grad), ratio))
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
	msg := SelectTopK(d.v, k)
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
// of the stage applied — at its indices, or everywhere when the staged
// message was dense and the stage keeps no index run.
func dgcCommittedU(d *DGC) []float64 {
	u := append([]float64(nil), d.u...)
	if d.staged && d.stageIdx == nil {
		clear(u)
	}
	for _, idx := range d.stageIdx {
		u[idx] = 0
	}
	return u
}

// checkDGCStage checks the stage Encode left for msg: the sent values as
// float32, exactly, and the indices in a run of the stage's own — none
// when msg has every coordinate — so nothing refers to the returned
// message.
func checkDGCStage(d *DGC, msg *Sparse) error {
	if !d.staged || len(d.stageVals) != msg.NNZ() {
		return fmt.Errorf("staged %v with %d values for a %d-value message", d.staged, len(d.stageVals), msg.NNZ())
	}
	for i, x := range d.stageVals {
		if math.Float64bits(float64(x)) != math.Float64bits(msg.Values[i]) {
			return fmt.Errorf("staged value %d is %v, sent %v", i, x, msg.Values[i])
		}
	}
	switch {
	case msg.NNZ() == msg.Dim && d.stageIdx != nil:
		return fmt.Errorf("a dense message staged a %d-index run", len(d.stageIdx))
	case msg.NNZ() < msg.Dim && (len(d.stageIdx) != msg.NNZ() || &d.stageIdx[0] == &msg.Indices[0]):
		return fmt.Errorf("stage has %d indices for %d sent, or shares the message's", len(d.stageIdx), msg.NNZ())
	}
	for i, idx := range d.stageIdx {
		if idx != msg.Indices[i] {
			return fmt.Errorf("staged index %d is %d, sent %d", i, idx, msg.Indices[i])
		}
	}
	return nil
}

// scribble overwrites a sent message, as a caller that reuses its buffers
// once the upload is written may: the stage must not depend on it.
func scribble(msg *Sparse) {
	for i := range msg.Indices {
		msg.Indices[i], msg.Values[i] = 0, math.NaN()
	}
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
// accumulated norm must carry the same bits. DGC's gradient is sometimes a
// float32 pair read through EncodeDelta, and every message it returns is
// checked against its stage (checkDGCStage) and then overwritten, so
// Commit and Rollback run on the stage alone.
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
					family := r.Intn(5)
					var got *Sparse
					var g []float64
					if family == 4 {
						p, start := make([]float32, dim), make([]float32, dim)
						for i := range p {
							start[i] = float32(r.Norm())
							p[i] = start[i] + float32(0.1*r.Norm())
						}
						src := tensor.DeltaOf32(p, start)
						g = src.Fill(nil)
						got = EncodeDelta(d, src, ratio)
					} else {
						g = stagingGrad(r, dim, family)
						got = d.Encode(g, ratio)
					}
					want := ref.Encode(g, ratio)
					if err := sameMessage(got, want); err != nil {
						t.Fatalf("step %d (ratio %v, family %d): message %v", step, ratio, family, err)
					}
					if err := checkDGCStage(d, got); err != nil {
						t.Fatalf("step %d (ratio %v, family %d): %v", step, ratio, family, err)
					}
					scribble(got)
					encodes++
				case "commit":
					d.Commit()
					ref.Commit()
				case "rollback":
					d.Rollback()
					ref.Rollback()
				}
				// DGC keeps u only when its momentum is not 0; at 0
				// nothing reads u, which the messages and v show.
				if d.v != nil && (d.u != nil) != (cfg.momentum != 0) {
					t.Fatalf("step %d after %s: DGC at momentum %v keeps u: %v", step, op, cfg.momentum, d.u != nil)
				}
				if d.u != nil {
					if err := sameBits(dgcCommittedU(d), ref.u); err != nil {
						t.Fatalf("step %d after %s: u%v", step, op, err)
					}
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
// float64 copy for its stage. DGC's stage holds the sent values as float32
// — after a dense encode 4 B per coordinate and no index run, after a
// sparse one the k values and their indices — and no reference to the
// message it returned (at momentum 0 it keeps no u either); DAdaQuant's
// holds at most the k values its quantizer overwrote.
func TestStagingHoldsNoResidualCopy(t *testing.T) {
	const dim = 4096
	r := stats.NewRNG(5)
	d := NewDGC(0.9, 0)
	dense := d.Encode(stagingGrad(r, dim, 0), 1)
	if err := checkDGCStage(d, dense); err != nil || d.stageIdx != nil || len(d.stageVals) != dim {
		t.Fatalf("DGC's dense stage: %d values, %d indices (%v)", len(d.stageVals), len(d.stageIdx), err)
	}
	msg := d.Encode(stagingGrad(r, dim, 0), 50)
	if err := checkDGCStage(d, msg); err != nil || cap(d.stageVals) != msg.NNZ() || cap(d.stageIdx) != msg.NNZ() {
		t.Fatalf("DGC's sparse stage: cap %d values, cap %d indices for a %d-value message (%v)",
			cap(d.stageVals), cap(d.stageIdx), msg.NNZ(), err)
	}
	if z := NewDGC(0, 0); z.Encode(stagingGrad(r, dim, 0), 50) != nil && z.u != nil {
		t.Fatal("DGC at momentum 0 keeps u")
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
