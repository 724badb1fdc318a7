package compress

import (
	"errors"
	"math"
	"sort"
	"testing"
	"testing/quick"

	"adafl/internal/stats"
	"adafl/internal/tensor"
)

func TestSparseDenseRoundTrip(t *testing.T) {
	v := []float64{1, 0, -2, 3}
	s := NewSparseDense(v)
	d := s.Dense()
	for i := range v {
		if d[i] != v[i] {
			t.Fatalf("round trip failed at %d", i)
		}
	}
	if s.NNZ() != 4 || s.Dim != 4 {
		t.Fatal("dense sparse has wrong counts")
	}
}

func TestSparseAddTo(t *testing.T) {
	s := &Sparse{Dim: 4, Indices: []int32{1, 3}, Values: []float64{2, -1}}
	dst := []float64{10, 10, 10, 10}
	s.AddTo(dst, 0.5)
	want := []float64{10, 11, 10, 9.5}
	for i, w := range want {
		if dst[i] != w {
			t.Fatalf("AddTo[%d] = %v, want %v", i, dst[i], w)
		}
	}
}

func TestWireBytesDenseVsSparse(t *testing.T) {
	dense := NewSparseDense(make([]float64, 100))
	if dense.WireBytes() != 8+400 {
		t.Fatalf("dense wire bytes %d", dense.WireBytes())
	}
	sparse := &Sparse{Dim: 100, Indices: make([]int32, 10), Values: make([]float64, 10)}
	if sparse.WireBytes() != 8+10*8 {
		t.Fatalf("sparse wire bytes %d", sparse.WireBytes())
	}
}

func TestCompressionRatioMatchesKForRatio(t *testing.T) {
	dim := 431080 // paper CNN dimension
	for _, ratio := range []float64{4, 50, 210} {
		k := KForRatio(dim, ratio)
		s := &Sparse{Dim: dim, Indices: make([]int32, k), Values: make([]float64, k)}
		got := s.CompressionRatio()
		if got < ratio*0.9 || got > ratio*1.2 {
			t.Errorf("ratio %v: achieved %v with k=%d", ratio, got, k)
		}
	}
}

func TestKForRatioBounds(t *testing.T) {
	if KForRatio(100, 1) != 100 {
		t.Error("ratio 1 should keep everything")
	}
	if KForRatio(100, 0.5) != 100 {
		t.Error("ratio < 1 should keep everything")
	}
	if KForRatio(10, 1e9) != 1 {
		t.Error("huge ratio should clamp k to 1")
	}
}

func TestPaperGradientSizes(t *testing.T) {
	// Table I: 1.64 MB dense; 8 KB at 210x; 420 KB at 4x.
	dim := 431080
	if mb := float64(DenseBytes(dim)) / 1e6; mb < 1.6 || mb > 1.8 {
		t.Fatalf("dense gradient %.2f MB", mb)
	}
	k210 := KForRatio(dim, 210)
	s := &Sparse{Dim: dim, Indices: make([]int32, k210), Values: make([]float64, k210)}
	if kb := float64(s.WireBytes()) / 1e3; kb < 6 || kb > 10 {
		t.Fatalf("210x gradient %.1f KB, want ~8", kb)
	}
	k4 := KForRatio(dim, 4)
	s4 := &Sparse{Dim: dim, Indices: make([]int32, k4), Values: make([]float64, k4)}
	if kb := float64(s4.WireBytes()) / 1e3; kb < 380 || kb > 460 {
		t.Fatalf("4x gradient %.1f KB, want ~430", kb)
	}
}

func TestSelectTopKExact(t *testing.T) {
	v := []float64{0.1, -5, 3, 0, -2, 4}
	s := SelectTopK(v, 3)
	if s.NNZ() != 3 {
		t.Fatalf("NNZ = %d", s.NNZ())
	}
	got := map[int32]float64{}
	for i, idx := range s.Indices {
		got[idx] = s.Values[i]
	}
	if got[1] != -5 || got[5] != 4 || got[2] != 3 {
		t.Fatalf("wrong top-3: %v", got)
	}
}

func TestSelectTopKAllWhenKLarge(t *testing.T) {
	v := []float64{1, 2}
	s := SelectTopK(v, 10)
	if s.NNZ() != 2 {
		t.Fatalf("NNZ = %d, want 2", s.NNZ())
	}
}

func TestSelectTopKTies(t *testing.T) {
	v := []float64{1, 1, 1, 1, 1}
	s := SelectTopK(v, 2)
	if s.NNZ() != 2 {
		t.Fatalf("tie handling produced %d entries", s.NNZ())
	}
}

func TestSelectTopKSortedIndices(t *testing.T) {
	r := stats.NewRNG(1)
	v := make([]float64, 500)
	for i := range v {
		v[i] = r.Norm()
	}
	s := SelectTopK(v, 50)
	if !sort.SliceIsSorted(s.Indices, func(i, j int) bool { return s.Indices[i] < s.Indices[j] }) {
		t.Fatal("indices not sorted")
	}
}

func TestSelectTopKProperty(t *testing.T) {
	// Property: the smallest selected magnitude is >= the largest
	// unselected magnitude.
	f := func(seed uint64, kRaw uint8) bool {
		r := stats.NewRNG(seed)
		v := make([]float64, 64)
		for i := range v {
			v[i] = r.Norm()
		}
		k := int(kRaw%63) + 1
		s := SelectTopK(v, k)
		if s.NNZ() != k {
			return false
		}
		selected := make(map[int32]bool)
		minSel := math.Inf(1)
		for i, idx := range s.Indices {
			selected[idx] = true
			if a := math.Abs(s.Values[i]); a < minSel {
				minSel = a
			}
		}
		for i, x := range v {
			if !selected[int32(i)] && math.Abs(x) > minSel+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// selectTopKReference is the selection SelectTopKScratch replaced: the
// strictly-above-threshold entries, then at-threshold entries up to k,
// then a sort by index.
func selectTopKReference(v []float64, k int) *Sparse {
	thr := topKThreshold(v, k, make([]float64, len(v)))
	type coord struct {
		idx int32
		val float64
	}
	var out []coord
	for i, x := range v {
		if finite(x) && math.Abs(x) > thr {
			out = append(out, coord{int32(i), x})
		}
	}
	for i, x := range v {
		if len(out) >= k {
			break
		}
		if math.Abs(x) == thr {
			out = append(out, coord{int32(i), x})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].idx < out[j].idx })
	s := &Sparse{Dim: len(v), Indices: []int32{}, Values: []float64{}}
	for _, c := range out {
		s.Indices = append(s.Indices, c.idx)
		s.Values = append(s.Values, c.val)
	}
	return s
}

// TestSelectTopKMatchesSortedReference: the single coordinate-order pass
// selects the same set, in the same order, with the same bits as two
// passes and a sort did — across heavy ties at the threshold, zeros,
// non-finite entries and every k.
func TestSelectTopKMatchesSortedReference(t *testing.T) {
	r := stats.NewRNG(77)
	for trial := 0; trial < 300; trial++ {
		n := 2 + r.Intn(60)
		v := make([]float64, n)
		for i := range v {
			switch r.Intn(8) {
			case 0:
				v[i] = 0
			case 1:
				v[i] = math.Copysign(1, r.Norm()) // ties at a common magnitude
			case 2:
				v[i] = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[r.Intn(3)]
			default:
				v[i] = float64(r.Intn(5)) * math.Copysign(0.5, r.Norm())
			}
		}
		for k := 1; k < n; k++ {
			got, want := SelectTopK(v, k), selectTopKReference(v, k)
			if !sameSparse(got, want) {
				t.Fatalf("v=%v k=%d: got %v %v, want %v %v", v, k, got.Indices, got.Values, want.Indices, want.Values)
			}
			for i := 1; i < len(got.Indices); i++ {
				if got.Indices[i] <= got.Indices[i-1] {
					t.Fatalf("v=%v k=%d: indices %v not strictly ascending", v, k, got.Indices)
				}
			}
		}
	}
}

// TestPlainCodecsEmitFloat32 pins where the precision decision lives:
// Identity, TopK and DGC transmit values that are exactly float32s (so
// the wire ships 4 B each), never ±Inf for a finite input, and the
// quantizing codecs' grid values are left alone.
func TestPlainCodecsEmitFloat32(t *testing.T) {
	r := stats.NewRNG(5)
	g := make([]float64, 400)
	for i := range g {
		g[i] = r.Norm()
	}
	g[7], g[8] = 1e300, -1e300 // past MaxFloat32: saturate, do not overflow
	for name, c := range map[string]Codec{
		"identity": Identity{},
		"topk":     &TopK{},
		"dgc":      &DGC{Momentum: 0.9, MsgClipFactor: 2},
	} {
		for _, ratio := range []float64{1, 10} {
			msg := c.Encode(g, ratio)
			for i, v := range msg.Values {
				if !isFloat32(v) || math.IsInf(v, 0) {
					t.Fatalf("%s ratio %v: value %d = %v is not a finite float32", name, ratio, i, v)
				}
			}
			if msg.AppendBinary(nil)[8]&sparseFlagF32 == 0 {
				t.Errorf("%s ratio %v: frame did not take the f32 layout", name, ratio)
			}
		}
	}
	if got := (Identity{}).Encode(g, 1); got.Values[7] != math.MaxFloat32 || got.Values[8] != -math.MaxFloat32 {
		t.Errorf("1e300 rounded to %v, %v; want ±MaxFloat32", got.Values[7], got.Values[8])
	}
	q := NewQSGD(15, stats.NewRNG(6)).Encode(g[:7], 1)
	for i, v := range q.Values {
		l, sign := quantLevel(v, q.QuantNorm, q.QuantLevels)
		if math.Float64bits(quantValue(l, sign, q.QuantNorm, q.QuantLevels)) != math.Float64bits(v) {
			t.Fatalf("qsgd value %d = %v left its quantization grid", i, v)
		}
	}
}

// TestDGCRoundingStaysInResidual: with the codec rounding what it sends to
// float32, every coordinate still satisfies sent + residual == accumulated
// exactly, and Rollback restores u and v bit for bit.
func TestDGCRoundingStaysInResidual(t *testing.T) {
	r := stats.NewRNG(41)
	dim := 500
	d := NewDGC(0.9, 5)
	for round := 0; round < 6; round++ {
		g := make([]float64, dim)
		for i := range g {
			g[i] = r.Norm()
		}
		// Replay the accumulation Encode is about to do, to know u and v
		// as they stand before the transmitted coordinates are cleared.
		clipped := append([]float64(nil), g...)
		if n := tensor.Norm2(clipped); n > d.ClipNorm {
			tensor.ScaleVec(clipped, d.ClipNorm/n)
		}
		wantU, wantV := make([]float64, dim), make([]float64, dim)
		for i := range clipped {
			var u, v float64
			if d.u != nil {
				u, v = d.u[i], d.v[i]
			}
			wantU[i] = d.Momentum*u + clipped[i]
			wantV[i] = v + wantU[i]
		}

		msg := d.Encode(g, 8)
		rounded := 0
		for i, idx := range msg.Indices {
			if got := msg.Values[i] + d.v[idx]; math.Float64bits(got) != math.Float64bits(wantV[idx]) {
				t.Fatalf("round %d coord %d: sent %v + residual %v = %v, accumulated %v",
					round, idx, msg.Values[i], d.v[idx], got, wantV[idx])
			}
			if d.v[idx] != 0 {
				rounded++
			}
		}
		if rounded == 0 {
			t.Fatal("no transmitted coordinate kept a rounding residual; test is vacuous")
		}
		if round%2 == 0 {
			d.Commit()
			continue
		}
		d.Rollback()
		for i := range wantV {
			if math.Float64bits(d.v[i]) != math.Float64bits(wantV[i]) || math.Float64bits(d.u[i]) != math.Float64bits(wantU[i]) {
				t.Fatalf("round %d coord %d after rollback: u %v v %v, want u %v v %v",
					round, i, d.u[i], d.v[i], wantU[i], wantV[i])
			}
		}
	}
}

func TestIdentityCodec(t *testing.T) {
	var c Identity
	v := []float64{1, 2, 3}
	s := c.Encode(v, 100)
	if s.NNZ() != 3 {
		t.Fatal("identity compressed")
	}
	if s.CompressionRatio() != 1 {
		t.Fatalf("identity ratio %v", s.CompressionRatio())
	}
}

func TestTopKCodecRespectsRatio(t *testing.T) {
	var c TopK
	r := stats.NewRNG(2)
	v := make([]float64, 10000)
	for i := range v {
		v[i] = r.Norm()
	}
	s := c.Encode(v, 20)
	if got := s.CompressionRatio(); got < 18 || got > 25 {
		t.Fatalf("achieved ratio %v for requested 20", got)
	}
}

func TestDGCErrorFeedbackLosesNothing(t *testing.T) {
	// Invariant: transmitted mass + residual accumulator = total injected
	// gradient mass (with momentum 0 and no clipping).
	d := NewDGC(0, 0)
	r := stats.NewRNG(3)
	dim := 200
	total := make([]float64, dim)
	received := make([]float64, dim)
	for round := 0; round < 20; round++ {
		g := make([]float64, dim)
		for i := range g {
			g[i] = r.Norm()
		}
		tensor.Axpy(1, g, total)
		msg := d.Encode(g, 10)
		msg.AddTo(received, 1)
	}
	// received + residual v must equal total.
	for i := range total {
		got := received[i] + d.v[i]
		if math.Abs(got-total[i]) > 1e-9 {
			t.Fatalf("mass lost at %d: %v vs %v", i, got, total[i])
		}
	}
}

func TestDGCResidualEventuallyTransmitted(t *testing.T) {
	// A coordinate with small persistent gradient must eventually be
	// selected thanks to accumulation.
	d := NewDGC(0, 0)
	dim := 100
	sentSmall := false
	sign := 1.0
	for round := 0; round < 400 && !sentSmall; round++ {
		g := make([]float64, dim)
		g[0] = 0.01 // persistently small but consistent coordinate
		for i := 1; i < dim; i++ {
			g[i] = sign // oscillating large coordinates cancel over time
		}
		sign = -sign
		msg := d.Encode(g, 100) // keeps ~1-2 coords per round
		for _, idx := range msg.Indices {
			if idx == 0 {
				sentSmall = true
			}
		}
	}
	if !sentSmall {
		t.Fatal("accumulated small coordinate never transmitted")
	}
}

func TestDGCMomentumCorrection(t *testing.T) {
	// With momentum m, a constant unit gradient accumulates faster than
	// without: after 2 rounds u = 1+m, v = 1 + (2+m) ... just verify the
	// accumulator grows strictly faster with momentum.
	dim := 10
	plain := NewDGC(0, 0)
	mom := NewDGC(0.9, 0)
	g := make([]float64, dim)
	g[3] = 1e-6 // tiny coordinate that is never selected
	for i := range g {
		if i != 3 {
			g[i] = 1
		}
	}
	for round := 0; round < 5; round++ {
		plain.Encode(g, 50)
		mom.Encode(g, 50)
	}
	if math.Abs(mom.v[3]) <= math.Abs(plain.v[3]) {
		t.Fatalf("momentum correction not accelerating accumulation: %v vs %v",
			mom.v[3], plain.v[3])
	}
}

// TestDGCFlushesSubnormalMomentum: with no fresh gradient, u decays by m
// per encode; once it would go subnormal it is set to 0 rather than left
// where every later multiply takes a microcode assist. The smallest normal
// momentum is kept, and v — which had absorbed it long before — is not
// touched by the flush.
func TestDGCFlushesSubnormalMomentum(t *testing.T) {
	d := NewDGC(0.5, 0)
	d.Encode([]float64{1, 0, 0, 0}, 4) // k = 1: coordinate 0 is sent and cleared
	d.Commit()
	const tiny = 0x1p-1022
	d.u[1], d.u[2] = tiny, 2*tiny
	d.v[1], d.v[2], d.v[3] = 0.25, 0.5, 1 // coordinate 3 is the one sent
	d.Encode(make([]float64, 4), 4)
	if d.u[1] != 0 {
		t.Errorf("u[1] = %g after decaying below the normal range, want 0", d.u[1])
	}
	if d.u[2] != tiny {
		t.Errorf("u[2] = %g, want the smallest normal %g kept", d.u[2], tiny)
	}
	if d.v[1] != 0.25 || d.v[2] != 0.5 {
		t.Errorf("v = %v: the flush moved the accumulator", d.v)
	}
}

func TestDGCClipping(t *testing.T) {
	d := NewDGC(0, 1)      // clip to unit norm
	g := []float64{30, 40} // norm 50 -> clipped to 1
	msg := d.Encode(g, 1)
	// 0.6 and 0.8 each round to their float32 neighbour on the way out,
	// so the norm is 1 to within one float32 ulp (it reads 1 + 2.4e-8).
	norm := tensor.Norm2(msg.Dense())
	if math.Abs(norm-1) > 1.0/(1<<23) {
		t.Fatalf("clipped transmission norm %v, want 1", norm)
	}
}

func TestDGCReset(t *testing.T) {
	d := NewDGC(0.5, 0)
	d.Encode([]float64{1, 2, 3}, 3)
	d.Reset()
	if d.AccumulatedNorm() != 0 {
		t.Fatal("reset did not clear accumulator")
	}
}

func TestDGCDimensionChangePanics(t *testing.T) {
	d := NewDGC(0, 0)
	d.Encode([]float64{1, 2}, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("dimension change did not panic")
		}
	}()
	d.Encode([]float64{1, 2, 3}, 1)
}

func TestQSGDUnbiasedExpectation(t *testing.T) {
	q := NewQSGD(4, stats.NewRNG(5))
	g := []float64{0.3, -0.7, 0.1, 0.9}
	dim := len(g)
	sum := make([]float64, dim)
	n := 20000
	for i := 0; i < n; i++ {
		msg := q.Encode(g, 0)
		tensor.Axpy(1, msg.Dense(), sum)
	}
	for i := range g {
		mean := sum[i] / float64(n)
		if math.Abs(mean-g[i]) > 0.02 {
			t.Fatalf("QSGD biased at %d: mean %v, want %v", i, mean, g[i])
		}
	}
}

func TestQSGDWireBytesSmaller(t *testing.T) {
	q := NewQSGD(4, stats.NewRNG(6))
	g := make([]float64, 1000)
	for i := range g {
		g[i] = float64(i%7) - 3
	}
	msg := q.Encode(g, 0)
	if msg.WireBytes() >= DenseBytes(1000) {
		t.Fatalf("QSGD wire %d not smaller than dense %d", msg.WireBytes(), DenseBytes(1000))
	}
	// 4 levels -> 1 sign + 3 magnitude bits = 4 bits/coord = 500 bytes.
	want := 8 + 4 + 500
	if msg.WireBytes() != want {
		t.Fatalf("QSGD wire %d, want %d", msg.WireBytes(), want)
	}
}

func TestQSGDZeroGradient(t *testing.T) {
	q := NewQSGD(4, stats.NewRNG(7))
	msg := q.Encode(make([]float64, 10), 0)
	for _, v := range msg.Values {
		if v != 0 {
			t.Fatal("zero gradient quantized to nonzero")
		}
	}
}

func TestTopKThresholdMatchesSort(t *testing.T) {
	f := func(seed uint64, kRaw uint8) bool {
		r := stats.NewRNG(seed)
		v := make([]float64, 100)
		for i := range v {
			v[i] = r.Norm()
		}
		k := int(kRaw%99) + 1
		got := topKThreshold(v, k, make([]float64, len(v)))
		abs := make([]float64, len(v))
		for i, x := range v {
			abs[i] = math.Abs(x)
		}
		sort.Float64s(abs)
		want := abs[len(abs)-k]
		return got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDGCMsgClipConservesMass(t *testing.T) {
	// With message clipping the invariant still holds: transmitted mass +
	// residual accumulator = total injected mass.
	d := &DGC{MsgClipFactor: 1.5}
	r := stats.NewRNG(77)
	dim := 150
	total := make([]float64, dim)
	received := make([]float64, dim)
	for round := 0; round < 25; round++ {
		g := make([]float64, dim)
		for i := range g {
			g[i] = r.Norm()
		}
		tensor.Axpy(1, g, total)
		msg := d.Encode(g, 20)
		msg.AddTo(received, 1)
	}
	for i := range total {
		got := received[i] + d.v[i]
		if math.Abs(got-total[i]) > 1e-9 {
			t.Fatalf("mass lost at %d: %v vs %v", i, got, total[i])
		}
	}
}

func TestDGCMsgClipBoundsMessageNorm(t *testing.T) {
	d := &DGC{MsgClipFactor: 1}
	dim := 50
	// Build a huge residual by feeding large gradients at max compression.
	big := make([]float64, dim)
	for i := range big {
		big[i] = 10
	}
	for round := 0; round < 10; round++ {
		d.Encode(big, 1e9) // keeps only 1 coordinate per round
	}
	// Now a small gradient: the dumped message must be bounded by the
	// current gradient's norm, not the residual's.
	small := make([]float64, dim)
	small[0] = 0.1
	msg := d.Encode(small, 2)
	if n := tensor.Norm2(msg.Values); n > 0.1+1e-9 {
		t.Fatalf("message norm %v exceeds clip bound 0.1", n)
	}
}

func TestSparseValidate(t *testing.T) {
	const dim = 8
	good := &Sparse{Dim: dim, Indices: []int32{0, 3, 7}, Values: []float64{1, -2, 0.5}}
	if err := good.Validate(dim); err != nil {
		t.Fatalf("valid message rejected: %v", err)
	}
	cases := []struct {
		name string
		msg  *Sparse
	}{
		{"nil", nil},
		{"dim mismatch", &Sparse{Dim: dim + 1, Indices: []int32{0}, Values: []float64{1}}},
		{"length mismatch", &Sparse{Dim: dim, Indices: []int32{0, 1}, Values: []float64{1}}},
		{"too many coords", &Sparse{Dim: 2, Indices: []int32{0, 1, 1}, Values: []float64{1, 2, 3}}},
		{"index too large", &Sparse{Dim: dim, Indices: []int32{0, int32(dim)}, Values: []float64{1, 2}}},
		{"negative index", &Sparse{Dim: dim, Indices: []int32{-1}, Values: []float64{1}}},
	}
	for _, c := range cases {
		err := c.msg.Validate(dim)
		if err == nil {
			t.Errorf("%s: malformed message accepted", c.name)
			continue
		}
		if !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: error %v does not wrap ErrMalformed", c.name, err)
		}
	}
	// A malformed "too many coords" case must be caught for the dense dim
	// too: Validate is what stands between the wire and AddTo's panic.
	if err := cases[4].msg.Validate(dim); err == nil {
		t.Fatal("out-of-range index accepted")
	}
}

func TestSparseScrub(t *testing.T) {
	s := &Sparse{
		Dim:     6,
		Indices: []int32{0, 1, 2, 3, 4},
		Values:  []float64{1, math.NaN(), math.Inf(1), math.Inf(-1), -2},
	}
	if n := s.Scrub(); n != 3 {
		t.Fatalf("scrubbed %d values, want 3", n)
	}
	want := []float64{1, 0, 0, 0, -2}
	for i, v := range s.Values {
		if v != want[i] {
			t.Fatalf("value %d = %v after scrub, want %v", i, v, want[i])
		}
	}
	if n := s.Scrub(); n != 0 {
		t.Fatalf("second scrub found %d values, want 0", n)
	}
}

func TestSparseNorm2(t *testing.T) {
	s := &Sparse{Dim: 4, Indices: []int32{0, 2}, Values: []float64{3, 4}}
	if got := s.Norm2(); math.Abs(got-5) > 1e-12 {
		t.Fatalf("Norm2 = %v, want 5", got)
	}
}
