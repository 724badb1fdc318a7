package nn

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"adafl/internal/stats"
	"adafl/internal/tensor"
)

func TestPaperCNNParamCount(t *testing.T) {
	m := NewPaperCNN(stats.NewRNG(1))
	// conv1 20·1·25+20 + conv2 50·20·25+50 + fc1 800·500+500 + fc2 500·10+10
	const want = 520 + 25050 + 400500 + 5010
	if got := m.NumParams(); got != want {
		t.Fatalf("PaperCNN params = %d, want %d", got, want)
	}
	// Paper reports a 1.64 MB gradient at float32.
	mb := float64(m.NumParams()) * 4 / 1e6
	if mb < 1.6 || mb > 1.8 {
		t.Errorf("PaperCNN float32 gradient = %.2f MB, want ~1.7", mb)
	}
}

func TestPaperCNNForwardShape(t *testing.T) {
	m := NewPaperCNN(stats.NewRNG(2))
	x := tensor.New(2, 1, 28, 28)
	logits := m.Forward(x, false)
	if logits.Dim(0) != 2 || logits.Dim(1) != 10 {
		t.Fatalf("logits shape %v, want (2, 10)", logits.Shape())
	}
}

func TestParamVectorRoundTrip(t *testing.T) {
	r := stats.NewRNG(3)
	m := NewImageMLP([]int{5}, []int{7}, 3, r)
	v := m.ParamVector()
	if len(v) != m.NumParams() {
		t.Fatalf("vector length %d != NumParams %d", len(v), m.NumParams())
	}
	v2 := tensor.CopyVec(v)
	for i := range v2 {
		v2[i] = float64(i)
	}
	m.SetParamVector(v2)
	got := m.ParamVector()
	for i := range got {
		if got[i] != float64(i) {
			t.Fatalf("round-trip mismatch at %d", i)
		}
	}
}

// TestSetParamVectorPanicsOnLength: a vector shorter or longer than the
// model panics with the documented message, and before it writes a
// single parameter.
func TestSetParamVectorPanicsOnLength(t *testing.T) {
	m := NewModel([]int{3}, 2, NewDense(3, 2, stats.NewRNG(1)))
	before := m.ParamVector()
	for _, n := range []int{5, 9} { // the model has 8
		func() {
			defer func() {
				msg, _ := recover().(string)
				if want := fmt.Sprintf("nn: parameter vector length %d, model has 8", n); msg != want {
					t.Errorf("length %d: panic %q, want %q", n, msg, want)
				}
			}()
			v := make([]float64, n)
			for i := range v {
				v[i] = 7
			}
			m.SetParamVector(v)
		}()
		assertBitEqual(t, m.ParamVector(), before, fmt.Sprintf("parameters after a length-%d vector", n))
	}
}

func TestZeroGrads(t *testing.T) {
	r := stats.NewRNG(5)
	m := NewImageMLP([]int{4}, nil, 3, r)
	x := tensor.New(2, 4)
	x.RandNorm(r, 1)
	m.TrainBatch(x, []int{0, 1})
	if tensor.Norm2(m.GradVector()) == 0 {
		t.Fatal("gradients should be nonzero after TrainBatch")
	}
	m.ZeroGrads()
	if tensor.Norm2(m.GradVector()) != 0 {
		t.Fatal("ZeroGrads left residue")
	}
}

func TestSoftmaxCrossEntropyKnown(t *testing.T) {
	// Uniform logits over K classes: loss = ln K.
	logits := tensor.New(1, 4)
	loss, grad := softmaxCrossEntropy(logits, []int{2})
	if math.Abs(loss-math.Log(4)) > 1e-12 {
		t.Fatalf("loss = %v, want ln 4", loss)
	}
	// Gradient: softmax (0.25 each) minus one-hot.
	want := []float64{0.25, 0.25, -0.75, 0.25}
	for i, w := range want {
		if math.Abs(float64(grad.Data[i])-w) > 1e-7 {
			t.Fatalf("grad[%d] = %v, want %v", i, grad.Data[i], w)
		}
	}
}

func TestSoftmaxGradRowsSumToZeroProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		n, k := 3, 5
		logits := tensor.New(n, k)
		logits.RandNorm(r, 3)
		labels := []int{r.Intn(k), r.Intn(k), r.Intn(k)}
		_, grad := softmaxCrossEntropy(logits, labels)
		for i := 0; i < n; i++ {
			sum := 0.0
			for j := 0; j < k; j++ {
				sum += float64(grad.Data[i*k+j])
			}
			if math.Abs(sum) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSoftmaxStabilityLargeLogits(t *testing.T) {
	logits := tensor.FromSlice([]float32{1000, 1001, 999}, 1, 3)
	loss, grad := softmaxCrossEntropy(logits, []int{1})
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		t.Fatalf("unstable loss %v", loss)
	}
	for _, g := range grad.Data {
		if math.IsNaN(float64(g)) {
			t.Fatal("NaN gradient")
		}
	}
}

func TestPredictAndAccuracy(t *testing.T) {
	logits := tensor.FromSlice([]float32{
		1, 3, 2,
		5, 0, 0,
	}, 2, 3)
	pred := Predict(logits)
	if pred[0] != 1 || pred[1] != 0 {
		t.Fatalf("predictions %v", pred)
	}
}

func TestSGDStepKnown(t *testing.T) {
	r := stats.NewRNG(6)
	m := NewModel([]int{2}, 2, NewDense(2, 2, r))
	m.SetParamVector(make([]float64, m.NumParams())) // zeros
	m.ZeroGrads()
	// Inject a known gradient.
	g := m.Layers[0].(*Dense).GradW
	for i := range g.Data {
		g.Data[i] = 1
	}
	NewSGD(0.1, 0, 0).Step(m)
	p := m.ParamVector()
	for i := 0; i < 4; i++ { // W entries
		if math.Abs(p[i]+0.1) > 1e-7 {
			t.Fatalf("param[%d] = %v, want -0.1", i, p[i])
		}
	}
}

func TestSGDMomentumAccumulates(t *testing.T) {
	r := stats.NewRNG(7)
	m := NewModel([]int{1}, 2, NewDense(1, 2, r))
	m.SetParamVector(make([]float64, m.NumParams()))
	opt := NewSGD(1, 0.9, 0)
	step := func() float64 {
		m.ZeroGrads()
		for i := range m.Layers[0].(*Dense).GradW.Data {
			m.Layers[0].(*Dense).GradW.Data[i] = 1
		}
		before := m.ParamVector()[0]
		opt.Step(m)
		return before - m.ParamVector()[0]
	}
	d1 := step()
	d2 := step()
	if !(d2 > d1) {
		t.Fatalf("momentum step did not grow: %v then %v", d1, d2)
	}
	if math.Abs(d1-1) > 1e-6 || math.Abs(d2-1.9) > 1e-6 {
		t.Fatalf("steps %v, %v; want 1, 1.9", d1, d2)
	}
}

func TestSGDWeightDecayShrinks(t *testing.T) {
	r := stats.NewRNG(8)
	m := NewModel([]int{1}, 2, NewDense(1, 2, r))
	v := m.ParamVector()
	for i := range v {
		v[i] = 1
	}
	m.SetParamVector(v)
	m.ZeroGrads()
	NewSGD(0.1, 0, 0.5).Step(m)
	for _, p := range m.ParamVector() {
		if math.Abs(p-0.95) > 1e-7 {
			t.Fatalf("weight decay produced %v, want 0.95", p)
		}
	}
}

func TestAdamDirection(t *testing.T) {
	a := NewAdam(0.01, 0, 0, 0)
	grad := []float64{1, -2, 0}
	d := a.DirectionVec(grad)
	if d[0] >= 0 || d[1] <= 0 {
		t.Fatalf("Adam direction not descent: %v", d)
	}
	if math.Abs(d[2]) > 1e-6 {
		t.Fatalf("zero gradient produced step %v", d[2])
	}
}

func TestAdamStepMagnitudeBounded(t *testing.T) {
	a := NewAdam(0.01, 0, 0, 0)
	for i := 0; i < 5; i++ {
		d := a.DirectionVec([]float64{100, -0.001})
		for _, v := range d {
			if math.Abs(v) > 0.011 {
				t.Fatalf("Adam step %v exceeds lr bound", v)
			}
		}
	}
}

func TestLogisticLearnsSeparableData(t *testing.T) {
	r := stats.NewRNG(9)
	m := NewModel([]int{2}, 2, NewDense(2, 2, r))
	opt := NewSGD(0.5, 0, 0)
	n := 64
	x := tensor.New(n, 2)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		cls := i % 2
		labels[i] = cls
		off := -2.0
		if cls == 1 {
			off = 2
		}
		x.Data[2*i] = float32(off + r.Norm()*0.3)
		x.Data[2*i+1] = float32(r.Norm() * 0.3)
	}
	for epoch := 0; epoch < 50; epoch++ {
		m.ZeroGrads()
		m.TrainBatch(x, labels)
		opt.Step(m)
	}
	acc, _ := m.EvaluateBatched(x, labels, 16)
	if acc < 0.95 {
		t.Fatalf("logistic regression accuracy %v on separable data", acc)
	}
}

func TestTrainingReducesLoss(t *testing.T) {
	r := stats.NewRNG(10)
	m := NewImageMLP([]int{4}, []int{8}, 3, r)
	opt := NewSGD(0.1, 0.9, 0)
	x := tensor.New(30, 4)
	x.RandNorm(r, 1)
	labels := make([]int, 30)
	for i := range labels {
		labels[i] = i % 3
		x.Data[4*i+labels[i]] += 3 // make class recoverable
	}
	m.ZeroGrads()
	first := m.TrainBatch(x, labels)
	opt.Step(m)
	var last float64
	for i := 0; i < 40; i++ {
		m.ZeroGrads()
		last = m.TrainBatch(x, labels)
		opt.Step(m)
	}
	if last >= first {
		t.Fatalf("loss did not decrease: %v -> %v", first, last)
	}
}

func TestEvaluateBatchedMatchesSingleBatch(t *testing.T) {
	r := stats.NewRNG(11)
	m := NewImageMLP([]int{3}, []int{5}, 2, r)
	x := tensor.New(10, 3)
	x.RandNorm(r, 1)
	labels := make([]int, 10)
	for i := range labels {
		labels[i] = i % 2
	}
	a1, l1 := m.EvaluateBatched(x, labels, 10)
	a2, l2 := m.EvaluateBatched(x, labels, 3)
	if a1 != a2 || math.Abs(l1-l2) > 1e-9 {
		t.Fatalf("batched eval mismatch: acc %v vs %v, loss %v vs %v", a1, a2, l1, l2)
	}
}

func TestModelSummaryMentionsLayers(t *testing.T) {
	m := NewPaperCNN(stats.NewRNG(12))
	names := map[string]bool{}
	for _, l := range m.Layers {
		names[l.Name()] = true
	}
	for _, want := range []string{"conv5x5(1->20,pad=0)", "conv5x5(20->50,pad=0)", "maxpool2x2", "dense(800->500)"} {
		if !names[want] {
			t.Errorf("no layer named %q in %v", want, names)
		}
	}
}

func TestZooModelsForwardAndCount(t *testing.T) {
	r := stats.NewRNG(13)
	cases := []struct {
		name  string
		model *Model
	}{
		{"vgglite", NewVGGLite(3, 16, 20, r)},
		{"resnetlite", NewResNetLite(3, 16, 10, r)},
	}
	for _, c := range cases {
		shape := append([]int{2}, c.model.InputShape...)
		x := tensor.New(shape...)
		x.RandNorm(r, 1)
		logits := c.model.Forward(x, false)
		if logits.Dim(0) != 2 || logits.Dim(1) != c.model.Classes {
			t.Errorf("%s: logits shape %v", c.name, logits.Shape())
		}
		if c.model.NumParams() == 0 {
			t.Errorf("%s: zero parameters", c.name)
		}
		if c.model.FLOPsPerSample() <= 0 {
			t.Errorf("%s: zero FLOPs estimate", c.name)
		}
	}
}

func TestFLOPsOrdering(t *testing.T) {
	r := stats.NewRNG(14)
	paper := NewPaperCNN(r)
	x := tensor.New(1, 1, 28, 28)
	paper.Forward(x, false)
	small := NewVGGLite(1, 16, 10, r)
	xs := tensor.New(1, 1, 16, 16)
	small.Forward(xs, false)
	if paper.FLOPsPerSample() <= small.FLOPsPerSample() {
		t.Fatalf("paper CNN should cost more than a 16×16 VGGLite: %v vs %v",
			paper.FLOPsPerSample(), small.FLOPsPerSample())
	}
}

func TestMaxPoolForwardKnown(t *testing.T) {
	x := tensor.FromSlice([]float32{
		1, 2, 5, 6,
		3, 4, 7, 8,
		9, 10, 13, 14,
		11, 12, 15, 16,
	}, 1, 1, 4, 4)
	p := NewMaxPool2D()
	y := p.Forward(x, false)
	want := []float32{4, 8, 12, 16}
	for i, w := range want {
		if y.Data[i] != w {
			t.Fatalf("pool[%d] = %v, want %v", i, y.Data[i], w)
		}
	}
}

func TestMaxPoolBackwardRoutesToArgmax(t *testing.T) {
	x := tensor.FromSlice([]float32{
		1, 2,
		3, 4,
	}, 1, 1, 2, 2)
	p := NewMaxPool2D()
	p.Forward(x, true)
	g := tensor.FromSlice([]float32{10}, 1, 1, 1, 1)
	dx := p.Backward(g)
	want := []float32{0, 0, 0, 10}
	for i, w := range want {
		if dx.Data[i] != w {
			t.Fatalf("dx[%d] = %v, want %v", i, dx.Data[i], w)
		}
	}
}

// TestMaxPoolTies: the branch-free kernel keeps a compare loop's choices —
// the first of equal maxima takes the gradient, and −0 and +0 tie.
func TestMaxPoolTies(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	x := tensor.FromSlice([]float32{
		3, 1, negZero, 0,
		3, 3, -1, -2,
	}, 1, 1, 2, 4)
	p := NewMaxPool2D()
	y := p.Forward(x, true)
	if y.Data[0] != 3 || math.Float32bits(y.Data[1]) != math.Float32bits(negZero) {
		t.Fatalf("pool %v, want [3 -0]", y.Data)
	}
	dx := p.Backward(tensor.FromSlice([]float32{1, 2}, 1, 1, 1, 2))
	if want := []float32{1, 0, 2, 0, 0, 0, 0, 0}; !equal32(dx.Data, want) {
		t.Fatalf("dx %v, want %v", dx.Data, want)
	}
}

func equal32(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestReLUForwardBackward: −0 and +0 give +0, NaN passes, and the backward
// pass, which reads the output, routes the gradient where the input was
// > 0 or NaN — in train and eval mode alike, over eight lanes (one vector)
// and the scalar tail.
func TestReLUForwardBackward(t *testing.T) {
	nan := float32(math.NaN())
	in := []float32{-1, 2, -3, 4, float32(math.Copysign(0, -1)), nan, 0, float32(math.Inf(1)), -5}
	wantY := []float32{0, 2, 0, 4, 0, nan, 0, float32(math.Inf(1)), 0}
	wantDx := []float32{0, 1, 0, 1, 0, 1, 0, 1, 0}
	for _, train := range []bool{true, false} {
		relu := NewReLU()
		y := relu.Forward(tensor.FromSlice(append([]float32(nil), in...), 1, len(in)), train)
		for i, w := range wantY {
			if math.Float32bits(y.Data[i]) != math.Float32bits(w) {
				t.Fatalf("train=%v: relu forward %v, want %v", train, y.Data, wantY)
			}
		}
		if !train {
			continue
		}
		g := tensor.FromSlice([]float32{1, 1, 1, 1, 1, 1, 1, 1, 1}, 1, len(in))
		if dx := relu.Backward(g); !equal32(dx.Data, wantDx) || math.Signbit(float64(dx.Data[4])) {
			t.Fatalf("relu backward %v, want %v", dx.Data, wantDx)
		}
	}
}

func TestConvKnownValues(t *testing.T) {
	r := stats.NewRNG(15)
	c := NewConv2D(1, 1, 2, 0, r)
	// Kernel [[1,0],[0,1]], bias 1.
	copy(c.W.Data, []float32{1, 0, 0, 1})
	c.B.Data[0] = 1
	x := tensor.FromSlice([]float32{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}, 1, 1, 3, 3)
	y := c.Forward(x, false)
	// y[oy][ox] = x[oy][ox] + x[oy+1][ox+1] + 1
	want := []float32{1 + 5 + 1, 2 + 6 + 1, 4 + 8 + 1, 5 + 9 + 1}
	for i, w := range want {
		if y.Data[i] != w {
			t.Fatalf("conv[%d] = %v, want %v", i, y.Data[i], w)
		}
	}
}

// TestIm2colCol2imMatchPerElement: the row-range gather and scatter agree
// with a per-element bounds check, including a padding wide enough that
// some taps read nothing but padding.
func TestIm2colCol2imMatchPerElement(t *testing.T) {
	r := stats.NewRNG(16)
	for _, tc := range []struct{ k, pad, h, w int }{
		{5, 0, 8, 7}, {3, 1, 5, 6}, {2, 1, 3, 3}, {1, 2, 2, 3}, {5, 2, 1, 2}, {7, 3, 1, 1},
	} {
		c := NewConv2D(2, 1, tc.k, tc.pad, r)
		oh, ow := c.outDims(tc.h, tc.w)
		in := make([]float32, 2*tc.h*tc.w)
		for i := range in {
			in[i] = float32(i + 1)
		}
		cols := make([]float32, 2*tc.k*tc.k*oh*ow)
		for i := range cols {
			cols[i] = -1 // every element must be written
		}
		c.im2col(cols, in, tc.h, tc.w, oh, ow)
		src := make([]float32, len(cols))
		for i := range src {
			src[i] = float32(i%7 + 1)
		}
		got := make([]float32, len(in))
		c.col2im(got, src, tc.h, tc.w, oh, ow)
		want := make([]float32, len(in))
		row := 0
		for ic := 0; ic < 2; ic++ {
			for ky := 0; ky < tc.k; ky++ {
				for kx := 0; kx < tc.k; kx++ {
					for oy := 0; oy < oh; oy++ {
						for ox := 0; ox < ow; ox++ {
							iy, ix := oy+ky-tc.pad, ox+kx-tc.pad
							at := (row*oh+oy)*ow + ox
							var v float32
							if iy >= 0 && iy < tc.h && ix >= 0 && ix < tc.w {
								v = in[(ic*tc.h+iy)*tc.w+ix]
								want[(ic*tc.h+iy)*tc.w+ix] += src[at]
							}
							if cols[at] != v {
								t.Fatalf("%+v: im2col[%d] = %v, want %v", tc, at, cols[at], v)
							}
						}
					}
					row++
				}
			}
		}
		if !equal32(got, want) {
			t.Fatalf("%+v: col2im %v, want %v", tc, got, want)
		}
	}
}

func TestDeterministicInitFromSeed(t *testing.T) {
	a := NewPaperCNN(stats.NewRNG(99))
	b := NewPaperCNN(stats.NewRNG(99))
	va, vb := a.ParamVector(), b.ParamVector()
	for i := range va {
		if va[i] != vb[i] {
			t.Fatalf("same-seed models differ at %d", i)
		}
	}
}

// TestParamDeltaFromFloat32Start: a delta is taken from the parameters a
// model really trained from — the float32 rounding of the global — so a
// global off the float32 grid, loaded and not stepped, gives exactly zero
// (the rounding residue is not an update), and after training the float32
// start plus the delta is the trained model bit for bit.
func TestParamDeltaFromFloat32Start(t *testing.T) {
	m := NewImageMLP([]int{1, 6, 6}, []int{8}, 3, stats.NewRNG(51))
	global := m.ParamVector()
	r := stats.NewRNG(52)
	for i := range global {
		global[i] += r.NormScaled(0, 1e-3) // lands between float32 values
	}
	m.SetParamVector(global)
	delta := make([]float64, len(global))
	m.ParamDelta(delta, global)
	if !tensor.IsZero(delta) {
		t.Fatal("a loaded, untrained model has a nonzero delta from its start")
	}
	x, labels := trainBatchInput(m, 4, 53)
	opt := NewSGD(0.1, 0.9, 0)
	for step := 0; step < 3; step++ {
		m.ZeroGrads()
		m.TrainBatch(x, labels)
		opt.Step(m)
	}
	m.ParamDelta(delta, global)
	if tensor.IsZero(delta) {
		t.Fatal("training moved nothing")
	}
	got := make([]float64, len(global))
	for i := range got {
		got[i] = float64(float32(global[i])) + delta[i]
	}
	assertBitEqual(t, got, m.ParamVector(), "float32 start + delta")
}
