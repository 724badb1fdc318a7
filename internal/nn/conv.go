package nn

import (
	"fmt"
	"math"

	"adafl/internal/stats"
	"adafl/internal/tensor"
)

// Conv2D is a 2-D convolution (technically cross-correlation, as in every
// deep-learning framework) with stride 1 and optional zero padding, over
// batched input of shape (N, InC, H, W).
//
// The implementation lowers each sample to an im2col patch matrix and
// expresses the convolution as a matrix product — on the 431k-parameter
// paper CNN this is markedly faster than direct tap loops because the
// inner products stream contiguous memory.
type Conv2D struct {
	InC, OutC int
	K         int // square kernel size
	Pad       int

	W *tensor.Tensor // (OutC, InC, K, K)
	B *tensor.Tensor // (OutC)

	GradW *tensor.Tensor
	GradB *tensor.Tensor

	x *tensor.Tensor // cached input

	// Train-mode scratch, reused across steps (the backward pass always
	// completes before the next forward, so recycling cannot alias live
	// data). cols is the im2col patch matrix (CKK × OH·OW) shared by
	// forward and backward; y, dx and dcols make the training hot path
	// allocation-free.
	cols  *tensor.Tensor
	y     *tensor.Tensor
	dx    *tensor.Tensor
	dcols *tensor.Tensor

	// Cached (OutC, CKK) views of W and GradW. GradW's storage never
	// moves; W's moves once, into the model's arena, and NewModel then
	// takes its view again (bindViews).
	wView     *tensor.Tensor
	gradWView *tensor.Tensor
}

// NewConv2D constructs a K×K convolution with He initialisation.
func NewConv2D(inC, outC, k, pad int, r *stats.RNG) *Conv2D {
	c := &Conv2D{
		InC: inC, OutC: outC, K: k, Pad: pad,
		W:     tensor.New(outC, inC, k, k),
		B:     tensor.New(outC),
		GradW: tensor.New(outC, inC, k, k),
		GradB: tensor.New(outC),
	}
	fanIn := float64(inC * k * k)
	c.W.RandNorm(r, math.Sqrt(2/fanIn))
	c.bindViews()
	c.gradWView = c.GradW.Reshape(outC, inC*k*k)
	return c
}

// bindViews implements viewBinder: the cached view of W is taken of
// wherever W's values live now.
func (c *Conv2D) bindViews() {
	c.wView = c.W.Reshape(c.OutC, c.InC*c.K*c.K)
}

// Name implements Layer.
func (c *Conv2D) Name() string {
	return fmt.Sprintf("conv%dx%d(%d->%d,pad=%d)", c.K, c.K, c.InC, c.OutC, c.Pad)
}

func (c *Conv2D) outDims(h, w int) (int, int) {
	return h + 2*c.Pad - c.K + 1, w + 2*c.Pad - c.K + 1
}

// weightView returns the cached (OutC, CKK) view of W. It never writes
// layer state: eval-mode forwards may call it concurrently, so a zero-value
// Conv2D (not built by NewConv2D) just pays for a fresh view.
func (c *Conv2D) weightView() *tensor.Tensor {
	if c.wView != nil {
		return c.wView
	}
	return c.W.Reshape(c.OutC, c.InC*c.K*c.K)
}

func (c *Conv2D) gradWeightView() *tensor.Tensor {
	if c.gradWView != nil {
		return c.gradWView
	}
	return c.GradW.Reshape(c.OutC, c.InC*c.K*c.K)
}

// im2col fills dst (CKK × OH·OW) with the patches of one input plane set.
// Row (ic·K+ky)·K+kx holds, for every output position, the input value the
// kernel tap (ic, ky, kx) reads (0 for padding). The taps of kernel row ky
// are one tensor.CopyTaps call over every channel and the output rows
// that row reads inside the input; with padding, dst is cleared first.
func (c *Conv2D) im2col(dst []float32, in []float32, h, w, oh, ow int) {
	k, plane := c.K, oh*ow
	if c.Pad > 0 {
		clear(dst[:c.InC*k*k*plane])
	}
	for ky := 0; ky < k; ky++ {
		if g, oy0, iy := c.taps(ky, h, w, oh, ow); g.Rows > 0 {
			tensor.CopyTaps(dst[ky*k*plane+oy0*ow:], in[iy*w:], g)
		}
	}
}

// taps returns the geometry of kernel row ky's lowering over every
// channel, the first output row that reads inside the input and the input
// row it reads.
func (c *Conv2D) taps(ky, h, w, oh, ow int) (tensor.Taps, int, int) {
	oy0, oy1, iy := tapRange(ky, c.Pad, h, oh)
	return tensor.Taps{K: c.K, Pad: c.Pad, W: w, OW: ow, Rows: oy1 - oy0, Plane: oh * ow,
		Channels: c.InC, PatchStride: c.K * c.K * oh * ow, ImageStride: h * w}, oy0, iy
}

// tapRange returns the output rows [lo, hi) at which kernel row ky reads
// inside an input of h rows, and the input row output row lo reads; the
// rows outside [lo, hi) read padding. (tensor.CopyTaps finds a tap's
// columns the same way.)
func tapRange(ky, pad, h, oh int) (lo, hi, iy int) {
	lo, hi = max(0, pad-ky), min(oh, h+pad-ky)
	if lo >= hi {
		return 0, 0, 0
	}
	return lo, hi, lo + ky - pad
}

// Forward implements Layer.
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Rank() != 4 || x.Dim(1) != c.InC {
		panic(fmt.Sprintf("nn: conv forward shape %v, want (N, %d, H, W)", x.Shape(), c.InC))
	}
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	oh, ow := c.outDims(h, w)
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("nn: conv output collapsed for input %v kernel %d", x.Shape(), c.K))
	}
	if train {
		c.x = x
	}
	ckk := c.InC * c.K * c.K
	// Training is single-threaded per layer, so the scratch buffer is
	// reused; evaluation-mode forwards may run concurrently (parallel
	// batched evaluation) and borrow a buffer from the shared pool.
	var cols *tensor.Tensor
	var evalScratch []float32
	var y *tensor.Tensor
	if train {
		c.cols = ensureTensor(c.cols, ckk, oh*ow)
		cols = c.cols
		c.y = ensureTensor(c.y, n, c.OutC, oh, ow)
		y = c.y
	} else {
		evalScratch = tensor.GetScratch(ckk * oh * ow)
		cols = tensor.FromSlice(evalScratch, ckk, oh*ow)
		y = tensor.New(n, c.OutC, oh, ow)
	}
	wView := c.weightView()
	// One reusable view header per call; only its Data window moves across
	// samples, avoiding a tensor-header allocation per sample.
	outView := tensor.FromSlice(y.Data[:c.OutC*oh*ow], c.OutC, oh*ow)
	for ni := 0; ni < n; ni++ {
		c.im2col(cols.Data, x.Data[ni*c.InC*h*w:(ni+1)*c.InC*h*w], h, w, oh, ow)
		outView.Data = y.Data[ni*c.OutC*oh*ow : (ni+1)*c.OutC*oh*ow]
		tensor.MatMulInto(outView, wView, cols)
	}
	plane := oh * ow
	for ni := 0; ni < n; ni++ {
		tensor.AddBias(y.Data[ni*c.OutC*plane:(ni+1)*c.OutC*plane], c.B.Data, plane)
	}
	if evalScratch != nil {
		tensor.PutScratch(evalScratch)
	}
	return y
}

// Backward implements Layer.
func (c *Conv2D) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	return c.backward(gradOut, true)
}

// backwardParams implements paramsOnlyBackward.
func (c *Conv2D) backwardParams(gradOut *tensor.Tensor) { c.backward(gradOut, false) }

// backward accumulates GradW and GradB and, when needDx, also computes the
// input gradient; without it the Wᵀ·g product, the col2im scatter and the
// clear of dx are skipped and the result is nil.
func (c *Conv2D) backward(gradOut *tensor.Tensor, needDx bool) *tensor.Tensor {
	if c.x == nil {
		panic("nn: conv backward before forward")
	}
	x := c.x
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	oh, ow := gradOut.Dim(2), gradOut.Dim(3)
	plane := oh * ow

	gradWView := c.gradWeightView()
	var dx *tensor.Tensor
	if needDx {
		c.dx = ensureTensor(c.dx, n, c.InC, h, w)
		dx = c.dx
		// col2im scatters with +=: a first write in place of 0 + v would
		// turn a +0 sum into −0.
		dx.Zero()
		c.dcols = ensureTensor(c.dcols, c.InC*c.K*c.K, plane)
	}

	g := tensor.FromSlice(gradOut.Data[:c.OutC*plane], c.OutC, plane)
	for ni := 0; ni < n; ni++ {
		g.Data = gradOut.Data[ni*c.OutC*plane : (ni+1)*c.OutC*plane]
		c.biasGrad(g.Data, plane)
		// Weight gradient: dW += g @ colsᵀ.
		c.im2col(c.cols.Data, x.Data[ni*c.InC*h*w:(ni+1)*c.InC*h*w], h, w, oh, ow)
		tensor.MatMulTransposeBAdd(gradWView, g, c.cols)
		if needDx {
			// Input gradient: dcols = Wᵀ @ g, scattered back (col2im).
			tensor.MatMulTransposeAInto(c.dcols, c.weightView(), g)
			c.col2im(dx.Data[ni*c.InC*h*w:(ni+1)*c.InC*h*w], c.dcols.Data, h, w, oh, ow)
		}
	}
	return dx
}

// biasGrad adds each channel's sum of one sample's output gradient g
// (OutC planes of plane elements) to GradB. A sum is one float32 chain in
// ascending position, latency-bound, so four channels' chains run side by
// side.
func (c *Conv2D) biasGrad(g []float32, plane int) {
	oc := 0
	for ; oc+4 <= c.OutC; oc += 4 {
		g0 := g[oc*plane : (oc+1)*plane]
		g1 := g[(oc+1)*plane:][:len(g0)]
		g2 := g[(oc+2)*plane:][:len(g0)]
		g3 := g[(oc+3)*plane:][:len(g0)]
		var s0, s1, s2, s3 float32
		for i, v := range g0 {
			s0 += v
			s1 += g1[i]
			s2 += g2[i]
			s3 += g3[i]
		}
		gb := c.GradB.Data[oc : oc+4 : oc+4]
		gb[0] += s0
		gb[1] += s1
		gb[2] += s2
		gb[3] += s3
	}
	for ; oc < c.OutC; oc++ {
		var sum float32
		for _, v := range g[oc*plane : (oc+1)*plane] {
			sum += v
		}
		c.GradB.Data[oc] += sum
	}
}

// col2im scatters the patch-matrix gradient src (CKK × OH·OW) back onto one
// sample's input planes, adding where patches overlap: one
// tensor.AddTaps call per kernel row, ky ascending, each running its taps
// in ascending kx. A cell of channel ic receives additions only from
// (ic, ky, kx) rows, so it still receives them in ascending (ic, ky, kx)
// order.
func (c *Conv2D) col2im(dplane, src []float32, h, w, oh, ow int) {
	for ky := 0; ky < c.K; ky++ {
		if g, oy0, iy := c.taps(ky, h, w, oh, ow); g.Rows > 0 {
			tensor.AddTaps(dplane[iy*w:], src[ky*c.K*oh*ow+oy0*ow:], g)
		}
	}
}

// Params implements Layer.
func (c *Conv2D) Params() []*tensor.Tensor { return []*tensor.Tensor{c.W, c.B} }

// Grads implements Layer.
func (c *Conv2D) Grads() []*tensor.Tensor { return []*tensor.Tensor{c.GradW, c.GradB} }

// sampleCost implements sampleCoster over a (C, H, W) sample.
func (c *Conv2D) sampleCost(in []int) (float64, []int) {
	oh, ow := c.outDims(in[1], in[2])
	return float64(c.OutC*oh*ow) * float64(c.InC*c.K*c.K), []int{c.OutC, oh, ow}
}
