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

	// Cached (OutC, CKK) views of W and GradW. The underlying storage of
	// both tensors never reallocates, so the views stay valid for the
	// layer's lifetime.
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
	c.wView = c.W.Reshape(outC, inC*k*k)
	c.gradWView = c.GradW.Reshape(outC, inC*k*k)
	return c
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
// kernel tap (ic, ky, kx) reads (0 for padding).
func (c *Conv2D) im2col(dst []float64, in []float64, h, w, oh, ow int) {
	k, pad := c.K, c.Pad
	row := 0
	for ic := 0; ic < c.InC; ic++ {
		plane := in[ic*h*w : (ic+1)*h*w]
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				out := dst[row*oh*ow : (row+1)*oh*ow]
				for oy := 0; oy < oh; oy++ {
					iy := oy + ky - pad
					dstRow := out[oy*ow : (oy+1)*ow]
					if iy < 0 || iy >= h {
						for i := range dstRow {
							dstRow[i] = 0
						}
						continue
					}
					src := plane[iy*w : (iy+1)*w]
					for ox := 0; ox < ow; ox++ {
						ix := ox + kx - pad
						if ix < 0 || ix >= w {
							dstRow[ox] = 0
						} else {
							dstRow[ox] = src[ix]
						}
					}
				}
				row++
			}
		}
	}
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
	var evalScratch []float64
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
	// Bias.
	plane := oh * ow
	for ni := 0; ni < n; ni++ {
		for oc := 0; oc < c.OutC; oc++ {
			b := c.B.Data[oc]
			if b == 0 {
				continue
			}
			out := y.Data[(ni*c.OutC+oc)*plane : (ni*c.OutC+oc+1)*plane]
			for i := range out {
				out[i] += b
			}
		}
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
// input gradient; without it the Wᵀ·g product, the col2im scatter and both
// buffer clears are skipped and the result is nil.
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
		dx.Zero() // col2im scatters with +=
		c.dcols = ensureTensor(c.dcols, c.InC*c.K*c.K, plane)
	}

	g := tensor.FromSlice(gradOut.Data[:c.OutC*plane], c.OutC, plane)
	for ni := 0; ni < n; ni++ {
		g.Data = gradOut.Data[ni*c.OutC*plane : (ni+1)*c.OutC*plane]
		// Bias gradient: per-channel sums.
		for oc := 0; oc < c.OutC; oc++ {
			sum := 0.0
			for _, v := range g.Data[oc*plane : (oc+1)*plane] {
				sum += v
			}
			c.GradB.Data[oc] += sum
		}
		// Weight gradient: dW += g @ colsᵀ.
		c.im2col(c.cols.Data, x.Data[ni*c.InC*h*w:(ni+1)*c.InC*h*w], h, w, oh, ow)
		tensor.MatMulTransposeBAdd(gradWView, g, c.cols)
		if needDx {
			// Input gradient: dcols = Wᵀ @ g, scattered back (col2im).
			c.dcols.Zero()
			tensor.MatMulTransposeA(c.dcols, c.weightView(), g)
			c.col2im(dx.Data[ni*c.InC*h*w:(ni+1)*c.InC*h*w], c.dcols.Data, h, w, oh, ow)
		}
	}
	return dx
}

// col2im scatters the patch-matrix gradient src (CKK × OH·OW) back onto one
// sample's input planes, adding where patches overlap.
func (c *Conv2D) col2im(dplane, src []float64, h, w, oh, ow int) {
	k, pad := c.K, c.Pad
	plane := oh * ow
	row := 0
	for ic := 0; ic < c.InC; ic++ {
		target := dplane[ic*h*w : (ic+1)*h*w]
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				patch := src[row*plane : (row+1)*plane]
				for oy := 0; oy < oh; oy++ {
					iy := oy + ky - pad
					if iy < 0 || iy >= h {
						continue
					}
					tRow := target[iy*w : (iy+1)*w]
					sRow := patch[oy*ow : (oy+1)*ow]
					for ox := 0; ox < ow; ox++ {
						ix := ox + kx - pad
						if ix >= 0 && ix < w {
							tRow[ix] += sRow[ox]
						}
					}
				}
				row++
			}
		}
	}
}

// Params implements Layer.
func (c *Conv2D) Params() []*tensor.Tensor { return []*tensor.Tensor{c.W, c.B} }

// Grads implements Layer.
func (c *Conv2D) Grads() []*tensor.Tensor { return []*tensor.Tensor{c.GradW, c.GradB} }

// FLOPsPerSample implements FLOPCounter. The estimate assumes the layer's
// most recent input size; before any forward pass it assumes a 28×28 map.
func (c *Conv2D) FLOPsPerSample() float64 {
	h, w := 28, 28
	if c.x != nil {
		h, w = c.x.Dim(2), c.x.Dim(3)
	}
	oh, ow := c.outDims(h, w)
	return float64(c.OutC*oh*ow) * float64(c.InC*c.K*c.K)
}
