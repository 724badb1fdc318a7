package compress

import (
	"math"
	"math/bits"
	"sync"

	"adafl/internal/tensor"
)

const (
	signMask = uint64(1) << 63
	expMask  = uint64(0x7ff) << 52

	// selectBits is how many leading bits of the 63-bit magnitude index the
	// selection histogram: the 11 exponent bits and the top 3 of the
	// mantissa, so a bucket is an eighth of a binade. 2¹⁴ uint32 counters
	// are 64 KB of stack.
	selectBits  = 14
	selectShift = 63 - selectBits
)

// finite reports whether x is neither NaN nor ±Inf: its exponent field is
// not all ones. The selection path treats non-finite coordinates as zero
// magnitude: a NaN compares false against everything and has no rank, and
// a ±Inf would pass every threshold and be transmitted verbatim, poisoning
// the server-side aggregate.
func finite(x float64) bool {
	return math.Float64bits(x)&expMask != expMask
}

// selectThreshold returns the k-th largest magnitude in v, as its bits, and
// how many coordinates lie strictly above it. A magnitude is handled as the
// integer key bits(x) &^ signMask throughout: the IEEE-754 bits of a
// non-negative finite double are monotone in its value, and a non-finite
// coordinate's key counts as 0. The select is exact: a strided sample of
// the keys brackets the threshold, one pass gathers the keys inside the
// bracket, and selectKeys finds it among them (bracketedThreshold). k must
// be in [1, len(v)). scratch may have any length, and its contents are
// clobbered; a select that needs more (the sample, or the keys the bracket
// gathers) allocates. used is how much it needed: a scratch of that length
// would have served it.
func selectThreshold(v []float64, k int, scratch []float64) (thr uint64, above, used int) {
	m := sampleSize(len(v), k)
	if len(scratch) < m {
		scratch = make([]float64, m)
	}
	lo, hi := sampleBracket(v, k, scratch[:m])
	thr, above, used = bracketedThreshold(v, k, scratch, lo, hi)
	return thr, above, max(used, m)
}

// bracketMinLen is the length under which the bracket is the whole key
// range: a sample would cost about what selecting among all of v does.
const bracketMinLen = 1024

// sampleSize is how many keys sampleBracket draws from n for the k-th
// largest (see there), 0 when n is under bracketMinLen.
func sampleSize(n, k int) int {
	if n < bracketMinLen {
		return 0
	}
	p := float64(k) / float64(n)
	return min(max(int(math.Pow(3*float64(n)*math.Sqrt(p*(1-p)), 2.0/3)), 64), n/8)
}

// sampleBracket returns keys lo ≤ hi that bracket the k-th largest key of
// v with high probability. It draws m = len(sample) keys (sampleSize) into
// sample, one in each stride of len(v)/m, and bounds the two whose ranks
// from the top lie a margin either side of k·m/len(v), the rank the
// threshold has in the sample on average: three standard deviations of
// that rank (a binomial count) plus four. m balances the sample's cost against the gathered keys' (about
// 6σ·len(v)/m): (3·len(v)·√(p(1−p)))^⅔ minimises the sum for p =
// k/len(v). A bound the sample cannot set is left open (lo 0, hi all
// ones).
//
// The two sample keys are not selected exactly: one count of the sample
// into up to 2¹⁰ equal buckets spanning its nonzero keys' bits (a zero
// key counts in the lowest bucket) finds the buckets that hold them, and
// lo and hi are those buckets' outer edges. That widens the bracket by
// less than a bucket each way — it still holds whatever the exact keys
// would have held — and saves the rounds of a select, whose cost on a
// sample is comparable with all the rest.
func sampleBracket(v []float64, k int, sample []float64) (lo, hi uint64) {
	n, m := len(v), len(sample)
	lo, hi = 0, math.MaxUint64
	if m == 0 {
		return lo, hi
	}
	p := float64(k) / float64(n)
	q := math.Sqrt(p * (1 - p))
	expect, margin := p*float64(m), 3*q*math.Sqrt(float64(m))+4
	cHi, cLo := int(math.Floor(expect-margin)), int(math.Ceil(expect+margin))
	step := n / m
	// least is the least nonzero key: a zero key's b−1 wraps to the top and
	// leaves the minimum alone (and if every key is zero, least wraps back
	// to 0).
	least, most := uint64(math.MaxUint64), uint64(0)
	for j := range sample {
		// Each key is drawn at an offset inside its stride that a Weyl
		// sequence spreads over the stride. A fixed offset can alias a
		// model's periodic layout (a dense layer's outputs interleave): at
		// offset step/2, mlp_proto's DGC accumulator put twice the expected
		// count above the threshold into the sample, and 0.75 % of its
		// brackets missed.
		off := int(uint64(uint32(j)*0x9e3779b9) * uint64(step) >> 32)
		b := math.Float64bits(v[j*step+off]) &^ signMask
		if b >= expMask {
			b = 0
		}
		sample[j] = math.Float64frombits(b)
		least, most = min(least, b-1), max(most, b)
	}
	least++
	span := most - least
	shift := max(bits.Len64(span)-10, 0)
	var counts [1 << 10]int32
	for _, x := range sample {
		d := math.Float64bits(x) - least
		if math.Float64bits(x) < least {
			d = 0
		}
		counts[d>>shift]++
	}
	// Walk down from the top bucket to the ones holding ranks cHi and cLo.
	b, seen := int(span>>shift), 0
	for ; b >= 0; b-- {
		above := seen
		seen += int(counts[b])
		if cHi >= 1 && above < cHi && seen >= cHi {
			hi = min(least+(uint64(b)+1)<<shift-1, most)
		}
		if seen >= cLo {
			break
		}
	}
	if b > 0 { // bucket 0 holds the zeros; past it, cLo > m
		lo = least + uint64(b)<<shift
	}
	return lo, hi
}

// bracketedThreshold is selectThreshold given a bracket [lo, hi] of keys.
// One pass (tensor.GatherKeys) counts the keys above hi and gathers those
// inside into scratch. If the k-th largest key is among them — fewer than
// k lie above, and at least k lie above or inside — selectKeys finds it
// there; otherwise the sample missed, and the histogram select runs
// instead. Either way the result is the k-th largest key: the bracket only
// chooses where to look. A bracket that holds more keys than scratch does
// is gathered again into a scratch that holds all of v; used is how many
// keys it holds.
func bracketedThreshold(v []float64, k int, scratch []float64, lo, hi uint64) (thr uint64, above, used int) {
	above, inside, ok := tensor.GatherKeys(scratch, v, lo, hi)
	if !ok {
		scratch = make([]float64, len(v))
		above, inside, _ = tensor.GatherKeys(scratch, v, lo, hi)
	}
	r := k - above // the threshold's rank among the gathered keys, from the top
	if r <= 0 || r > inside {
		thr, above = histogramThreshold(v, k, scratch)
		return thr, above, inside
	}
	t, a := selectKeys(scratch[:inside], r, lo, hi)
	return math.Float64bits(t), above + a, inside
}

// selectKeys returns the r-th largest of keys (1 ≤ r ≤ len(keys)), which
// are magnitude keys held as float64 bits, and how many keys are larger.
// It reorders keys. lo ≤ every key ≤ hi bounds them for the first round
// (hi all ones: not known, take the least and greatest). Each round spans
// the keys' bits from least to greatest with up to 2¹⁰ equal buckets,
// counts the keys into them, walks
// down from the top to the bucket holding rank r and goes on with that
// bucket's members alone. A pass branches on a key only where a running
// minimum or maximum changes, which is rare — a quickselect's compares
// mispredict about half the time on fresh data — and since a round's
// buckets are narrower than its span by 2³ or more (2⁹ from 512 keys on),
// there are at most 21 rounds; at the ranks the select asks for, two or
// three.
func selectKeys(keys []float64, r int, lo, hi uint64) (t float64, above int) {
	var hist [1 << 10]int32
	for round := 0; ; round++ {
		if round > 0 || hi == math.MaxUint64 {
			lo, hi = math.MaxUint64, 0
			for _, x := range keys {
				b := math.Float64bits(x)
				lo, hi = min(lo, b), max(hi, b)
			}
		}
		if lo == hi {
			return math.Float64frombits(lo), above
		}
		// About two keys to a bucket.
		shift := max(bits.Len64(hi-lo)-min(max(bits.Len(uint(len(keys)))-1, 4), 10), 0)
		counts := hist[:(hi-lo)>>shift+1]
		clear(counts)
		for _, x := range keys {
			counts[(math.Float64bits(x)-lo)>>shift]++
		}
		b := len(counts) - 1
		for int(counts[b]) < r {
			r -= int(counts[b])
			above += int(counts[b])
			b--
		}
		n := 0
		for _, x := range keys {
			keys[n] = x
			in := 0
			if (math.Float64bits(x)-lo)>>shift == uint64(b) {
				in = 1
			}
			n += in
		}
		keys = keys[:n]
	}
}

// histogramThreshold is selectThreshold by histogram, the path a missed
// bracket takes: one pass counts the keys into a histogram over their
// leading selectBits, a walk down from the top bucket finds the one
// holding rank k, and only that bucket's members are gathered into scratch
// and selected among (in a new scratch when the bucket outgrows this one).
// Its cost does not depend on the input's order, which bounds the worst
// case of the bracketed select.
func histogramThreshold(v []float64, k int, scratch []float64) (thr uint64, above int) {
	var hist [1 << selectBits]uint32
	for _, x := range v {
		hist[(math.Float64bits(x)&^signMask)>>selectShift]++
	}
	// Non-finite coordinates landed in the buckets from expMask up; they
	// rank as zeros, so their counts move to bucket 0.
	for b := expMask >> selectShift; b < uint64(len(hist)); b++ {
		hist[0] += hist[b]
		hist[b] = 0
	}
	bucket, rank := uint64(len(hist)-1), k
	for int(hist[bucket]) < rank {
		rank -= int(hist[bucket])
		bucket--
	}
	above = k - rank
	// The threshold is the rank-th largest of the bucket's members. Bucket
	// 0's count includes the non-finite coordinates, which the gather does
	// not match: the slots it leaves unfilled are their zeros.
	if len(scratch) < int(hist[bucket]) {
		scratch = make([]float64, hist[bucket])
	}
	members := scratch[:hist[bucket]]
	m := 0
	for _, x := range v {
		if b := math.Float64bits(x) &^ signMask; b>>selectShift == bucket {
			members[m] = math.Float64frombits(b)
			m++
		}
	}
	clear(members[m:])
	t, a := selectKeys(members, rank, 0, math.MaxUint64)
	return math.Float64bits(t), above + a
}

// SelectTopK builds a sparse message from the k largest-magnitude
// coordinates of v. Ties at the threshold are resolved by coordinate order
// and the result is truncated to exactly k entries; non-finite coordinates
// rank as zero magnitude and are never transmitted. The selection scratch,
// as long as v, is borrowed from selectScratch; a codec that encodes every
// round keeps a selector instead.
func SelectTopK(v []float64, k int) *Sparse {
	if k <= 0 {
		panic("compress: non-positive k")
	}
	if k >= len(v) {
		return denseFinite(v)
	}
	sp := selectScratch.Get().(*[]float64)
	if cap(*sp) < len(v) {
		*sp = make([]float64, len(v))
	}
	s, _ := selectTopKScratch(v, k, (*sp)[:len(v)])
	selectScratch.Put(sp)
	return s
}

// selectScratch holds SelectTopK's selection buffers as *[]float64, so a
// Put boxes no slice header.
var selectScratch = sync.Pool{New: func() any { return new([]float64) }}

// selector is the top-k select of a codec that encodes every round, with
// the scratch it keeps between encodes. The scratch is sized to what the
// last select used — its sample and the keys its bracket gathered, about
// k plus the bracket at most — not to v: a select whose bracket gathers
// more takes the miss path, which allocates, and the scratch then grows
// to that plus half (a bracket's count varies by about a fifth between
// rounds at one ratio). Like fitScratch it shrinks once a select uses less
// than a quarter of it, so one shallow ratio does not pin its scratch for
// the session.
type selector struct {
	scratch []float64
}

// selectTopK is SelectTopK on the selector's scratch.
func (s *selector) selectTopK(v []float64, k int) *Sparse {
	if k <= 0 {
		panic("compress: non-positive k")
	}
	if k >= len(v) {
		return denseFinite(v)
	}
	msg, used := selectTopKScratch(v, k, s.scratch)
	if c := len(s.scratch); used > c || (c > shrinkFloor && used < c/4) {
		s.scratch = make([]float64, used+used/2)
	}
	return msg
}

// selectTopKScratch is SelectTopK, k in [1, len(v)), on a scratch of any
// length whose contents are clobbered (selectThreshold); used is the
// scratch length the select needed.
func selectTopKScratch(v []float64, k int, scratch []float64) (s *Sparse, used int) {
	thr, above, used := selectThreshold(v, k, scratch)
	// Everything strictly above the threshold is taken; the rest of the k
	// slots go to the first at-threshold entries in coordinate order
	// (duplicates of the threshold). Knowing the former count up front lets
	// one coordinate-order pass take both, so the indices come out strictly
	// ascending by construction — the invariant the wire's ascending
	// layout rests on. A non-finite coordinate has raw bits above every
	// threshold and is skipped there: it ranked as zero and is not sent
	// even as a zero-magnitude tie. The slack lets the pass store whole
	// vectors to the end.
	s = &Sparse{Dim: len(v), Indices: make([]int32, k+tensor.CompressSlack), Values: make([]float64, k+tensor.CompressSlack)}
	n := tensor.CompressAbove(s.Indices, s.Values, v, thr, k-above)
	s.Indices, s.Values = s.Indices[:n], s.Values[:n]
	return s, used
}

// denseFinite is the k ≥ len(v) fast path: every finite coordinate is
// transmitted, non-finite ones are dropped (zero magnitude). With an
// all-finite input it is equivalent to NewSparseDense.
func denseFinite(v []float64) *Sparse {
	s := &Sparse{Dim: len(v), Indices: make([]int32, 0, len(v)), Values: make([]float64, 0, len(v))}
	for i, x := range v {
		if !finite(x) {
			continue
		}
		s.Indices = append(s.Indices, int32(i))
		s.Values = append(s.Values, x)
	}
	return s
}

// Codec compresses a gradient vector into a sparse message. Encode may be
// stateful (error accumulation); Ratio is the requested byte-level
// compression factor for this call, letting AdaFL vary it round to round.
type Codec interface {
	Name() string
	Encode(grad []float64, ratio float64) *Sparse
	// Reset clears any client-local state (accumulators).
	Reset()
}

// roundToFloat32 rounds vals in place to the nearest float32: the paper's
// 4-byte parameters. It is the last step of every codec that transmits
// plain values (Identity, TopK, DGC), which is what lets the wire carry
// them as f32 while every transport — gob, binary, in-process — still
// delivers exactly what the codec produced. A finite magnitude past
// MaxFloat32 saturates rather than becoming ±Inf, which a codec never
// transmits for a finite input.
func roundToFloat32(vals []float64) {
	for i, v := range vals {
		r := float64(float32(v))
		if math.IsInf(r, 0) && !math.IsInf(v, 0) {
			r = math.Copysign(math.MaxFloat32, v)
		}
		vals[i] = r
	}
}

// Identity transmits the gradient uncompressed (at float32 precision)
// regardless of ratio.
type Identity struct{}

// Name implements Codec.
func (Identity) Name() string { return "identity" }

// Encode implements Codec.
func (Identity) Encode(grad []float64, _ float64) *Sparse {
	s := NewSparseDense(grad)
	roundToFloat32(s.Values)
	return s
}

// Reset implements Codec.
func (Identity) Reset() {}

// TopK is magnitude sparsification without error feedback: the classic
// baseline that simply drops small coordinates. The only state is the
// selection scratch (selector), so one instance must not be shared between
// concurrently-encoding clients.
type TopK struct {
	sel selector
}

// Name implements Codec.
func (*TopK) Name() string { return "topk" }

// Encode implements Codec.
func (t *TopK) Encode(grad []float64, ratio float64) *Sparse {
	s := t.sel.selectTopK(grad, KForRatio(len(grad), ratio))
	roundToFloat32(s.Values)
	return s
}

// Reset implements Codec.
func (t *TopK) Reset() {}
