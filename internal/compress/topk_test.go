package compress

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"testing"

	"adafl/internal/stats"
	"adafl/internal/tensor"
)

// topKThreshold is the magnitude of the k-th largest |v|, as the
// threshold tests read it.
func topKThreshold(v []float64, k int, scratch []float64) float64 {
	thr, _, _ := selectThreshold(v, k, scratch)
	return math.Float64frombits(thr)
}

// magnitudeOrder is the sorting half of the reference selection: every
// coordinate of v by magnitude descending, ties by coordinate. A
// non-finite coordinate ranks below the true zeros — it counts as a zero
// when the threshold is found but never takes a tie's slot — which is what
// the selection has always done.
func magnitudeOrder(v []float64) []int {
	mag := func(i int) float64 {
		if math.IsNaN(v[i]) || math.IsInf(v[i], 0) {
			return -1
		}
		return math.Abs(v[i])
	}
	order := make([]int, len(v))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return mag(order[a]) > mag(order[b]) })
	return order
}

// selectTopKSorted is the reference selection: the first k of
// magnitudeOrder(v), without the non-finite ones among them, in coordinate
// order. It shares no code with selectTopKScratch.
func selectTopKSorted(v []float64, order []int, k int) *Sparse {
	top := append([]int(nil), order[:min(k, len(order))]...)
	sort.Ints(top)
	s := &Sparse{Dim: len(v), Indices: []int32{}, Values: []float64{}}
	for _, i := range top {
		if math.IsNaN(v[i]) || math.IsInf(v[i], 0) {
			continue
		}
		s.Indices = append(s.Indices, int32(i))
		s.Values = append(s.Values, v[i])
	}
	return s
}

// quickselect returns the element of rank target (ascending, 0-based) of
// a, reordering a (iterative Hoare partition, O(len(a)) expected): the
// select the histogram select used, kept for the references below. a must
// hold no NaN.
func quickselect(a []float64, target int) float64 {
	lo, hi := 0, len(a)-1
	for lo < hi {
		pivot := a[(lo+hi)/2]
		i, j := lo, hi
		for i <= j {
			for a[i] < pivot {
				i++
			}
			for a[j] > pivot {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		if target <= j {
			hi = j
		} else if target >= i {
			lo = i
		} else {
			break
		}
	}
	return a[target]
}

// quickselectThreshold is the selection the histogram replaced — a copy of
// every magnitude, non-finite as zero, and a quickselect over all of them
// — kept as a second reference for the threshold and as the baseline of
// the benchmark below.
func quickselectThreshold(v []float64, k int) float64 {
	abs := make([]float64, len(v))
	for i, x := range v {
		if !math.IsNaN(x) && !math.IsInf(x, 0) {
			abs[i] = math.Abs(x)
		}
	}
	return quickselect(abs, len(abs)-k)
}

// checkSelect compares SelectTopK against the sorted reference bit for
// bit, and checks the invariant the wire's ascending layout rests on.
func checkSelect(t *testing.T, name string, v []float64, order []int, k int) {
	t.Helper()
	got, want := SelectTopK(v, k), selectTopKSorted(v, order, k)
	if !sameSparse(got, want) {
		t.Fatalf("%s n=%d k=%d: got %d entries, want %d; first difference at %d",
			name, len(v), k, got.NNZ(), want.NNZ(), firstDiff(got, want))
	}
	for i := 1; i < len(got.Indices); i++ {
		if got.Indices[i] <= got.Indices[i-1] {
			t.Fatalf("%s n=%d k=%d: indices not strictly ascending at %d", name, len(v), k, i)
		}
	}
	if k < len(v) {
		if thr, ref := topKThreshold(v, k, make([]float64, len(v))), quickselectThreshold(v, k); thr != ref {
			t.Fatalf("%s n=%d k=%d: threshold %v, quickselect over all n says %v", name, len(v), k, thr, ref)
		}
	}
}

func firstDiff(a, b *Sparse) int {
	for i := 0; i < len(a.Indices) && i < len(b.Indices); i++ {
		if a.Indices[i] != b.Indices[i] || math.Float64bits(a.Values[i]) != math.Float64bits(b.Values[i]) {
			return i
		}
	}
	return min(len(a.Indices), len(b.Indices))
}

// selectFamilies are the input shapes that stress a different part of the
// histogram select each: where the rank-k bucket falls, how full it is,
// and what shares bucket 0 with the true zeros.
var selectFamilies = []struct {
	name   string
	at431k bool // also run at the paper CNN's dimension
	gen    func(r *stats.RNG, v []float64)
}{
	{"gaussian", true, func(r *stats.RNG, v []float64) {
		for i := range v {
			v[i] = 0.01 * r.Norm()
		}
	}},
	{"few-distinct", true, func(r *stats.RNG, v []float64) { // mass ties at the threshold
		for i := range v {
			v[i] = float64(r.Intn(4)) * math.Copysign(0.25, r.Norm())
		}
	}},
	{"40-decades", false, func(r *stats.RNG, v []float64) {
		for i := range v {
			v[i] = r.Norm() * math.Pow(10, 40*r.Float64()-20)
		}
	}},
	{"mostly-zero", false, func(r *stats.RNG, v []float64) {
		for i := range v {
			v[i] = 0
			if r.Intn(50) == 0 {
				v[i] = r.Norm()
			}
		}
	}},
	{"all-equal-magnitude", true, func(r *stats.RNG, v []float64) { // the whole vector in one bucket
		for i := range v {
			v[i] = math.Copysign(0.375, r.Norm())
		}
	}},
	{"one-bucket", false, func(r *stats.RNG, v []float64) { // distinct values, all inside one eighth-binade
		for i := range v {
			v[i] = math.Copysign(1+r.Float64()/16, r.Norm())
		}
	}},
	{"specials-mixed", true, func(r *stats.RNG, v []float64) {
		specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 5e-324, -5e-324,
			math.MaxFloat64, -math.MaxFloat64, 0x1p-1022, 0}
		for i := range v {
			v[i] = r.Norm()
			if r.Intn(3) == 0 {
				v[i] = specials[r.Intn(len(specials))]
			}
		}
	}},
	{"all-non-finite", false, func(r *stats.RNG, v []float64) {
		for i := range v {
			v[i] = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[r.Intn(3)]
		}
	}},
	{"subnormal", false, func(r *stats.RNG, v []float64) {
		for i := range v {
			v[i] = math.Copysign(math.Float64frombits(uint64(r.Intn(1<<20))), r.Norm())
		}
	}},
}

// TestSelectTopKMatchesSortedReferenceFamilies is the differential test of
// the histogram select: the same indices and the same value bits as a
// stable sort by magnitude, for every family, at sizes below and above the
// histogram's and at the ranks where an off-by-one would show.
func TestSelectTopKMatchesSortedReferenceFamilies(t *testing.T) {
	r := stats.NewRNG(18)
	for _, fam := range selectFamilies {
		for _, n := range []int{2, 3, 17, 257, 5000, 1<<selectBits + 1000} {
			v := make([]float64, n)
			fam.gen(r, v)
			order := magnitudeOrder(v)
			for _, k := range []int{1, 2, n / 210, n / 4, n / 2, n - 2, n - 1, n, n + 1} {
				if k >= 1 {
					checkSelect(t, fam.name, v, order, k)
				}
			}
			for trial := 0; trial < 5; trial++ {
				checkSelect(t, fam.name, v, order, 1+r.Intn(n))
			}
		}
	}
}

// TestSelectTopKMatchesSortedReference431k runs the differential test at
// the paper CNN's dimension and the two ratios AdaFL's range ends on, for
// the families whose rank-k bucket is emptiest and fullest at that size.
func TestSelectTopKMatchesSortedReference431k(t *testing.T) {
	if testing.Short() {
		t.Skip("sorts 431k coordinates per family")
	}
	const n = 431080
	r := stats.NewRNG(431)
	v := make([]float64, n)
	for _, fam := range selectFamilies {
		if !fam.at431k {
			continue
		}
		fam.gen(r, v)
		order := magnitudeOrder(v)
		for _, k := range []int{1, KForRatio(n, 210), KForRatio(n, 4), n - 1} {
			checkSelect(t, fam.name, v, order, k)
		}
	}
}

// FuzzSelectTopK: for any vector (8 fuzz bytes per coordinate, taken as
// raw float64 bits, so NaN payloads, infinities, subnormals and signed
// zeros all arise) and any k, the histogram select emits what the sorted
// reference emits, bit for bit, in strictly ascending coordinate order.
func FuzzSelectTopK(f *testing.F) {
	le := func(xs ...float64) []byte {
		var b []byte
		for _, x := range xs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		return b
	}
	f.Add(le(0.1, -5, 3, 0, -2, 4), uint16(2))
	f.Add(le(1, 1, 1, 1, 1), uint16(1))
	f.Add(le(math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 5e-324), uint16(3))
	f.Add(le(math.NaN(), math.NaN()), uint16(0))
	f.Add(le(1, 1.0625, -1.03125, 1.0078125), uint16(2))
	// The MLP's dimension at ratio 8 and 210: long enough that the sample
	// brackets the threshold instead of gathering every key.
	r := stats.NewRNG(8554)
	for _, fam := range selectFamilies[:3] {
		v := make([]float64, 8554)
		fam.gen(r, v)
		f.Add(le(v...), uint16(KForRatio(len(v), 8)))
		f.Add(le(v...), uint16(KForRatio(len(v), 210)))
	}
	f.Fuzz(func(t *testing.T, data []byte, kRaw uint16) {
		v := make([]float64, len(data)/8)
		if len(v) == 0 {
			return
		}
		for i := range v {
			v[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		checkSelect(t, "fuzz", v, magnitudeOrder(v), 1+int(kRaw)%(len(v)+1))
	})
}

// parentSelectTopKScratch and parentSelectThreshold are the histogram
// select as it stood before the bracketed one, kept as the reference the
// latter must equal bit for bit.
func parentSelectTopKScratch(v []float64, k int, scratch []float64) *Sparse {
	if k >= len(v) {
		return denseFinite(v)
	}
	thr, above := parentSelectThreshold(v, k, scratch[:len(v)])
	ties := k - above
	s := &Sparse{Dim: len(v), Indices: make([]int32, k), Values: make([]float64, k)}
	n := 0
	for i, x := range v {
		b := math.Float64bits(x) &^ signMask
		if b < thr {
			continue
		}
		if b == thr {
			if ties == 0 {
				continue
			}
			ties--
		} else if b >= expMask {
			continue
		}
		s.Indices[n] = int32(i)
		s.Values[n] = x
		n++
	}
	s.Indices, s.Values = s.Indices[:n], s.Values[:n]
	return s
}

func parentSelectThreshold(v []float64, k int, scratch []float64) (thr uint64, above int) {
	var hist [1 << selectBits]uint32
	for _, x := range v {
		hist[(math.Float64bits(x)&^signMask)>>selectShift]++
	}
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
	members := scratch[:hist[bucket]]
	m := 0
	for _, x := range v {
		if b := math.Float64bits(x) &^ signMask; b>>selectShift == bucket {
			members[m] = math.Float64frombits(b)
			m++
		}
	}
	clear(members[m:])
	t := quickselect(members, len(members)-rank)
	for _, a := range members {
		if a > t {
			above++
		}
	}
	return math.Float64bits(t), above
}

// bracketFamilies adds to selectFamilies the inputs whose bits, not their
// magnitudes, are the point: NaN payloads beside both zeros, and a vector
// whose large coordinates fall exactly on the sample's stride.
var bracketFamilies = append(selectFamilies[:len(selectFamilies):len(selectFamilies)], []struct {
	name   string
	at431k bool
	gen    func(r *stats.RNG, v []float64)
}{
	{"nan-payloads-signed-zeros", true, func(r *stats.RNG, v []float64) {
		for i := range v {
			switch r.Intn(4) {
			case 0:
				v[i] = math.Float64frombits(0x7ff0_0000_0000_0001 | uint64(r.Intn(1<<20))<<20 | uint64(r.Intn(2))<<63)
			case 1:
				v[i] = math.Copysign(0, float64(r.Intn(2))-0.5)
			default:
				v[i] = r.Norm()
			}
		}
	}},
	{"stride-aliased", true, func(r *stats.RNG, v []float64) { // every 16th large: a strided sample may see only those
		for i := range v {
			v[i] = 1e-3 * r.Norm()
			if i%16 == 8 {
				v[i] = 10 + r.Norm()
			}
		}
	}},
}...)

// TestSelectMatchesHistogramSelect pins the bracketed select to the
// histogram select it replaced, Indices and Values bit for bit, at every
// dispatch level: sizes 1–40 (no sample), the MLP's 8 554, 20 000 and the
// paper CNN's 431 080, every family, the ratios from 1.01 to +Inf. A
// bracket forced to miss on either side must fall back to the same
// threshold.
func TestSelectMatchesHistogramSelect(t *testing.T) {
	sizes := []int{8554, 20000, 431080}
	for n := 1; n <= 40; n++ {
		sizes = append(sizes, n)
	}
	ratios := []float64{1.01, 4, 8, 32, 210, math.Inf(1)}
	r := stats.NewRNG(40)
	for _, level := range []string{"portable", "avx2", "avx512"} {
		restore, ok := tensor.SetKernelLevel(level)
		if !ok {
			t.Logf("dispatch level %s: not supported by this CPU, skipped", level)
			continue
		}
		t.Logf("dispatch level %s", level)
		func() {
			defer restore()
			misses := 0
			for _, n := range sizes {
				v, scratch, ref := make([]float64, n), make([]float64, n), make([]float64, n)
				for _, fam := range bracketFamilies {
					if n == 431080 && (!fam.at431k || testing.Short() || raceEnabled) {
						continue // the race detector adds nothing to a serial select but time
					}
					fam.gen(r, v)
					for _, ratio := range ratios {
						k := KForRatio(n, ratio)
						got, want := selectWith(v, k, scratch), parentSelectTopKScratch(v, k, ref)
						if !sameSparse(got, want) {
							t.Fatalf("%s %s n=%d k=%d: got %d entries, want %d; first difference at %d",
								level, fam.name, n, k, got.NNZ(), want.NNZ(), firstDiff(got, want))
						}
						if k >= n {
							continue
						}
						wantThr, wantAbove := parentSelectThreshold(v, k, ref)
						if lo, hi := sampleBracket(v, k, scratch[:sampleSize(n, k)]); n >= bracketMinLen && fam.name == "gaussian" && missed(v, k, scratch, lo, hi) {
							t.Errorf("%s n=%d k=%d: the sample missed a Gaussian's threshold", level, n, k)
						}
						// Brackets of the zeros alone and of nothing: each
						// misses unless the threshold is 0.
						for _, b := range [][2]uint64{{0, 0}, {math.MaxInt64, math.MaxInt64}} {
							if missed(v, k, scratch, b[0], b[1]) {
								misses++
							}
							if thr, above, _ := bracketedThreshold(v, k, scratch, b[0], b[1]); thr != wantThr || above != wantAbove {
								t.Fatalf("%s %s n=%d k=%d bracket %#x: threshold %#x above %d, want %#x %d",
									level, fam.name, n, k, b, thr, above, wantThr, wantAbove)
							}
						}
					}
				}
			}
			if misses == 0 {
				t.Errorf("%s: no bracket missed; the histogram path went untested", level)
			}
		}()
	}
}

// missed reports whether the bracket [lo, hi] misses the k-th largest key
// of v, which sends bracketedThreshold to the histogram select.
func missed(v []float64, k int, scratch []float64, lo, hi uint64) bool {
	above, inside, _ := tensor.GatherKeys(scratch, v, lo, hi)
	return above >= k || above+inside < k
}

// selectWith is SelectTopK on the given scratch, of any length.
func selectWith(v []float64, k int, scratch []float64) *Sparse {
	if k >= len(v) {
		return denseFinite(v)
	}
	s, _ := selectTopKScratch(v, k, scratch)
	return s
}

// BenchmarkSelectTopK times selectTopKScratch at the MLP's and the paper
// CNN's dimensions, at AdaFL's async ratio and the deep end of its range,
// at the portable level and at avx2 (the select has no AVX-512 kernel),
// beside the histogram select it replaced.
func BenchmarkSelectTopK(b *testing.B) {
	for _, n := range []int{8554, 431080} {
		r := stats.NewRNG(4)
		v := make([]float64, n)
		for i := range v {
			v[i] = 0.01 * r.Norm()
		}
		scratch := make([]float64, n)
		for _, ratio := range []float64{8, 210} {
			k := KForRatio(n, ratio)
			for _, level := range []string{"portable", "avx2"} {
				b.Run(fmt.Sprintf("n%d/r%v/%s", n, ratio, level), func(b *testing.B) {
					restore, ok := tensor.SetKernelLevel(level)
					if !ok {
						b.Skip("not supported by this CPU")
					}
					defer restore()
					for i := 0; i < b.N; i++ {
						selectTopKScratch(v, k, scratch)
					}
				})
			}
			b.Run(fmt.Sprintf("n%d/r%v/histogram", n, ratio), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					parentSelectTopKScratch(v, k, scratch)
				}
			})
		}
	}
}

// sampleAliased fills v with small values, and a large one at every
// coordinate sampleBracket draws for the k-th largest: the sample sees
// only the large ones, so its bracket misses the threshold — the layout a
// fixed sample offset met in a dense layer's interleaved outputs. It
// repeats sampleBracket's draw; the tests that use it check that the
// bracket did miss, so a change to the draw fails them rather than
// leaving them testing nothing.
func sampleAliased(r *stats.RNG, v []float64, k int) {
	for i := range v {
		v[i] = 1e-3 * r.Norm()
	}
	m := sampleSize(len(v), k)
	step := len(v) / m
	for j := 0; j < m; j++ {
		off := int(uint64(uint32(j)*0x9e3779b9) * uint64(step) >> 32)
		v[j*step+off] = 10 + r.Norm()
	}
}

// TestSelectorMatchesFullScratch: a selector, whose scratch is sized to
// the bracket, selects exactly what SelectTopK selects with a scratch as
// long as v, Indices and Values bit for bit, over ratios from 4 to 210 in
// random order: on Gaussian accumulators, on the stride-aliased layout,
// and on a layout whose every sampled coordinate is large, which sends the
// select to its histogram path (checked). The first sparse select, a jump
// to a ratio whose bracket holds more keys and a bracket that outgrows its
// scratch take the other miss, a gather that does not fit, which
// allocates and grows the scratch: those are counted and must occur.
func TestSelectorMatchesFullScratch(t *testing.T) {
	ratios := []float64{4, 8, 16, 32, 64, 128, 210}
	for _, n := range []int{20000, 431080} {
		if n == 431080 && (testing.Short() || raceEnabled) {
			continue // the race detector adds nothing to a serial select but time
		}
		r := stats.NewRNG(uint64(n))
		v, full := make([]float64, n), make([]float64, n)
		var sel selector
		grew, sampleMisses := 0, 0
		for step := 0; step < 30; step++ {
			ratio := ratios[r.Intn(len(ratios))]
			k := KForRatio(n, ratio)
			switch step % 3 {
			case 0:
				bracketFamilies[0].gen(r, v) // gaussian
			case 1:
				for _, fam := range bracketFamilies {
					if fam.name == "stride-aliased" {
						fam.gen(r, v)
					}
				}
			case 2:
				sampleAliased(r, v, k)
				lo, hi := sampleBracket(v, k, full[:sampleSize(n, k)])
				if !missed(v, k, full, lo, hi) {
					t.Fatalf("n=%d k=%d: the sample-aliased layout did not make the bracket miss", n, k)
				}
				sampleMisses++
			}
			before := len(sel.scratch)
			got, want := sel.selectTopK(v, k), SelectTopK(v, k)
			if !sameSparse(got, want) {
				t.Fatalf("n=%d step %d k=%d: got %d entries, want %d; first difference at %d",
					n, step, k, got.NNZ(), want.NNZ(), firstDiff(got, want))
			}
			if len(sel.scratch) > before {
				grew++
			}
			if len(sel.scratch) >= n/4 {
				t.Fatalf("n=%d step %d k=%d: the selector keeps %d scratch slots", n, step, k, len(sel.scratch))
			}
		}
		if grew < 2 || sampleMisses == 0 {
			t.Errorf("n=%d: %d scratch growths, %d sample misses; both miss paths must run", n, grew, sampleMisses)
		}
	}
}

// TestSelectorScratchWithinGather: at the paper CNN's dimension, across
// ratios from 4 to 210 in random order, a selector's scratch holds what its
// last select used — the sample and the keys the bracket gathered, as a
// select with a full scratch reports them — and at most four times that
// (or shrinkFloor), which is a few percent of v at every ratio.
func TestSelectorScratchWithinGather(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("431k selects; the race detector adds nothing to a serial select but time")
	}
	const n = 431080
	r := stats.NewRNG(8)
	v, full := make([]float64, n), make([]float64, n)
	var sel selector
	for step := 0; step < 40; step++ {
		bracketFamilies[0].gen(r, v) // gaussian
		ratio := 4 * math.Pow(210.0/4, r.Float64())
		k := KForRatio(n, ratio)
		_, _, used := selectThreshold(v, k, full)
		sel.selectTopK(v, k)
		if c := len(sel.scratch); c < used || c > max(4*used, shrinkFloor) || c > n/16 {
			t.Fatalf("step %d, ratio %.1f (k %d): scratch %d slots after a select that used %d", step, ratio, k, c, used)
		}
	}
}
