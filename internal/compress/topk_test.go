package compress

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"testing"

	"adafl/internal/stats"
)

// topKThreshold is the magnitude of the k-th largest |v|, as the
// threshold tests read it.
func topKThreshold(v []float64, k int, scratch []float64) float64 {
	thr, _ := selectThreshold(v, k, scratch)
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
// order. It shares no code with SelectTopKScratch.
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

// BenchmarkSelectThreshold431k sets the histogram select beside the
// quickselect over all n it replaced, threshold only, at the paper CNN's
// dimension and the two ends of AdaFL's ratio range.
func BenchmarkSelectThreshold431k(b *testing.B) {
	const n = 431080
	r := stats.NewRNG(4)
	v := make([]float64, n)
	for i := range v {
		v[i] = 0.01 * r.Norm()
	}
	for _, ratio := range []float64{210, 4} {
		k := KForRatio(n, ratio)
		b.Run(fmt.Sprintf("histogram/r%v", ratio), func(b *testing.B) {
			scratch := make([]float64, n)
			for i := 0; i < b.N; i++ {
				selectThreshold(v, k, scratch)
			}
		})
		b.Run(fmt.Sprintf("quickselect-all/r%v", ratio), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				quickselectThreshold(v, k)
			}
		})
	}
}
