package tensor

import (
	"fmt"
	"math"
	"testing"

	"adafl/internal/stats"
)

// dot is the inner product of a and b in index order.
func dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("dot: length mismatch")
	}
	sum := 0.0
	for i, v := range a {
		sum += v * b[i]
	}
	return sum
}

// threePassCosine is the dense cosine as Norm2, Norm2 and dot, one pass
// each, the way it was written before the sums shared a loop.
func threePassCosine(a, b []float64) float64 {
	na, nb := Norm2(a), Norm2(b)
	if na == 0 || nb == 0 {
		return 0
	}
	c := dot(a, b) / (na * nb)
	if c > 1 {
		c = 1
	} else if c < -1 {
		c = -1
	}
	return c
}

// cosinePairs returns vector pairs of length n: random, parallel,
// opposed, subnormal-only, zero on one side, and random with special
// values (±0, NaN, ±Inf, subnormals, squares that overflow) put in.
func cosinePairs(n int, seed uint64) map[string][2][]float64 {
	r := stats.NewRNG(seed)
	gauss := func(scale float64) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = scale * r.Norm()
		}
		return v
	}
	a, b := gauss(1), gauss(0.01)
	scaled, opposed := make([]float64, n), make([]float64, n)
	for i, x := range a {
		scaled[i] = 3 * x
		opposed[i] = -x
	}
	zeros := make([]float64, n)
	for i := range zeros {
		if i%2 == 1 {
			zeros[i] = math.Copysign(0, -1)
		}
	}
	specials := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		5e-324, -2.2e-308, 1e200, -1e-160}
	sprinkle := func(v []float64) []float64 {
		v = CopyVec(v)
		for i := 0; i < len(v)/4+1 && len(v) > 0; i++ {
			v[r.Intn(len(v))] = specials[r.Intn(len(specials))]
		}
		return v
	}
	pairs := map[string][2][]float64{
		"random":     {a, b},
		"parallel":   {a, scaled},
		"opposed":    {a, opposed},
		"subnormal":  {gauss(1e-310), gauss(1e-312)},
		"zero left":  {zeros, b},
		"zero right": {a, zeros},
		"specials":   {sprinkle(a), sprinkle(b)},
	}
	for _, s := range specials {
		v := CopyVec(a)
		if n > 0 {
			v[n/2] = s
		}
		pairs[fmt.Sprintf("one %g", s)] = [2][]float64{v, b}
	}
	return pairs
}

func TestCosineSimilarityMatchesThreePass(t *testing.T) {
	var lengths []int
	for n := 0; n <= 33; n++ {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 8554, 431080)
	for _, n := range lengths {
		for name, p := range cosinePairs(n, uint64(n)+1) {
			got, want := CosineSimilarityAt(DeltaOf(p[0]), nil, p[1]), threePassCosine(p[0], p[1])
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("n=%d %s: %v (bits %#x), three passes %v (bits %#x)",
					n, name, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}

	// Lengths that differ: a zero side has no direction, so there is
	// nothing to compare and the answer is 0, as for a client scored
	// against an empty reference vector. Two nonzero sides are a bug.
	nonzero := []float64{1, 2, 3}
	for _, p := range [][2][]float64{
		{nonzero, nil},
		{nil, nonzero},
		{[]float64{0, math.Copysign(0, -1)}, nonzero},
		{nonzero, []float64{0, 0, 0, 0}},
	} {
		if c := CosineSimilarityAt(DeltaOf(p[0]), nil, p[1]); c != 0 {
			t.Fatalf("CosineSimilarityAt(%v, nil, %v) = %v, want 0", p[0], p[1], c)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch between two nonzero vectors did not panic")
		}
	}()
	CosineSimilarityAt(DeltaOf(nonzero), nil, []float64{1, 2})
}

var cosineSink float64

// BenchmarkCosineSimilarity times one utility-score similarity at the
// simulator's MLP size and at the paper CNN's.
func BenchmarkCosineSimilarity(b *testing.B) {
	for _, n := range []int{8554, 431080} {
		p := cosinePairs(n, 7)["random"]
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			b.SetBytes(int64(16 * n))
			for i := 0; i < b.N; i++ {
				cosineSink = CosineSimilarityAt(DeltaOf(p[0]), nil, p[1])
			}
		})
	}
}

// TestCosineSimilarityAtMatchesScattered: the cosine against a b given by
// its support equals the one against the scattered b bit for bit —
// for an empty support, one coordinate, every coordinate, the first and
// the last, values at the support that an exact score must keep (−0,
// NaN payloads, ±Inf, subnormals), and a holding ±Inf and NaN off the
// support, where x·(+0) is NaN and the dense sums would show it.
func TestCosineSimilarityAtMatchesScattered(t *testing.T) {
	r := stats.NewRNG(17)
	const n = 1000
	odd := []float64{math.Copysign(0, -1), math.Float64frombits(0x7ff8000000000abc), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -1e-310, 1e300}
	supports := map[string][]int32{"empty": {}, "one": {417}, "ends": {0, n - 1}, "every": nil, "scattered": nil}
	for i := int32(0); i < n; i++ {
		supports["every"] = append(supports["every"], i)
		if i%7 == 3 {
			supports["scattered"] = append(supports["scattered"], i)
		}
	}
	for _, offSupport := range []float64{1, math.Inf(1), math.Inf(-1), math.Float64frombits(0xfff4000012345678)} {
		for name, idx := range supports {
			a := make([]float64, n)
			for i := range a {
				a[i] = r.Norm()
			}
			a[500] = offSupport // off every support but "every"
			vals := make([]float64, len(idx))
			b := make([]float64, n)
			for j, i := range idx {
				vals[j] = r.Norm()
				if j < len(odd) && name == "scattered" {
					vals[j] = odd[j]
				}
				b[i] = vals[j]
			}
			got, want := CosineSimilarityAt(DeltaOf(a), idx, vals), CosineSimilarityAt(DeltaOf(a), nil, b)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s, a[500] = %v: support form %v (%x), scattered %v (%x)", name, offSupport,
					got, math.Float64bits(got), want, math.Float64bits(want))
			}
			aa, bb, ab := SupportSums(DeltaOf(a), idx, vals)
			da, db, dab := SupportSums(DeltaOf(a), nil, b)
			sd, dd := ScaledDistanceAt(DeltaOf(a), idx, vals, 0.3, 1.7), ScaledDistanceAt(DeltaOf(a), nil, b, 0.3, 1.7)
			for k, p := range [][2]float64{{aa, da}, {bb, db}, {ab, dab}, {sd, dd}} {
				if math.Float64bits(p[0]) != math.Float64bits(p[1]) {
					t.Fatalf("%s, a[500] = %v: sum %d: support form %x, scattered %x", name, offSupport, k,
						math.Float64bits(p[0]), math.Float64bits(p[1]))
				}
			}
		}
	}
}

// TestDeltaOf32ReadsTheDifference: every kernel that takes a Delta gives
// the same bits on the float32 pair p, g as on the float64 vector p − g
// it stands for, at every dispatch level, over lengths on both sides of a
// chunk, with a dense ĝ, a scattered support and an empty one, and with a
// NaN in the pair (a diverged model), which reaches the fallback sums.
func TestDeltaOf32ReadsTheDifference(t *testing.T) {
	r := stats.NewRNG(23)
	forEachLevel(t, func(level string) {
		for _, n := range []int{0, 1, 7, DeltaChunk - 1, DeltaChunk, 3*DeltaChunk + 5} {
			for _, poison := range []bool{false, true} {
				p, g := make([]float32, n), make([]float32, n)
				want := make([]float64, n)
				for i := range p {
					g[i] = float32(r.Norm())
					p[i] = g[i] + float32(r.Norm()*1e-3)
					if poison && i == n/2 {
						p[i] = float32(math.NaN())
					}
					want[i] = float64(p[i]) - float64(g[i])
				}
				d, ref := DeltaOf32(p, g), DeltaOf(want)
				if err := sameVec(d.Fill(nil), want); err != nil || d.Len() != n {
					t.Fatalf("%s n=%d: Fill %v, Len %d", level, n, err, d.Len())
				}
				var idx []int32
				for i := 0; i < n; i += 1 + r.Intn(9) {
					idx = append(idx, int32(i))
				}
				b, vals := make([]float64, n), make([]float64, len(idx))
				for j, i := range idx {
					vals[j] = r.Norm()
					b[i] = vals[j]
				}
				for name, f := range map[string]func(Delta) []float64{
					"norm": func(x Delta) []float64 { return []float64{x.Norm2()} },
					"dense": func(x Delta) []float64 {
						aa, bb, ab := SupportSums(x, nil, b)
						return []float64{aa, bb, ab, CosineSimilarityAt(x, nil, b), ScaledDistanceAt(x, nil, b, 0.3, 1.7)}
					},
					"support": func(x Delta) []float64 {
						aa, bb, ab := SupportSums(x, idx, vals)
						return []float64{aa, bb, ab, CosineSimilarityAt(x, idx, vals), ScaledDistanceAt(x, idx, vals, 0.3, 1.7)}
					},
					"empty": func(x Delta) []float64 {
						return []float64{CosineSimilarityAt(x, []int32{}, nil), CosineSimilarityAt(x, nil, nil)}
					},
				} {
					if err := sameVec(f(d), f(ref)); err != nil {
						t.Fatalf("%s n=%d poison=%v %s: %v", level, n, poison, name, err)
					}
				}
			}
		}
	})
}

// sameVec reports the first element at which a and b differ in bits.
func sameVec(a, b []float64) error {
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
