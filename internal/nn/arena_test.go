package nn

import (
	"fmt"
	"testing"

	"adafl/internal/stats"
	"adafl/internal/tensor"
)

// cachedViews returns the views of a parameter tensor a layer keeps, each
// beside the tensor it views.
func cachedViews(l Layer) [][2]*tensor.Tensor {
	switch l := l.(type) {
	case *Conv2D:
		return [][2]*tensor.Tensor{{l.wView, l.W}}
	case *ResidualBlock:
		return append(cachedViews(l.conv1), cachedViews(l.conv2)...)
	}
	return nil
}

// checkArena reports the first parameter tensor, or cached view of one,
// that is not a view of m's arena at its place in ParamVector's order.
func checkArena(m *Model) error {
	arena, off := m.Params32(), 0
	for li, l := range m.Layers {
		for pi, p := range l.Params() {
			n := len(p.Data)
			if n == 0 || off+n > len(arena) || &p.Data[0] != &arena[off] || cap(p.Data) != n {
				return fmt.Errorf("layer %d (%s) param %d: %d values (cap %d) not at arena offset %d of %d",
					li, l.Name(), pi, n, cap(p.Data), off, len(arena))
			}
			off += n
		}
		for vi, v := range cachedViews(l) {
			if v[0] == nil || len(v[0].Data) != len(v[1].Data) || &v[0].Data[0] != &v[1].Data[0] {
				return fmt.Errorf("layer %d (%s): cached view %d is stale", li, l.Name(), vi)
			}
		}
	}
	if off != len(arena) || m.NumParams() != len(arena) {
		return fmt.Errorf("layers hold %d params, arena %d, NumParams %d", off, len(arena), m.NumParams())
	}
	return nil
}

// TestParamsAliasArena pins the arena against stale views: in every zoo
// model, every parameter tensor and every view a layer caches of one is a
// view of the model's arena, at its place in ParamVector's order — after
// construction, after SetParams32 and after an SGD step — and what the
// arena holds is what the layers compute with: a model loaded through
// SetParams32 and a twin built from the same seed and stepped alike end
// with the same bits.
func TestParamsAliasArena(t *testing.T) {
	zoo := map[string]func() *Model{
		"PaperCNN":   func() *Model { return NewPaperCNN(stats.NewRNG(1)) },
		"ImageMLP":   func() *Model { return NewImageMLP([]int{1, 12, 12}, []int{32}, 10, stats.NewRNG(1)) },
		"ResNetLite": func() *Model { return NewResNetLite(3, 8, 10, stats.NewRNG(1)) },
		"VGGLite":    func() *Model { return NewVGGLite(3, 8, 10, stats.NewRNG(1)) },
	}
	for name, build := range zoo {
		t.Run(name, func(t *testing.T) {
			m, twin := build(), build()
			if err := checkArena(m); err != nil {
				t.Fatalf("after construction: %v", err)
			}
			r := stats.NewRNG(2)
			global := make([]float32, m.NumParams())
			for i := range global {
				global[i] = float32(0.05 * r.Norm())
			}
			m.SetParams32(global)
			if err := checkArena(m); err != nil {
				t.Fatalf("after SetParams32: %v", err)
			}
			wide := make([]float64, len(global))
			for i, x := range global {
				wide[i] = float64(x)
			}
			twin.SetParamVector(wide)
			shape := append([]int{4}, m.InputShape...)
			x := tensor.New(shape...)
			x.RandNorm(r, 1)
			labels := []int{0, 3, 7, 9}
			for _, model := range []*Model{m, twin} {
				opt := NewSGD(0.05, 0.9, 0)
				for step := 0; step < 2; step++ {
					model.ZeroGrads()
					model.TrainBatch(x, labels)
					opt.Step(model)
				}
			}
			if err := checkArena(m); err != nil {
				t.Fatalf("after SGD steps: %v", err)
			}
			got, want := m.ParamVector(), twin.ParamVector()
			for i := range got {
				if got[i] != want[i] || got[i] != float64(m.Params32()[i]) {
					t.Fatalf("param %d: %v, twin %v, arena %v", i, got[i], want[i], m.Params32()[i])
				}
			}
			if got[0] == float64(global[0]) && got[len(got)-1] == float64(global[len(global)-1]) {
				t.Fatal("the SGD steps moved neither end of the arena")
			}
		})
	}
}
