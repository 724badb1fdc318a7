package fl_test

import (
	"fmt"

	"adafl/internal/compress"
	"adafl/internal/fl"
)

// ExampleFedAvg shows weighted model averaging over two client updates.
func ExampleFedAvg() {
	global := []float64{0, 0}
	updates := []fl.Update{
		{Delta: compress.NewSparseDense([]float64{1, 0}), Weight: 0.75},
		{Delta: compress.NewSparseDense([]float64{0, 1}), Weight: 0.25},
	}
	fl.FedAvg{}.Apply(global, updates)
	fmt.Println(global)
	// Output: [0.75 0.25]
}

// ExampleFedAsync_StalenessWeight shows the polynomial staleness decay
// that down-weights updates trained on outdated global models.
func ExampleFedAsync_StalenessWeight() {
	f := fl.FedAsync{Alpha: 0.6, Decay: 0.5}
	for _, s := range []int{0, 3, 8} {
		fmt.Printf("staleness %d -> %.2f\n", s, f.StalenessWeight(s))
	}
	// Output:
	// staleness 0 -> 0.60
	// staleness 3 -> 0.30
	// staleness 8 -> 0.20
}
