package dataset_test

import (
	"fmt"

	"adafl/internal/dataset"
)

// ExamplePartitionShards shows the McMahan-style non-IID split: with two
// shards per client, most clients see only about two digit classes.
func ExamplePartitionShards() {
	ds := dataset.SynthMNIST(1000, 16, 7)
	parts := dataset.PartitionShards(ds, 5, 2, 7)
	for i, p := range parts {
		distinct := map[int]bool{}
		for _, l := range p.Labels {
			distinct[l] = true
		}
		fmt.Printf("client %d: %d samples, %d distinct classes\n", i, p.Len(), len(distinct))
	}
	// Output:
	// client 0: 200 samples, 4 distinct classes
	// client 1: 200 samples, 3 distinct classes
	// client 2: 200 samples, 3 distinct classes
	// client 3: 200 samples, 3 distinct classes
	// client 4: 200 samples, 3 distinct classes
}
