// Package dataset provides synthetic image-classification tasks standing in
// for MNIST and CIFAR (the module is fully offline), plus the IID and
// non-IID client partitioners the paper's experiments use.
//
// The generators are procedural and seeded: SynthMNIST renders noisy
// seven-segment digit glyphs, SynthCIFAR composes class-specific oriented
// colour textures. Both yield tasks on which the nn models' accuracy climbs
// with training, which is the property the FL experiments need.
package dataset

import (
	"fmt"

	"adafl/internal/stats"
	"adafl/internal/tensor"
)

// Dataset is a labelled batch of samples with a common per-sample shape.
type Dataset struct {
	// X has shape (N, shape...), e.g. (N, 1, 28, 28).
	X *tensor.Tensor
	// Labels holds the class index of each sample.
	Labels []int
	// Classes is the number of distinct classes.
	Classes int
	// Shape is the per-sample input shape.
	Shape []int
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.Labels) }

// sampleSize returns the flat element count of one sample.
func (d *Dataset) sampleSize() int {
	n := 1
	for _, s := range d.Shape {
		n *= s
	}
	return n
}

// Sample returns a copy-free view of sample i as a flat slice.
func (d *Dataset) Sample(i int) []float64 {
	ss := d.sampleSize()
	return d.X.Data[i*ss : (i+1)*ss]
}

// Subset gathers the given sample indices into a new dataset (copying).
func (d *Dataset) Subset(indices []int) *Dataset {
	ss := d.sampleSize()
	// An empty subset keeps a 1-row backing tensor (tensor shapes must be
	// positive) with zero labels; Len() correctly reports 0.
	rows := max(len(indices), 1)
	out := &Dataset{
		X:       tensor.New(append([]int{rows}, d.Shape...)...),
		Labels:  make([]int, len(indices)),
		Classes: d.Classes,
		Shape:   append([]int(nil), d.Shape...),
	}
	for j, idx := range indices {
		copy(out.X.Data[j*ss:(j+1)*ss], d.Sample(idx))
		out.Labels[j] = d.Labels[idx]
	}
	return out
}

// Split divides the dataset into a training set with trainFrac of the
// samples and a test set with the remainder, after a seeded shuffle.
func (d *Dataset) Split(trainFrac float64, seed uint64) (train, test *Dataset) {
	if trainFrac <= 0 || trainFrac >= 1 {
		panic(fmt.Sprintf("dataset: trainFrac %v out of (0,1)", trainFrac))
	}
	perm := stats.NewRNG(seed).Perm(d.Len())
	cut := int(float64(d.Len()) * trainFrac)
	return d.Subset(perm[:cut]), d.Subset(perm[cut:])
}

// Batch copies samples [start, end) into a tensor + label slice suitable
// for Model.TrainBatch.
func (d *Dataset) Batch(indices []int) (*tensor.Tensor, []int) {
	ss := d.sampleSize()
	x := tensor.New(append([]int{len(indices)}, d.Shape...)...)
	labels := make([]int, len(indices))
	for j, idx := range indices {
		copy(x.Data[j*ss:(j+1)*ss], d.Sample(idx))
		labels[j] = d.Labels[idx]
	}
	return x, labels
}

// Iterator yields shuffled mini-batches, reshuffling every epoch.
type Iterator struct {
	ds        *Dataset
	batchSize int
	rng       *stats.RNG
	perm      []int
	pos       int
}

// NewIterator returns a batch iterator over ds with the given batch size.
func NewIterator(ds *Dataset, batchSize int, rng *stats.RNG) *Iterator {
	if batchSize <= 0 {
		panic("dataset: non-positive batch size")
	}
	it := &Iterator{ds: ds, batchSize: batchSize, rng: rng}
	it.reshuffle()
	return it
}

func (it *Iterator) reshuffle() {
	it.perm = it.rng.Perm(it.ds.Len())
	it.pos = 0
}

// Next returns the next mini-batch, wrapping (and reshuffling) at the end
// of the epoch. The final batch of an epoch may be smaller than batchSize.
func (it *Iterator) Next() (*tensor.Tensor, []int) {
	if it.ds.Len() == 0 {
		panic("dataset: iterating empty dataset")
	}
	if it.pos >= len(it.perm) {
		it.reshuffle()
	}
	end := min(it.pos+it.batchSize, len(it.perm))
	batch := it.perm[it.pos:end]
	it.pos = end
	return it.ds.Batch(batch)
}
