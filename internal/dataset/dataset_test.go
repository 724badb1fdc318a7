package dataset

import (
	"testing"
	"testing/quick"

	"adafl/internal/nn"
	"adafl/internal/stats"
)

func TestSynthMNISTBasics(t *testing.T) {
	ds := SynthMNIST(200, 28, 1)
	if ds.Len() != 200 || ds.Classes != 10 {
		t.Fatalf("unexpected dataset: len=%d classes=%d", ds.Len(), ds.Classes)
	}
	counts := make([]int, ds.Classes)
	for _, l := range ds.Labels {
		counts[l]++
	}
	for cls, c := range counts {
		if c == 0 {
			t.Errorf("class %d absent from 200 samples", cls)
		}
	}
	// Pixels should be roughly in a sane range (noise can exceed [0,1]).
	for _, v := range ds.X.Data[:28*28] {
		if v < -2 || v > 3 {
			t.Fatalf("wild pixel value %v", v)
		}
	}
}

func TestSynthMNISTDeterministic(t *testing.T) {
	a := SynthMNIST(50, 16, 7)
	b := SynthMNIST(50, 16, 7)
	for i := range a.X.Data {
		if a.X.Data[i] != b.X.Data[i] {
			t.Fatal("same seed produced different data")
		}
	}
	c := SynthMNIST(50, 16, 8)
	diff := false
	for i := range a.X.Data {
		if a.X.Data[i] != c.X.Data[i] {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical data")
	}
}

func TestSynthCIFARBasics(t *testing.T) {
	ds := SynthCIFAR(100, 16, 20, 3)
	if ds.Len() != 100 || ds.Classes != 20 {
		t.Fatalf("unexpected dataset: len=%d classes=%d", ds.Len(), ds.Classes)
	}
	if ds.Shape[0] != 3 || ds.Shape[1] != 16 {
		t.Fatalf("unexpected shape %v", ds.Shape)
	}
}

func TestSynthMNISTLearnable(t *testing.T) {
	// The defining property of the substitution: a small model must be able
	// to learn the task well above chance within a few epochs.
	ds := SynthMNIST(600, 16, 11)
	train, test := ds.Split(0.8, 1)
	r := stats.NewRNG(2)
	m := nn.NewImageMLP([]int{16 * 16}, []int{64}, 10, r)
	opt := nn.NewSGD(0.1, 0.9, 0)
	it := NewIterator(train, 32, stats.NewRNG(3))
	steps := 8 * train.Len() / 32
	for s := 0; s < steps; s++ {
		x, labels := it.Next()
		x = x.Reshape(x.Dim(0), 16*16)
		m.ZeroGrads()
		m.TrainBatch(x, labels)
		opt.Step(m)
	}
	flatTest := test.X.Reshape(test.Len(), 16*16)
	acc, _ := m.EvaluateBatched(flatTest, test.Labels, 64)
	if acc < 0.6 {
		t.Fatalf("SynthMNIST not learnable: accuracy %.3f after %d steps", acc, steps)
	}
}

func TestSynthCIFARLearnable(t *testing.T) {
	ds := SynthCIFAR(600, 12, 8, 13)
	train, test := ds.Split(0.8, 1)
	r := stats.NewRNG(4)
	m := nn.NewImageMLP([]int{3 * 12 * 12}, []int{64}, 8, r)
	opt := nn.NewSGD(0.05, 0.9, 0)
	it := NewIterator(train, 32, stats.NewRNG(5))
	steps := 10 * train.Len() / 32
	for s := 0; s < steps; s++ {
		x, labels := it.Next()
		x = x.Reshape(x.Dim(0), 3*12*12)
		m.ZeroGrads()
		m.TrainBatch(x, labels)
		opt.Step(m)
	}
	flatTest := test.X.Reshape(test.Len(), 3*12*12)
	acc, _ := m.EvaluateBatched(flatTest, test.Labels, 64)
	if acc < 0.5 {
		t.Fatalf("SynthCIFAR not learnable: accuracy %.3f (chance 0.125)", acc)
	}
}

func TestSubsetCopiesData(t *testing.T) {
	ds := SynthMNIST(10, 16, 1)
	sub := ds.Subset([]int{0, 1})
	sub.X.Data[0] = 99
	if ds.X.Data[0] == 99 {
		t.Fatal("Subset aliases parent data")
	}
	if sub.Len() != 2 || sub.Labels[1] != ds.Labels[1] {
		t.Fatal("Subset wrong contents")
	}
}

func TestSubsetEmpty(t *testing.T) {
	ds := SynthMNIST(10, 16, 1)
	sub := ds.Subset(nil)
	if sub.Len() != 0 {
		t.Fatalf("empty subset has length %d", sub.Len())
	}
}

func TestSplitPartitionsAllSamples(t *testing.T) {
	ds := SynthMNIST(100, 16, 2)
	train, test := ds.Split(0.7, 9)
	if train.Len() != 70 || test.Len() != 30 {
		t.Fatalf("split sizes %d/%d", train.Len(), test.Len())
	}
}

func TestBatchContents(t *testing.T) {
	ds := SynthMNIST(10, 16, 3)
	x, labels := ds.Batch([]int{3, 7})
	if x.Dim(0) != 2 || len(labels) != 2 {
		t.Fatal("batch wrong size")
	}
	if labels[0] != ds.Labels[3] || labels[1] != ds.Labels[7] {
		t.Fatal("batch labels wrong")
	}
	for i, v := range ds.Sample(3) {
		if x.Data[i] != v {
			t.Fatal("batch data wrong")
		}
	}
}

func TestIteratorCoversEpoch(t *testing.T) {
	ds := SynthMNIST(10, 16, 4)
	it := NewIterator(ds, 3, stats.NewRNG(1))
	seen := 0
	for i := 0; i < 4; i++ { // 3+3+3+1 covers one epoch
		_, labels := it.Next()
		seen += len(labels)
	}
	if seen != 10 {
		t.Fatalf("epoch covered %d samples, want 10", seen)
	}
}

func TestPartitionIIDSizesAndCoverage(t *testing.T) {
	ds := SynthMNIST(100, 16, 5)
	parts := PartitionIID(ds, 7, 1)
	total := 0
	for _, p := range parts {
		total += p.Len()
		if p.Len() < 100/7 || p.Len() > 100/7+1 {
			t.Errorf("uneven IID part size %d", p.Len())
		}
	}
	if total != 100 {
		t.Fatalf("IID partition covers %d samples", total)
	}
}

func TestPartitionShardsLabelSkew(t *testing.T) {
	ds := SynthMNIST(1000, 16, 6)
	distinct := func(p *Dataset) int {
		seen := map[int]bool{}
		for _, l := range p.Labels {
			seen[l] = true
		}
		return len(seen)
	}
	// An IID client of 100 samples sees nearly every label; each 2-shard
	// client should hold at most ~3.
	for _, p := range PartitionIID(ds, 10, 1) {
		if d := distinct(p); d < 8 {
			t.Errorf("IID client has only %d distinct labels", d)
		}
	}
	for _, p := range PartitionShards(ds, 10, 2, 1) {
		if d := distinct(p); d > 4 {
			t.Errorf("shard client has %d distinct labels", d)
		}
	}
}

func TestPartitionPropertyNoSampleLost(t *testing.T) {
	f := func(seed uint64, clientsRaw uint8) bool {
		clients := int(clientsRaw%9) + 2
		ds := SynthMNIST(120, 16, seed)
		for _, parts := range [][]*Dataset{
			PartitionIID(ds, clients, seed),
			PartitionShards(ds, clients, 2, seed),
		} {
			total := 0
			for _, p := range parts {
				total += p.Len()
			}
			if total != ds.Len() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
