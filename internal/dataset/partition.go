package dataset

import (
	"fmt"
	"sort"

	"adafl/internal/stats"
)

// PartitionIID shuffles the dataset and splits it into numClients shards of
// (nearly) equal size, so every client's label distribution matches the
// global one in expectation.
func PartitionIID(ds *Dataset, numClients int, seed uint64) []*Dataset {
	if numClients <= 0 {
		panic("dataset: non-positive client count")
	}
	perm := stats.NewRNG(seed).Perm(ds.Len())
	out := make([]*Dataset, numClients)
	for c := 0; c < numClients; c++ {
		lo := c * ds.Len() / numClients
		hi := (c + 1) * ds.Len() / numClients
		out[c] = ds.Subset(perm[lo:hi])
	}
	return out
}

// PartitionShards implements the McMahan et al. non-IID split: samples are
// sorted by label, cut into numClients*shardsPerClient contiguous shards,
// and each client receives shardsPerClient random shards. With
// shardsPerClient=2 most clients see only ~2 classes.
func PartitionShards(ds *Dataset, numClients, shardsPerClient int, seed uint64) []*Dataset {
	if numClients <= 0 || shardsPerClient <= 0 {
		panic("dataset: invalid shard partition parameters")
	}
	totalShards := numClients * shardsPerClient
	if ds.Len() < totalShards {
		panic(fmt.Sprintf("dataset: %d samples cannot form %d shards", ds.Len(), totalShards))
	}
	// Sort indices by label (stable on original order for determinism).
	byLabel := make([]int, ds.Len())
	for i := range byLabel {
		byLabel[i] = i
	}
	sort.SliceStable(byLabel, func(a, b int) bool { return ds.Labels[byLabel[a]] < ds.Labels[byLabel[b]] })

	shardPerm := stats.NewRNG(seed).Perm(totalShards)
	out := make([]*Dataset, numClients)
	for c := 0; c < numClients; c++ {
		var indices []int
		for s := 0; s < shardsPerClient; s++ {
			shard := shardPerm[c*shardsPerClient+s]
			lo := shard * ds.Len() / totalShards
			hi := (shard + 1) * ds.Len() / totalShards
			indices = append(indices, byLabel[lo:hi]...)
		}
		out[c] = ds.Subset(indices)
	}
	return out
}
