package main

import (
	"math/rand"
	"strings"

	"lagraph/internal/gen"
	"lagraph/internal/mmio"
	"lagraph/internal/svc"
)

// batchSize is the tuple count of every ingested edge batch.
const batchSize = 64

// inputs is everything a run sends to the service, derived from the seed
// alone: the same seed gives byte-identical uploads, batches and sources.
type inputs struct {
	seed int64
	n    int
	// mmio is the graph as Matrix Market text, uploaded inline.
	mmio string
	// sources are bfs/sssp sources in the largest component.
	sources []int
}

// makeInputs generates the RMAT graph (undirected, weights in [1,10)) and
// the query sources.
func makeInputs(seed int64, scale, edgeFactor int) (*inputs, error) {
	el := gen.RMAT(scale, edgeFactor, gen.Config{
		Seed: seed, Undirected: true, NoSelfLoops: true, MinWeight: 1, MaxWeight: 10,
	})
	var sb strings.Builder
	if err := mmio.WriteMatrix(&sb, el.Matrix()); err != nil {
		return nil, err
	}
	// Sources are drawn from the largest connected component, so every
	// bfs/sssp traverses most of the graph and the cost of a query does
	// not hinge on whether its source landed in a tiny component.
	parent := make([]int, el.N)
	for v := range parent {
		parent[v] = v
	}
	find := func(v int) int {
		for parent[v] != v {
			parent[v] = parent[parent[v]]
			v = parent[v]
		}
		return v
	}
	for k := range el.Src {
		parent[find(el.Src[k])] = find(el.Dst[k])
	}
	size := make([]int, el.N)
	giant := 0
	for v := range parent {
		r := find(v)
		if size[r]++; size[r] > size[giant] {
			giant = r
		}
	}
	var live []int
	for v := range parent {
		if find(v) == giant {
			live = append(live, v)
		}
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	srcs := make([]int, 64)
	for i := range srcs {
		srcs[i] = live[rng.Intn(len(live))]
	}
	return &inputs{seed: seed, n: el.N, mmio: sb.String(), sources: srcs}, nil
}

// batch returns insert batch k: batchSize distinct-endpoint upserts whose
// content depends only on (seed, k), so a replayed journal and a fresh
// run see the same tuples.
func (in *inputs) batch(k int) []svc.EdgeTuple {
	rng := rand.New(rand.NewSource(in.seed*1_000_003 + int64(k)))
	out := make([]svc.EdgeTuple, 0, batchSize)
	for len(out) < batchSize {
		u, v := rng.Intn(in.n), rng.Intn(in.n)
		if u == v {
			continue
		}
		w := 1 + 9*rng.Float64()
		out = append(out, svc.EdgeTuple{Src: u, Dst: v, Weight: &w})
	}
	return out
}
