package grb

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// maxWorkers caps kernel parallelism; 0 means GOMAXPROCS. Settable for
// experiments via SetParallelism. Accessed atomically so kernels may run
// from concurrent goroutines while the knob is turned.
var maxWorkers atomic.Int64

// SetParallelism bounds the number of worker goroutines used by parallel
// kernels (0 restores the default of GOMAXPROCS). It returns the previous
// setting. Safe to call concurrently; operations already in flight keep
// the worker count they started with.
func SetParallelism(n int) int {
	return int(maxWorkers.Swap(int64(n)))
}

func workers() int {
	// An explicit SetParallelism is honored verbatim — even above
	// GOMAXPROCS — because the determinism tests deliberately pin the
	// worker count above 1 on single-CPU hosts to exercise the concurrent
	// paths. Oversubscription overhead on small operations is instead
	// avoided structurally by seqFallbackWork: sub-threshold work never
	// chunks, so it never spawns workers at any parallelism setting.
	if n := maxWorkers.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// parallelRanges splits [0,n) into at most workers() contiguous ranges of
// at least grain elements and runs fn on each concurrently. fn must be
// safe for concurrent invocation on disjoint ranges. Results are
// deterministic as long as fn's effects are confined to its range.
//
// Use this for uniform per-element cost; for skewed workloads (power-law
// row degrees) use parallelWorkObs, which balances estimated flops instead
// of element counts.
func parallelRanges(n, grain int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	w := workers()
	if grain < 1 {
		grain = 1
	}
	chunks := (n + grain - 1) / grain
	if chunks > w {
		chunks = w
	}
	if chunks <= 1 {
		fn(0, n)
		return
	}
	var wg sync.WaitGroup
	wg.Add(chunks)
	for c := 0; c < chunks; c++ {
		lo := c * n / chunks
		hi := (c + 1) * n / chunks
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// workChunks splits [0,n) into contiguous ranges holding roughly equal
// total weight (estimated flops), not equal element counts: on power-law
// inputs equal-count splitting leaves one worker with the hub rows and the
// rest idle. Boundaries are found on the weight prefix sum, so a single
// huge element ends up alone in its chunk and the remaining work spreads
// over the other chunks.
//
// At most maxChunks ranges are produced, and none is created at all (a
// single [0,n) range is returned) while the total weight is below quantum
// or below seqFallbackWork — the sequential-fallback threshold under which
// goroutine dispatch and chunk merging cost more than the work itself.
// The boundaries depend only on (weights, quantum, maxChunks) — never on
// the current worker count — so callers that fold chunk results in chunk
// order get bitwise-identical output at any parallelism level.
func workChunks(n int, weight func(k int) int, quantum, maxChunks int) []int {
	if n <= 0 {
		return []int{0, 0}
	}
	if maxChunks < 1 {
		maxChunks = 1
	}
	prefix := make([]int, n+1)
	for k := 0; k < n; k++ {
		w := weight(k)
		if w < 0 {
			w = 0
		}
		prefix[k+1] = prefix[k] + w
	}
	total := prefix[n]
	if quantum < 1 {
		quantum = 1
	}
	if total < seqFallbackWork {
		return []int{0, n}
	}
	nchunks := total / quantum
	if nchunks > maxChunks {
		nchunks = maxChunks
	}
	if nchunks > n {
		nchunks = n
	}
	if nchunks <= 1 {
		return []int{0, n}
	}
	bounds := make([]int, 1, nchunks+1)
	for c := 1; c < nchunks; c++ {
		target := total / nchunks * c
		// First index whose prefix exceeds the target.
		b := sort.Search(n, func(k int) bool { return prefix[k+1] > target })
		if b <= bounds[len(bounds)-1] {
			continue // a heavy element swallowed this boundary
		}
		bounds = append(bounds, b)
	}
	bounds = append(bounds, n)
	return bounds
}

// runChunks executes fn once per chunk of bounds, dynamically scheduled:
// workers pull the next chunk index from an atomic counter, so a worker
// that drew a light chunk immediately takes another while a worker stuck
// on a hub chunk keeps going. fn receives the chunk index and its range;
// it must confine its effects to per-chunk state or the range itself.
func runChunks(bounds []int, fn func(c, lo, hi int)) {
	nchunks := len(bounds) - 1
	if nchunks <= 0 {
		return
	}
	w := workers()
	if w > nchunks {
		w = nchunks
	}
	if w <= 1 {
		for c := 0; c < nchunks; c++ {
			fn(c, bounds[c], bounds[c+1])
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				c := int(next.Add(1)) - 1
				if c >= nchunks {
					return
				}
				fn(c, bounds[c], bounds[c+1])
			}
		}()
	}
	wg.Wait()
}

// seqFallbackWork is the estimated-flop total below which the partitioner
// refuses to create chunks at all, regardless of quantum: spawning workers
// for an operation this small costs more in goroutine dispatch and chunk
// merging than the operation itself (the source of the BENCH_1 small-op
// regressions). Serial execution of a sub-threshold op is also exactly the
// chunk-order fold of its would-be chunks, so results are unchanged.
const seqFallbackWork = 1 << 16

// workOversubscribe is how many chunks parallelWorkObs creates per worker.
// Finer chunks let the dynamic scheduler absorb estimation error (the
// weight function is an estimate, not a measurement) at the cost of a
// little scheduling overhead.
const workOversubscribe = 4

// kernelStats is the scheduler's contribution to an op record: how much
// estimated work the kernel carried and how it was partitioned. A nil
// *kernelStats means observation is disabled and must cost nothing; a
// non-nil one is filled from the same (weights, quantum, maxChunks)
// arguments the partitioner saw, so recording never changes chunk
// boundaries — and therefore never changes results (the chunk-order
// merges fix the reduction association).
type kernelStats struct {
	estFlops      int64 // total estimated weight across all chunks
	chunks        int   // number of chunks the partitioner produced
	maxChunkFlops int64 // heaviest chunk's estimated weight
}

// fill computes per-chunk weight sums for bounds. It re-walks the weight
// function (an extra O(n) on the traced path only) rather than threading
// state through workChunks, keeping the untraced partitioner untouched.
func (st *kernelStats) fill(bounds []int, weight func(k int) int) {
	st.chunks += len(bounds) - 1
	for c := 0; c < len(bounds)-1; c++ {
		var sum int64
		for k := bounds[c]; k < bounds[c+1]; k++ {
			w := weight(k)
			if w < 0 {
				w = 0 // mirror workChunks's clamp
			}
			sum += int64(w)
		}
		st.estFlops += sum
		if sum > st.maxChunkFlops {
			st.maxChunkFlops = sum
		}
	}
}

// parallelWorkObs runs fn over [0,n) split at equal-weight boundaries and
// dynamically scheduled: the flop-balanced counterpart of parallelRanges.
// quantum is the minimum total weight worth spinning up goroutines for.
// fn must be safe for concurrent invocation on disjoint ranges. A non-nil
// st is filled from the partition that runs; a nil one costs nothing.
func parallelWorkObs(n, quantum int, weight func(k int) int, st *kernelStats, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	var bounds []int
	if w := workers(); w > 1 {
		bounds = workChunks(n, weight, quantum, w*workOversubscribe)
	}
	if len(bounds) <= 2 {
		if st != nil {
			st.fill([]int{0, n}, weight)
		}
		fn(0, n)
		return
	}
	if st != nil {
		st.fill(bounds, weight)
	}
	runChunks(bounds, func(_, lo, hi int) { fn(lo, hi) })
}

// parallelSortThreshold is the slice length below which parallelSortPerm
// sorts serially; goroutine and merge overhead dominate under it.
const parallelSortThreshold = 1 << 13

// parallelSortPerm sorts perm by less, which must define a strict total
// order (callers break ties on the original index, which also makes the
// sort stable). Large slices are chunk-sorted concurrently and k-way
// merged; the result is identical to a serial sort at any parallelism.
func parallelSortPerm(perm []int, less func(a, b int) bool) {
	n := len(perm)
	w := workers()
	if n < parallelSortThreshold || w <= 1 {
		sort.Slice(perm, func(u, v int) bool { return less(perm[u], perm[v]) })
		return
	}
	nchunks := w
	if nchunks > n {
		nchunks = n
	}
	bounds := make([]int, nchunks+1)
	for c := 0; c <= nchunks; c++ {
		bounds[c] = c * n / nchunks
	}
	runChunks(bounds, func(_, lo, hi int) {
		s := perm[lo:hi]
		sort.Slice(s, func(u, v int) bool { return less(s[u], s[v]) })
	})
	// K-way merge of the sorted chunks. Ties cannot occur (total order),
	// so merge output is unique regardless of chunking.
	heads := make([]int, nchunks)
	for c := range heads {
		heads[c] = bounds[c]
	}
	out := make([]int, 0, n)
	for len(out) < n {
		best := -1
		for c := 0; c < nchunks; c++ {
			if heads[c] == bounds[c+1] {
				continue
			}
			if best < 0 || less(perm[heads[c]], perm[heads[best]]) {
				best = c
			}
		}
		out = append(out, perm[heads[best]])
		heads[best]++
	}
	copy(perm, out)
}

// rowSlices is the per-row staging area used by parallel kernels: each row
// is computed independently into its own slice pair, then stitched into a
// compressed structure. Stitching preserves row order, so parallel results
// are identical to sequential ones.
type rowSlices[T any] struct {
	idx [][]int
	val [][]T
}

func newRowSlices[T any](n int) *rowSlices[T] {
	return &rowSlices[T]{idx: make([][]int, n), val: make([][]T, n)}
}

// stitch assembles the staged rows into a cs. rows maps staging slot to
// major index (nil means slot k is major index k, i.e. standard layout).
func (r *rowSlices[T]) stitch(nmajor, nminor int, rows []int) *cs[T] {
	total := 0
	for _, s := range r.idx {
		total += len(s)
	}
	ni := make([]int, 0, total)
	nx := make([]T, 0, total)
	if rows == nil {
		p := make([]int, len(r.idx)+1)
		for k := range r.idx {
			ni = append(ni, r.idx[k]...)
			nx = append(nx, r.val[k]...)
			p[k+1] = len(ni)
		}
		return &cs[T]{nmajor: nmajor, nminor: nminor, p: p, i: ni, x: nx}
	}
	h := make([]int, 0, len(rows))
	p := make([]int, 1, len(rows)+1)
	for k := range r.idx {
		if len(r.idx[k]) == 0 {
			continue
		}
		ni = append(ni, r.idx[k]...)
		nx = append(nx, r.val[k]...)
		h = append(h, rows[k])
		p = append(p, len(ni))
	}
	return &cs[T]{nmajor: nmajor, nminor: nminor, p: p, h: h, i: ni, x: nx}
}
