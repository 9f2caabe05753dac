// Package obs is the observability layer for the GraphBLAS substrate and
// the algorithm collection: a single process-wide Observer receives one
// OpRecord per kernel-level operation (mxm, vxm, mxv, pending-tuple
// assembly) and one IterRecord per algorithm iteration (BFS, SSSP,
// PageRank, ...). The records expose the runtime decisions the library
// otherwise makes silently — which mxm kernel was selected, whether a
// traversal stepped push or pull, how much estimated work each operation
// carried and how evenly it split across chunks.
//
// # Zero-cost contract
//
// Observation is off by default and the disabled path must be free: grb
// operations perform exactly one atomic pointer load (Active) and a nil
// check, no allocations, no stat recording. The AllocsPerRun tests in
// internal/grb enforce this. Enabling an observer may allocate and may
// read the clock, but must never change results: record emission happens
// strictly after the kernel's output is computed, and traced runs are
// bitwise identical to untraced runs (enforced by determinism tests at
// P=1 and P=8 under -race).
//
// # Clock seam
//
// grblint's kernel-purity check bans the time package inside internal/grb
// — kernels must be deterministic functions of their operands. Durations
// therefore come from the observer itself: the Observer interface carries
// Now(), instrumented code brackets work with ob.Now() calls, and the
// clock implementation (a monotonic reading against the package epoch)
// lives here. Kernel code never imports time; a test observer can supply
// a fake clock.
package obs

import (
	"sync/atomic"
	"time"
)

// OpRecord describes one kernel-level GraphBLAS operation. Integer fields
// that a given op does not populate are zero and omitted from JSON.
type OpRecord struct {
	// Op is the entry point: "mxm", "vxm", "mxv", "wait".
	Op string `json:"op"`
	// Kernel is the compute strategy the op selected: "gustavson",
	// "dot", "heap" for mxm; "push", "pull" for vxm/mxv; "assemble" for
	// Wait.
	Kernel string `json:"kernel,omitempty"`
	// Policy records how Kernel was chosen when the op had a choice:
	// "forced" (the caller pinned a method through the descriptor) or
	// "static" (the built-in heuristic decided). Empty for ops with no
	// method choice. BENCH_2's selection audit and the policy conformance
	// tests read this field.
	Policy string `json:"policy,omitempty"`
	// Rows and Cols are the output dimensions.
	Rows int `json:"rows,omitempty"`
	Cols int `json:"cols,omitempty"`
	// NnzA and NnzB are the stored-entry counts of the (oriented)
	// operands; NnzOut counts the kernel's raw output before the mask /
	// accumulate / replace write-back.
	NnzA   int  `json:"nnz_a,omitempty"`
	NnzB   int  `json:"nnz_b,omitempty"`
	NnzOut int  `json:"nnz_out,omitempty"`
	Masked bool `json:"masked,omitempty"`
	// EstFlops is the work estimate the scheduler partitioned by (the
	// same weight function workChunks saw). ActFlops is the exact
	// multiply count where the kernel can derive it from operand
	// structure at no cost (gustavson/heap/push); 0 means unknown —
	// dot and pull kernels exit rows early, so counting their actual
	// work would violate the zero-cost contract.
	EstFlops int64 `json:"est_flops,omitempty"`
	ActFlops int64 `json:"act_flops,omitempty"`
	// Pending and Zombies are the buffered-update counts an assembly
	// (Op "wait") consumed.
	Pending int `json:"pending,omitempty"`
	Zombies int `json:"zombies,omitempty"`
	// Chunks is how many work chunks the scheduler created (1 means the
	// op ran serially); MaxChunkFlops is the heaviest chunk's estimated
	// weight. MaxChunkFlops·Chunks/EstFlops ≥ 1 measures partition
	// imbalance: 1.0 is a perfect equal-weight split.
	Chunks        int   `json:"chunks,omitempty"`
	MaxChunkFlops int64 `json:"max_chunk_flops,omitempty"`
	// DurNanos is the op's wall time as measured by the observer's own
	// clock (see the clock seam note in the package doc).
	DurNanos int64 `json:"dur_nanos,omitempty"`
}

// IterRecord describes one iteration of an algorithm-level loop.
type IterRecord struct {
	// Algo names the loop: "bfs", "sssp", "pagerank", "hits", ...
	Algo string `json:"algo"`
	// Iter is the 1-based iteration (BFS depth, PageRank sweep, ...).
	Iter int `json:"iter"`
	// Frontier is the active-set size this iteration (BFS frontier
	// nvals, SSSP bucket size); 0 when the loop has no frontier notion.
	Frontier int `json:"frontier,omitempty"`
	// Dir is the traversal direction a direction-optimized step chose:
	// "push" or "pull". Empty for non-traversal loops.
	Dir string `json:"dir,omitempty"`
	// Residual is the convergence measure (L1 delta for PageRank/HITS).
	Residual float64 `json:"residual,omitempty"`
	// Warm marks an iteration of a warm-started (incremental) run: the
	// loop resumed from a prior result instead of the cold initial state,
	// so BENCH tables can attribute iterations-to-convergence savings.
	Warm bool `json:"warm,omitempty"`
	// DurNanos is the iteration's wall time.
	DurNanos int64 `json:"dur_nanos,omitempty"`
}

// Observer receives operation and iteration records. Implementations must
// be safe for concurrent use: kernels may emit from concurrent operations.
// Now is the injected clock — instrumented code calls it to bracket work,
// so a test observer can make durations deterministic.
type Observer interface {
	// Now returns the observer's monotonic clock reading in nanoseconds.
	Now() int64
	// Op records one kernel-level operation.
	Op(OpRecord)
	// Iter records one algorithm-loop iteration.
	Iter(IterRecord)
}

// active holds the process-wide observer. An atomic.Pointer to the
// interface value keeps the disabled check to a single atomic load.
var active atomic.Pointer[Observer]

// Set installs o as the process-wide observer (nil disables observation)
// and returns the previous observer, or nil. Safe to call concurrently
// with running operations: ops already in flight keep the observer they
// loaded.
func Set(o Observer) Observer {
	var p *Observer
	if o != nil {
		p = &o
	}
	prev := active.Swap(p)
	if prev == nil {
		return nil
	}
	return *prev
}

// Active returns the installed observer, or nil when observation is
// disabled. The nil return path performs one atomic load and no
// allocations — this is the per-op guard on every kernel hot path.
func Active() Observer {
	p := active.Load()
	if p == nil {
		return nil
	}
	return *p
}

// epoch anchors the package clock; readings are monotonic durations since
// process start, not wall timestamps, so they subtract safely.
var epoch = time.Now()

// Clock returns nanoseconds since the package epoch on the monotonic
// clock. Sinks in this package implement Observer.Now with it; kernel
// code never calls it directly (the purity check bans time in grb — the
// clock reaches kernels only through an Observer).
func Clock() int64 {
	return int64(time.Since(epoch))
}
