package catalog

import (
	"sort"

	"lagraph/internal/lagraph"
)

// Prior-result cache + tracked delta log: the catalog-side state behind
// mode=incremental queries.
//
// Each Entry keeps a small map of algorithm results keyed by an
// algorithm+parameter string, each tagged with the generation it was
// computed at. Ingest does NOT drop them — a result goes stale (its
// generation falls behind the entry's) and the next query warm-starts
// from it. Whether a stale prior may seed an *exact* warm start (CC,
// BFS) is decided by the delta log: a bounded, generation-contiguous
// record of the edge batches applied through the streaming write path.
// One Ingest = one generation bump = one record; any mutation that does
// not go through that protocol (a replace load, a replication apply, a
// failed batch, log overflow) breaks the chain, and DeltaSince answers
// Unknown for windows it cannot prove insert-only — the query layer then
// falls back to a full recompute. PageRank warm starts are valid under
// any delta and ignore the Unknown flag.
//
// All of this state is in-memory only: it is deliberately NOT
// snapshotted or journaled, so a crash-restarted daemon starts cold and
// its first incremental query falls back to full — a warm-start cache
// can never survive a restart incorrectly (the server-smoke crash pass
// asserts exactly this).
//
// Lock order: Entry.mu (either mode) → Entry.resMu. The cache methods
// take only resMu and are called from inside View/Ingest callbacks with
// mu already held; they never take mu themselves.

const (
	// maxCachedResults bounds the per-entry result cache (distinct
	// algorithm+parameter keys; eviction drops the stalest generation).
	maxCachedResults = 8
	// maxDeltaOps bounds the total edge endpoints + removals the delta
	// log retains; overflow drops the oldest records, raising the floor
	// below which DeltaSince answers Unknown.
	maxDeltaOps = 1 << 16
)

// CachedResult is one stored algorithm result.
type CachedResult struct {
	// Value is the algorithm-specific result handle (a *grb.Vector or a
	// result struct). It must be fully materialized (Wait called) before
	// storing: cached values are read concurrently by later queries.
	Value any
	// Generation is the entry generation the result was computed at.
	Generation uint64
	// FullIters is the iteration count of the most recent FULL run on
	// this key's lineage — the baseline "iterations saved" is measured
	// against. Warm runs carry it forward unchanged.
	FullIters int
}

// deltaRec is one tracked mutation window: the edge batch that produced
// generation gen.
type deltaRec struct {
	gen            uint64
	addSrc, addDst []int
	removals       int
}

// stagedDelta carries a batch's delta parts from the Ingest callback to
// the post-bump commit in ingest().
type stagedDelta struct {
	addSrc, addDst []int
	removals       int
}

// PriorResult returns the cached result under key, if any. The value may
// be stale (Generation < Entry.Generation()); pair it with DeltaSince to
// decide whether an exact warm start is sound. Call inside View.
func (e *Entry) PriorResult(key string) (CachedResult, bool) {
	e.resMu.Lock()
	defer e.resMu.Unlock()
	r, ok := e.results[key]
	return r, ok
}

// StoreResult caches a result under key. The caller must have fully
// materialized the value (Wait) so concurrent readers see a pure
// read-only object. A store whose generation is older than the cached
// one is dropped (a slow query racing a fresh one must not regress the
// cache). Call inside View.
func (e *Entry) StoreResult(key string, r CachedResult) {
	e.resMu.Lock()
	defer e.resMu.Unlock()
	if e.results == nil {
		e.results = make(map[string]CachedResult)
	}
	if old, ok := e.results[key]; ok && old.Generation > r.Generation {
		return
	}
	if _, ok := e.results[key]; !ok && len(e.results) >= maxCachedResults {
		// Evict the stalest entry; ties break by key order so eviction is
		// deterministic regardless of map iteration order.
		keys := make([]string, 0, len(e.results))
		for k := range e.results {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		victim := keys[0]
		for _, k := range keys[1:] {
			if e.results[k].Generation < e.results[victim].Generation {
				victim = k
			}
		}
		delete(e.results, victim)
	}
	e.results[key] = r
}

// StageDelta declares the edge batch the current Ingest callback is
// applying, so ingest() can commit it to the delta log after the
// generation bump. Slices are adopted, not copied. Call only from inside
// an Ingest/Replicate callback — the exclusive lock is held there.
//
//grblint:locked mu
func (e *Entry) StageDelta(addSrc, addDst []int, removals int) {
	e.staged = &stagedDelta{addSrc: addSrc, addDst: addDst, removals: removals}
}

// DeltaSince aggregates the tracked mutations in the window (from,
// current generation]. It answers Unknown unless the delta log provably
// covers the whole window: the newest record must sit at the current
// generation and from must not precede the log's floor. Call inside View
// (the generation is stable there — writers queue on the entry lock).
func (e *Entry) DeltaSince(from uint64) *lagraph.Delta {
	cur := e.gen.Load()
	if from > cur {
		return &lagraph.Delta{Unknown: true}
	}
	if from == cur {
		return &lagraph.Delta{}
	}
	e.resMu.Lock()
	defer e.resMu.Unlock()
	// Records are generation-contiguous over (deltaFloor, newest] by
	// construction, so coverage of (from, cur] needs exactly these two
	// endpoint checks.
	if len(e.deltas) == 0 || e.deltas[len(e.deltas)-1].gen != cur || from < e.deltaFloor {
		return &lagraph.Delta{Unknown: true}
	}
	d := &lagraph.Delta{}
	for _, rec := range e.deltas {
		if rec.gen <= from {
			continue
		}
		d.AddSrc = append(d.AddSrc, rec.addSrc...)
		d.AddDst = append(d.AddDst, rec.addDst...)
		d.Removals += rec.removals
	}
	return d
}

// commitDelta appends a staged batch to the delta log at generation gen.
// Called from ingest() with the exclusive lock held, immediately after
// the generation bump.
//
//grblint:locked mu
func (e *Entry) commitDelta(gen uint64, s *stagedDelta) {
	e.resMu.Lock()
	defer e.resMu.Unlock()
	if len(e.deltas) == 0 {
		// First record of a (re)started log: coverage begins here.
		e.deltaFloor = gen - 1
	} else if e.deltas[len(e.deltas)-1].gen != gen-1 {
		// A gap should be impossible (every bump commits or invalidates),
		// but never silently bridge one: restart the log at this record.
		e.deltas = nil
		e.deltaOps = 0
		e.deltaFloor = gen - 1
	}
	e.deltas = append(e.deltas, deltaRec{gen: gen, addSrc: s.addSrc, addDst: s.addDst, removals: s.removals})
	e.deltaOps += len(s.addSrc) + s.removals
	for e.deltaOps > maxDeltaOps && len(e.deltas) > 0 {
		old := e.deltas[0]
		e.deltas = e.deltas[1:]
		e.deltaOps -= len(old.addSrc) + old.removals
		e.deltaFloor = old.gen
	}
}

// invalidateDeltas marks every generation up to the current one as
// untracked: the log empties and the floor rises, so DeltaSince answers
// Unknown for any window starting before now. Called under the exclusive
// lock by every mutation that bypasses the staged-batch protocol.
//
//grblint:locked mu
func (e *Entry) invalidateDeltas() {
	e.resMu.Lock()
	defer e.resMu.Unlock()
	e.deltas = nil
	e.deltaOps = 0
	e.deltaFloor = e.gen.Load()
}
