package svc

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"lagraph/internal/lagraph"
	"lagraph/internal/store"
)

// EdgeTuple is one edge mutation in a POST /v1/graphs/{name}/edges batch.
type EdgeTuple struct {
	Src int `json:"src"`
	Dst int `json:"dst"`
	// Weight defaults to 1 when omitted (pattern-style ingestion).
	Weight *float64 `json:"weight,omitempty"`
	// Remove deletes the edge instead of upserting it.
	Remove bool `json:"remove,omitempty"`
}

// EdgesRequest is the edge-ingest body: a batch of tuples plus the
// duplicate-combination policy ("last" default, "sum", "min", "max" —
// non-last policies accumulate onto already-stored values, matching the
// GraphBLAS dup-operator semantics of build).
type EdgesRequest struct {
	Edges []EdgeTuple `json:"edges"`
	Dup   string      `json:"dup,omitempty"`
	// TimeoutMS overrides the daemon's default per-request deadline
	// (clamped to the configured maximum).
	TimeoutMS int64 `json:"timeout_ms"`
}

// EdgesResponse reports one accepted batch.
type EdgesResponse struct {
	Graph    string `json:"graph"`
	Accepted int    `json:"accepted"` // tuples in the batch
	Added    int    `json:"added"`    // upsert ops
	Removed  int    `json:"removed"`  // remove ops
	// Generation is the catalog generation after the batch landed.
	Generation uint64 `json:"generation"`
	// LSN is the write-ahead-log sequence the batch was journaled at
	// (absent on a volatile daemon).
	LSN uint64 `json:"lsn,omitempty"`
	// Durable reports whether the batch was fsynced to the journal
	// before this response was written. False on a volatile daemon and
	// under -wal-sync=false (the batch was journaled — LSN is set — but
	// the append was not synced, so a crash may still lose it).
	Durable bool `json:"durable"`
	// Pending is the adjacency's buffered-tuple count after the batch:
	// the §II-A deferral made observable (assembly happens at the next
	// read, not per batch).
	Pending   int     `json:"pending"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// handleEdges is the streaming write path: a batch of edge tuples lands
// as pending tuples in the graph's adjacency (grb SetElements — no
// assembly, so latency is flat in graph size) after being journaled to
// the WAL (fsync-on-commit — the durability point). Order inside the
// entry's exclusive lock is validate → journal → apply: write-ahead
// means a crash can leave a journaled batch unapplied (boot replay fixes
// that), never an applied batch unjournaled.
//
// Remove ops force assembly of adds buffered before them (the zombie
// path operates on stored entries), so remove-heavy batches pay the
// materialization cost; add-only batches are O(batch).
func (s *Server) handleEdges(w http.ResponseWriter, r *http.Request) int {
	name := r.PathValue("name")
	// Cluster routing precedes the catalog lookup: a non-primary may not
	// hold the graph at all, and 307 with the body unread lets the
	// client re-POST the batch to the primary verbatim.
	if st, done := s.routeMutation(w, r, name); done {
		return st
	}
	e, err := s.cat.Get(name)
	if err != nil {
		return fail(w, err)
	}
	var req EdgesRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, s.cfg.MaxGraphBytes)).Decode(&req); err != nil {
		return fail(w, fmt.Errorf("%w: %v", errBadRequest, err))
	}
	if len(req.Edges) == 0 {
		return fail(w, fmt.Errorf("%w: edges required", errBadRequest))
	}
	if len(req.Edges) > store.MaxBatchOps {
		return fail(w, fmt.Errorf("%w: batch of %d edges exceeds cap %d", errBadRequest, len(req.Edges), store.MaxBatchOps))
	}
	// Ingestion is real work and takes the entry's exclusive lock: run it
	// under the admission gate so a mutation burst cannot starve queries.
	ctx, cancel := context.WithTimeout(r.Context(), s.timeoutFor(req.TimeoutMS))
	defer cancel()
	release, err := s.admit(ctx)
	if err != nil {
		return fail(w, err)
	}
	defer release()

	ops := make([]store.EdgeOp, len(req.Edges))
	added, removed := 0, 0
	for k, t := range req.Edges {
		op := store.EdgeOp{Remove: t.Remove, Src: t.Src, Dst: t.Dst, Weight: 1}
		if t.Weight != nil {
			op.Weight = *t.Weight
		}
		if op.Remove {
			removed++
		} else {
			added++
		}
		ops[k] = op
	}
	batch := store.EdgeBatch{Name: e.Name(), Dup: req.Dup, Ops: ops}

	// A graph with journaled mutations but no snapshot would be
	// unrecoverable (replay has nothing to land on), so the FIRST
	// journaled batch of a graph with no durable snapshot (never
	// snapshotted, or rebased into this node's LSN space) forces a
	// baseline snapshot. Races between two first batches are harmless:
	// the Persister commits at most one snapshot per generation.
	p := s.cfg.Persister
	if p != nil && p.WAL() != nil && !p.HasDurable(e.Name()) {
		if _, serr := p.SnapshotOne(e.Name()); serr != nil {
			return fail(w, fmt.Errorf("baseline snapshot before first edge batch: %w", serr))
		}
	}

	t0 := time.Now()
	resp := EdgesResponse{Graph: e.Name(), Accepted: len(ops), Added: added, Removed: removed}
	err = e.Ingest(func(g *lagraph.Graph) (bool, error) {
		if verr := store.ValidateEdgeBatch(g, batch); verr != nil {
			return false, verr
		}
		if p != nil {
			lsn, jerr := p.JournalEdges(batch)
			if jerr != nil {
				return false, jerr
			}
			resp.LSN = lsn
		}
		if aerr := store.ApplyEdgeBatch(g, batch); aerr != nil {
			// Validation precedes journaling, so this is unreachable in
			// practice; report it as mutated because a partial apply may
			// have buffered tuples.
			return true, aerr
		}
		if resp.LSN > 0 {
			e.SetJournalSeq(resp.LSN)
			p.MarkApplied(e.Name(), resp.LSN)
		}
		// Declare the batch to the entry's delta log so later
		// mode=incremental queries can prove their warm-start window
		// insert-only (committed by Ingest after the generation bump).
		e.StageDelta(batch.DeltaParts())
		resp.Pending, _ = g.A.Pending()
		return true, nil
	})
	if err != nil {
		return fail(w, err)
	}
	resp.Generation = e.Generation()
	// A nonzero LSN proves the batch is in the journal, but it is durable
	// only if the append was actually fsynced (-wal-sync=false trades
	// that away for tests and benchmarks).
	resp.Durable = resp.LSN > 0 && p.WAL().Synced()
	resp.ElapsedMS = float64(time.Since(t0)) / float64(time.Millisecond)
	return writeJSON(w, http.StatusOK, resp)
}
