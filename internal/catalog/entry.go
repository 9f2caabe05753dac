package catalog

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"lagraph/internal/lagraph"
)

// Role places an entry in a cluster: RoleNone on a single-node daemon,
// RolePrimary when this node owns the graph's write path, RoleReplica
// when the graph is a read-only replication follower here.
type Role int32

// Entry roles. The zero value (RoleNone) is the pre-cluster behavior.
const (
	RoleNone Role = iota
	RolePrimary
	RoleReplica
)

// String renders the role for JSON surfaces ("" for RoleNone, so
// single-node responses are byte-identical to the pre-cluster daemon).
func (r Role) String() string {
	switch r {
	case RolePrimary:
		return "primary"
	case RoleReplica:
		return "replica"
	default:
		return ""
	}
}

// Properties is the cheaply observable state of an entry: the structural
// facts operators keep asking for. The self-loop count and the symmetry
// flag come from the graph's property cache, so they are computed on the
// first Properties call after a mutation and served from the cache until
// the next one.
type Properties struct {
	Name       string `json:"name"`
	Directed   bool   `json:"directed"`
	N          int    `json:"n"`
	NEdges     int    `json:"nedges"`
	NSelfLoops int    `json:"nself_loops"`
	Empty      bool   `json:"empty"`
	// Symmetric reports structural+numerical symmetry of the adjacency
	// (one transpose + compare on first use per generation).
	Symmetric bool `json:"symmetric"`
	// Generation counts mutations: it bumps on every Ingest, so clients
	// can detect that cached derived data went stale.
	Generation uint64 `json:"generation"`
	// Warm reports that the adjacency is assembled: no pending tuples or
	// zombies. Properties assembles before it reads, so a returned value
	// always has Warm set; the field keeps its pre-existing JSON name.
	Warm bool `json:"warm"`
	// Role is the entry's cluster placement role ("primary" | "replica";
	// empty on a single-node daemon, keeping pre-cluster responses
	// unchanged).
	Role string `json:"role,omitempty"`
	// ReplicaLag is the replication-lag LSN of a replica entry: how many
	// journal records the source primary has applied beyond this copy.
	// Zero when caught up (and always zero for non-replicas).
	ReplicaLag uint64 `json:"replica_lag,omitempty"`
}

// Entry wraps one registered graph with the reader/writer protocol
// described in the package comment.
type Entry struct {
	name string
	cat  *Catalog

	mu sync.RWMutex
	g  *lagraph.Graph //grblint:guardedby mu
	// gen is atomic (not guarded by mu) so Generation can be read from
	// inside a View callback — a nested RLock would deadlock against a
	// queued writer. Writes still happen only under the exclusive lock.
	gen atomic.Uint64
	// jseq is the journal high-water mark: the WAL sequence number of the
	// last edge batch applied to this entry (0 = never mutated through the
	// streaming write path). Atomic for the same reason as gen; advanced
	// only under the exclusive lock (inside Ingest) or before publication
	// (boot recovery). On a replica entry the value lives in the SOURCE
	// primary's LSN space — it is the replication position, not a local
	// journal offset.
	jseq atomic.Uint64
	// role is the entry's cluster placement (stored as int32 so the
	// routing hot path reads it lock-free). RoleReplica turns the entry
	// read-only for Ingest; only Replicate may mutate it.
	role atomic.Int32
	// srcHead is the source primary's last observed journal position for
	// this graph (replica entries only; the sync loop advances it). The
	// replication-lag LSN is srcHead - jseq, clamped at zero.
	srcHead atomic.Uint64

	// staged carries one Ingest callback's declared delta to the
	// post-bump commit (see results.go).
	staged *stagedDelta //grblint:guardedby mu

	// resMu guards the prior-result cache and the delta log (results.go).
	// It nests strictly inside mu: cache methods are called from View and
	// Ingest callbacks with mu held, and never take mu themselves.
	resMu      sync.Mutex
	results    map[string]CachedResult //grblint:guardedby resMu
	deltas     []deltaRec              //grblint:guardedby resMu
	deltaOps   int                     //grblint:guardedby resMu
	deltaFloor uint64                  //grblint:guardedby resMu
}

// Name returns the registered name.
func (e *Entry) Name() string { return e.name }

// View runs fn with the entry's read lock held and the adjacency
// assembled (no pending tuples or zombies): fn may run any read-only
// algorithm concurrently with other View calls. The graph's property
// getters (AT, degrees, pattern, self-loops, symmetry) build a missing
// property on first use under the graph's own mutex, so a query pays only
// for the properties it touches. fn must not mutate the graph; mutations
// go through Ingest.
//
//grblint:holdslock mu read
func (e *Entry) View(fn func(g *lagraph.Graph) error) error {
	for {
		e.mu.RLock()
		if e.assembled() {
			defer e.mu.RUnlock()
			e.cat.views.Add(1)
			return fn(e.g)
		}
		e.mu.RUnlock()
		e.assemble()
		// Loop: a writer may have slipped in between assemble's unlock and
		// our RLock; re-check under the read lock.
	}
}

// Ingest runs fn with the exclusive lock held: the one write path, used
// by the streaming edge batches and by a replace load, which swaps the
// adjacency. Pending tuples are NOT assembled before publish. fn is
// expected to land edge batches as pending tuples (grb SetElements /
// RemoveElement), and assembly is deferred to the next reader — that
// deferral is what makes per-batch ingest latency independent of graph
// size (paper §II-A: e buffered insertions assemble once in
// O(e log e), not e times). The
// "Wait before publish" rule is preserved in spirit: the next View sees
// the pending tuples and assembles them under the exclusive lock before
// any reader touches the graph.
//
// fn reports whether it mutated the graph. Cache invalidation and the
// generation bump happen only when it did — a batch rejected whole by
// validation leaves the property cache and the generation unchanged.
//
//grblint:holdslock mu
func (e *Entry) Ingest(fn func(g *lagraph.Graph) (mutated bool, err error)) error {
	if e.Role() == RoleReplica {
		return fmt.Errorf("%w: %q", ErrReadOnly, e.name)
	}
	return e.ingest(fn)
}

// Replicate is the replication apply path: identical locking and
// publication semantics to Ingest, but permitted on replica entries. The
// cluster sync loop is its only intended caller — it applies journal
// records shipped from the graph's primary, which is exactly the one
// mutation source a read-only replica must still accept.
//
//grblint:holdslock mu
func (e *Entry) Replicate(fn func(g *lagraph.Graph) (mutated bool, err error)) error {
	return e.ingest(fn)
}

//grblint:holdslock mu
func (e *Entry) ingest(fn func(g *lagraph.Graph) (mutated bool, err error)) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.staged = nil
	mutated, err := fn(e.g)
	staged := e.staged
	e.staged = nil
	if mutated {
		e.g.InvalidateCache()
		e.gen.Add(1)
		e.cat.ingests.Add(1)
		// A cleanly applied batch the callback declared via StageDelta
		// extends the tracked delta chain; anything else (no declaration,
		// or a partial apply) breaks it.
		if err == nil && staged != nil {
			e.commitDelta(e.gen.Load(), staged)
		} else {
			e.invalidateDeltas()
		}
	}
	return err
}

// SetRole places the entry in the cluster (RoleReplica turns it
// read-only). Lock-free: the routing layer flips roles on topology
// changes while queries run.
func (e *Entry) SetRole(r Role) { e.role.Store(int32(r)) }

// Role returns the entry's cluster placement role.
func (e *Entry) Role() Role { return Role(e.role.Load()) }

// SetSourceHead records the source primary's journal position for this
// graph (replica entries; advanced by the sync loop as it polls).
func (e *Entry) SetSourceHead(lsn uint64) { e.srcHead.Store(lsn) }

// ReplicaLag returns the replication-lag LSN: journal records the source
// primary holds beyond this copy. Zero when caught up, and always zero
// for non-replica entries.
func (e *Entry) ReplicaLag() uint64 {
	if e.Role() != RoleReplica {
		return 0
	}
	head, applied := e.srcHead.Load(), e.jseq.Load()
	if head <= applied {
		return 0
	}
	return head - applied
}

// SetJournalSeq records the WAL sequence number of the last edge batch
// applied to this entry. Call inside the Ingest callback (the exclusive
// lock is held) or during boot recovery before the entry is published.
func (e *Entry) SetJournalSeq(lsn uint64) { e.jseq.Store(lsn) }

// JournalSeq returns the WAL high-water mark of this entry (0 = no edge
// batch ever applied). Lock-free, safe inside View callbacks.
func (e *Entry) JournalSeq() uint64 { return e.jseq.Load() }

// FenceJournalSeq raises the journal mark of an entry that has never
// journaled a batch (jseq still 0) to lsn, and leaves any nonzero mark
// untouched. The persister uses it to fence a freshly created entry
// against WAL records of an earlier same-name incarnation: seeding the
// mark at the current log head means the floor pinned by the entry's
// first snapshot excludes every record already in the log — none of
// which can belong to an incarnation that has journaled nothing. The
// compare-and-swap makes a race with a concurrent first Ingest harmless:
// whichever lands first wins, and an Ingest-assigned LSN is always past
// the log head the fence read.
func (e *Entry) FenceJournalSeq(lsn uint64) {
	if lsn == 0 {
		return
	}
	e.jseq.CompareAndSwap(0, lsn)
}

// Properties returns the entry's structural facts under the shared lock.
// The self-loop count and symmetry flag are read through the graph's
// cached getters: the first call after a mutation computes them, later
// calls are cache hits. Queries never pay for them.
func (e *Entry) Properties() Properties {
	var p Properties
	_ = e.View(func(g *lagraph.Graph) error {
		p = Properties{
			Name:       e.name,
			Directed:   g.Kind == lagraph.Directed,
			N:          g.N(),
			NEdges:     g.NEdges(),
			NSelfLoops: g.NSelfLoops(),
			Empty:      g.NEdges() == 0,
			Symmetric:  g.CachedIsSymmetric(),
			Generation: e.gen.Load(),
			Warm:       e.assembled(),
			Role:       e.Role().String(),
			ReplicaLag: e.ReplicaLag(),
		}
		return nil
	})
	return p
}

// Generation returns the current mutation count. It is lock-free and
// therefore safe to call from inside a View callback.
func (e *Entry) Generation() uint64 {
	return e.gen.Load()
}

// GenerationJournal returns the generation and the journal mark as one
// consistent pair. Writers advance both under the exclusive lock, so
// sampling them under the shared lock never splits a batch: the pair is
// wholly before or wholly after any Ingest. It takes the read lock, so
// unlike Generation it must not be called from inside a View callback.
func (e *Entry) GenerationJournal() (gen, journal uint64) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.gen.Load(), e.jseq.Load()
}

// SeedGeneration initializes the mutation counter of a freshly added
// entry. Boot recovery uses it to make generations continue the durable
// sequence persisted in a snapshot instead of restarting at zero, which
// keeps them comparable across process restarts. Call only on an entry
// that has not yet been mutated or snapshotted.
func (e *Entry) SeedGeneration(gen uint64) {
	e.gen.Store(gen)
}

// SnapshotInfo describes the graph state a Snapshot captured.
type SnapshotInfo struct {
	// Generation is the mutation counter the snapshot pinned: the bytes
	// written are exactly the graph as of this generation.
	Generation uint64
	// Journal is the WAL high-water mark the snapshot captured: every
	// edge batch with sequence <= Journal is contained in the bytes, so
	// boot recovery replays only the suffix beyond it.
	Journal   uint64
	Directed  bool
	N, NEdges int
}

// Snapshot serializes the graph to w under the shared read lock at a
// pinned generation: concurrent View queries keep running while the
// bytes stream out, and no Ingest can interleave (writers queue on the
// exclusive lock). Because View assembles the adjacency first, it has no
// pending tuples and serialization is a pure read — two snapshots of
// the same generation are bitwise identical.
func (e *Entry) Snapshot(w io.Writer) (SnapshotInfo, error) {
	var info SnapshotInfo
	err := e.View(func(g *lagraph.Graph) error {
		info = SnapshotInfo{
			Generation: e.gen.Load(),
			Journal:    e.jseq.Load(),
			Directed:   g.Kind == lagraph.Directed,
			N:          g.N(),
			NEdges:     g.NEdges(),
		}
		return lagraph.WriteGraph(w, g)
	})
	return info, err
}

// assembled reports whether the adjacency has no pending tuples or
// zombies, i.e. whether readers may share it as it is.
//
//grblint:locked mu
func (e *Entry) assembled() bool {
	tuples, zombies := e.g.A.Pending()
	return tuples == 0 && zombies == 0
}

// assemble completes the adjacency's pending work under the exclusive
// lock: pending tuples and zombies, then the column-oriented cache the
// pull and dot kernels want (Matrix.Materialize). Derived properties are
// left to their getters.
func (e *Entry) assemble() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.assembled() {
		return // another reader assembled while we waited
	}
	e.g.A.Materialize()
	e.cat.warms.Add(1)
}
