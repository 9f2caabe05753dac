package store

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"lagraph/internal/catalog"
	"lagraph/internal/lagraph"
	"lagraph/internal/wal"
)

// Persister ties a catalog to a store. It is the single owner of what is
// durable: per graph, the (generation, journal floor) its live snapshot
// holds, and an incarnation counter that decides whether a snapshot may
// replace it. It snapshots dirty entries (generation-counter diff) and
// replays the store into the catalog on boot. Snapshots run under the
// entry's shared read lock (catalog.Entry.Snapshot), so concurrent
// queries keep executing while a graph serializes.
type Persister struct {
	st  *Store
	cat *catalog.Catalog
	// jl, when attached, is the edge-mutation journal: the streaming write
	// path appends each accepted batch here before applying it, and boot
	// recovery replays the suffix past each graph's snapshot floor.
	// Immutable after AttachWAL (which runs before the service starts).
	jl *wal.Log

	mu sync.Mutex
	// durable describes each graph's live snapshot; no record means no
	// snapshot of the current incarnation is durable yet.
	durable map[string]durableMark //grblint:guardedby mu
	// incarnation counts, per name, the events after which the durable
	// record no longer describes the graph: Remove, and ResetJournalFloor
	// (the graph moved into another LSN space). SnapshotOne pins it
	// before serializing; a snapshot commits only in the incarnation it
	// was pinned in, so a slow snapshot can neither resurrect a dropped
	// graph nor reinstate a floor from the wrong LSN space.
	incarnation map[string]uint64 //grblint:guardedby mu
	// applied is each graph's in-memory WAL high-water mark (last LSN
	// applied to the catalog entry). applied past the durable floor means
	// the graph has journaled mutations not yet captured by a snapshot.
	applied map[string]uint64 //grblint:guardedby mu
	// replayStats records what the boot-time WAL replay did.
	replayStats ReplayStats //grblint:guardedby mu

	// afterSerialize, when non-nil, runs between serialization (and the
	// early skip) and the store save. Test seam for the races the commit
	// veto settles.
	afterSerialize func(name string)
}

// durableMark identifies a graph's live snapshot: the generation it
// pinned and its journal floor, the highest LSN it already contains.
// Records at or below the floor are dead for that graph; the floor
// across all graphs drives segment truncation.
type durableMark struct {
	gen, journal uint64
}

// NewPersister wires a store to a catalog.
func NewPersister(st *Store, cat *catalog.Catalog) *Persister {
	return &Persister{
		st: st, cat: cat,
		durable: map[string]durableMark{}, incarnation: map[string]uint64{},
		applied: map[string]uint64{},
	}
}

// Store exposes the underlying store (metrics, tests).
func (p *Persister) Store() *Store { return p.st }

// AttachWAL connects the edge-mutation journal. Call before LoadAll (so
// recovery replays it) and before the service starts accepting writes.
func (p *Persister) AttachWAL(l *wal.Log) { p.jl = l }

// WAL returns the attached journal (nil on a snapshot-only persister).
func (p *Persister) WAL() *wal.Log { return p.jl }

// SnapResult reports one completed snapshot.
type SnapResult struct {
	Name       string  `json:"name"`
	Generation uint64  `json:"generation"`
	Bytes      int64   `json:"bytes"`
	ElapsedMS  float64 `json:"elapsed_ms"`
	// Written is false when the commit veto discarded the snapshot: it
	// was not newer than the durable copy, or the graph was dropped or
	// moved into another LSN space while it serialized.
	Written bool `json:"written"`
}

// LoadAll replays every stored snapshot into the catalog. Corrupt
// snapshots are quarantined by the store and reported in the events; a
// non-corruption failure (e.g. a catalog conflict) keeps the durable copy
// and is reported without destroying state. Neither aborts the boot.
// Recovered entries have their catalog generation seeded from the
// snapshot's persisted generation — generations continue the durable
// sequence across restarts instead of restarting at zero — and are marked
// clean, so a restart does not immediately re-snapshot everything.
func (p *Persister) LoadAll() ([]RecoveryEvent, error) {
	events, err := p.st.LoadAll(func(meta Meta, payload []byte) error {
		g, gerr := DecodeGraph(meta, payload)
		if gerr != nil {
			return gerr
		}
		e, aerr := p.cat.Add(meta.Name, g)
		if aerr != nil {
			return fmt.Errorf("store: recover %q: %w", meta.Name, aerr)
		}
		e.SeedGeneration(meta.Generation)
		e.SetJournalSeq(meta.Journal)
		p.mu.Lock()
		p.durable[meta.Name] = durableMark{gen: meta.Generation, journal: meta.Journal}
		p.applied[meta.Name] = meta.Journal
		p.mu.Unlock()
		return nil
	})
	if err != nil {
		return events, err
	}
	if rerr := p.replayWAL(); rerr != nil {
		return events, rerr
	}
	return events, nil
}

// ReplayStats reports what the WAL replay phase of LoadAll did.
type ReplayStats struct {
	// Applied counts journal records replayed onto catalog entries.
	Applied int `json:"applied"`
	// SkippedFloor counts records already contained in a snapshot
	// (LSN at or below the graph's durable floor).
	SkippedFloor int `json:"skipped_floor"`
	// SkippedUnknown counts records naming graphs with no recovered
	// snapshot (dropped before the crash, or quarantined): their
	// mutations have nothing to land on and are reported, not replayed.
	SkippedUnknown int `json:"skipped_unknown"`
	// TornBytes and TornFile surface the WAL's own tail-truncation
	// report (a crash mid-append: tolerated and logged).
	TornBytes int64  `json:"torn_bytes"`
	TornFile  string `json:"torn_file,omitempty"`
}

// ReplayStats returns what the boot-time WAL replay did (zero value when
// no WAL is attached or LoadAll has not run).
func (p *Persister) ReplayStats() ReplayStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.replayStats
}

// replayWAL applies every journal record past its graph's snapshot floor.
// The graph named by a record may have no snapshot (created, mutated and
// never flushed before the crash — the service prevents this by forcing a
// baseline snapshot before the first journaled batch, so in practice this
// means "dropped later" or "snapshot quarantined"): such records are
// counted and skipped, never a boot failure.
func (p *Persister) replayWAL() error {
	if p.jl == nil {
		return nil
	}
	var rs ReplayStats
	rec := p.jl.Recovery()
	rs.TornBytes = rec.TornBytes
	rs.TornFile = rec.TornFile
	err := p.jl.Replay(1, func(r wal.Record) error {
		b, derr := DecodeEdgeBatch(r.Payload)
		if derr != nil {
			// The record passed CRC + chain validation, so a payload that
			// fails structural decode was written damaged — fail loudly
			// rather than silently diverging from the pre-crash state.
			return fmt.Errorf("store: wal replay: record %d: %w", r.LSN, derr)
		}
		p.mu.Lock()
		floor := p.durable[b.Name].journal
		p.mu.Unlock()
		e, gerr := p.cat.Get(b.Name)
		if gerr != nil {
			rs.SkippedUnknown++
			return nil
		}
		if r.LSN <= floor {
			rs.SkippedFloor++
			return nil
		}
		ierr := e.Ingest(func(g *lagraph.Graph) (bool, error) {
			if aerr := ApplyEdgeBatch(g, b); aerr != nil {
				return false, aerr
			}
			e.SetJournalSeq(r.LSN)
			return true, nil
		})
		if ierr != nil {
			return fmt.Errorf("store: wal replay: record %d on %q: %w", r.LSN, b.Name, ierr)
		}
		p.mu.Lock()
		p.applied[b.Name] = r.LSN
		p.mu.Unlock()
		rs.Applied++
		return nil
	})
	p.mu.Lock()
	p.replayStats = rs
	p.mu.Unlock()
	return err
}

// JournalEdges appends an encoded edge batch to the WAL and returns its
// LSN; the append is fsynced before return (the durability point of the
// streaming write path). With no WAL attached it returns LSN 0 — the
// mutation is memory-only until the next snapshot, the same durability a
// volatile daemon had before the journal existed. Call while holding the
// target entry's exclusive lock (inside catalog.Entry.Ingest), BEFORE
// applying the batch: write-ahead means a crash can leave a journaled
// batch unapplied (replay fixes that) but never an applied batch
// unjournaled (nothing could fix that).
func (p *Persister) JournalEdges(b EdgeBatch) (uint64, error) {
	if p.jl == nil {
		return 0, nil
	}
	payload, err := b.Encode()
	if err != nil {
		return 0, err
	}
	lsn, err := p.jl.Append(payload)
	if err != nil {
		return 0, fmt.Errorf("store: journal edges for %q: %w", b.Name, err)
	}
	return lsn, nil
}

// MarkApplied records that every journal record up to lsn is applied to
// the named graph in memory. Call after a successful apply, still under
// the entry's exclusive lock (the catalog→store lock order permits
// taking p.mu there; the reverse would not).
func (p *Persister) MarkApplied(name string, lsn uint64) {
	if lsn == 0 {
		return
	}
	p.mu.Lock()
	if lsn > p.applied[name] {
		p.applied[name] = lsn
	}
	p.mu.Unlock()
}

// ResetJournalFloor starts a new incarnation of the named graph, with
// in-memory WAL mark lsn. The cluster layer calls it when a graph
// changes LSN space: installing a shipped snapshot on a replica (the
// mark moves into the source primary's space) or adopting a moved graph
// as the new primary (the mark rebases onto the local log head, because
// this node is now the single writer and all shipped history is baked
// into the adopted snapshot). The live snapshot's floor belongs to the
// old space, so its record is forgotten: the next snapshot commits at
// any generation, and one pinned before the reset is vetoed.
func (p *Persister) ResetJournalFloor(name string, lsn uint64) {
	p.mu.Lock()
	p.incarnation[name]++
	delete(p.durable, name)
	p.applied[name] = lsn
	p.mu.Unlock()
}

// HasDurable reports whether the named graph's current incarnation has a
// durable snapshot. The edges handler consults it to force a baseline
// snapshot before the FIRST journaled batch of a freshly loaded (or
// rebased) graph — without one, the WAL would hold mutations for a graph
// recovery cannot reconstruct.
func (p *Persister) HasDurable(name string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	_, ok := p.durable[name]
	return ok
}

// TruncateWAL removes journal segments made dead by snapshots: a record
// is dead once every graph's durable floor is at or past it. Called
// after snapshot sweeps; returns the number of segments removed.
func (p *Persister) TruncateWAL() (int, error) {
	if p.jl == nil {
		return 0, nil
	}
	floor := p.jl.NextLSN()
	p.mu.Lock()
	for name, applied := range p.applied {
		if jf := p.durable[name].journal; applied > jf && jf+1 < floor {
			floor = jf + 1
		}
	}
	p.mu.Unlock()
	return p.jl.TruncateBefore(floor)
}

// Dirty returns the names whose in-memory generation differs from the
// durable one (including graphs with no durable snapshot), sorted. The
// durable generations are copied under p.mu and the catalog consulted
// with no lock held: the repo-wide lock order is catalog→store, and
// holding a store-side mutex across a catalog call is the deadlock shape
// grblint's lock-discipline check forbids. The copy is a
// consistent-enough basis — a graph saved or removed mid-scan is
// re-classified on the next sweep.
func (p *Persister) Dirty() []string {
	p.mu.Lock()
	saved := make(map[string]uint64, len(p.durable))
	for name, d := range p.durable {
		saved[name] = d.gen
	}
	p.mu.Unlock()
	var dirty []string
	for _, name := range p.cat.Names() {
		e, err := p.cat.Get(name)
		if err != nil {
			continue // dropped concurrently
		}
		if gen, ok := saved[name]; !ok || gen != e.Generation() {
			dirty = append(dirty, name)
		}
	}
	sort.Strings(dirty)
	return dirty
}

// SnapshotOne serializes the named graph at a pinned generation and saves
// it durably. Queries sharing the entry's read lock keep running. The
// store commit is vetoed unless the snapshot is newer by generation than
// the durable copy of the incarnation it was pinned in, so a drop or a
// rebase racing a flush can never resurrect the graph or its old floor.
func (p *Persister) SnapshotOne(name string) (SnapResult, error) {
	e, err := p.cat.Get(name)
	if err != nil {
		return SnapResult{}, err
	}
	p.mu.Lock()
	inc := p.incarnation[name]
	p.mu.Unlock()
	t0 := time.Now()
	meta, payload, err := p.Frame(e)
	if err != nil {
		p.st.snapshotErrors.Add(1)
		return SnapResult{}, fmt.Errorf("store: snapshot %q: %w", name, err)
	}
	mark := durableMark{gen: meta.Generation, journal: meta.Journal}
	newer := func() bool {
		p.mu.Lock()
		defer p.mu.Unlock()
		cur, ok := p.durable[name]
		return p.incarnation[name] == inc && (!ok || mark.gen > cur.gen)
	}
	// A snapshot already durable or superseded skips the write the veto
	// would discard.
	written := false
	if newer() {
		if p.afterSerialize != nil {
			p.afterSerialize(name)
		}
		written, err = p.st.SaveIf(meta, payload, newer, func() {
			// Runs under the store mutex, like the veto, so no other
			// commit or Remove of this graph sits between them; only a
			// rebase (which takes p.mu alone) can, and then the record
			// stays away.
			p.mu.Lock()
			if p.incarnation[name] == inc {
				p.durable[name] = mark
			}
			p.mu.Unlock()
		})
		if err != nil {
			return SnapResult{}, err
		}
	}
	elapsed := time.Since(t0)
	p.st.snapshotNanos.Add(int64(elapsed))
	return SnapResult{
		Name: name, Generation: meta.Generation, Bytes: int64(len(payload)),
		ElapsedMS: float64(elapsed) / float64(time.Millisecond), Written: written,
	}, nil
}

// Frame serializes e as a snapshot frame: the metadata and payload that
// SnapshotOne saves and the cluster ships to followers. A primary graph
// that has never journaled a batch must not inherit WAL records of an
// earlier same-name incarnation: dropping a graph deletes its floors but
// leaves its records in the log, so a re-created graph framed with
// Journal 0 would have the old records replayed onto it after a crash
// (or streamed onto a follower). Frame therefore fences such an entry at
// the current log head before the pin, so the frame's floor excludes
// every pre-existing record — none of which can belong to an incarnation
// that has journaled nothing yet. Replica entries are exempt: their
// journal mark lives in the SOURCE primary's LSN space (it is the
// replication position), and fencing it against the local log head
// would splice two unrelated LSN spaces together.
func (p *Persister) Frame(e *catalog.Entry) (Meta, []byte, error) {
	if p.jl != nil && e.Role() != catalog.RoleReplica {
		e.FenceJournalSeq(p.jl.NextLSN() - 1)
	}
	var buf bytes.Buffer
	info, err := e.Snapshot(&buf)
	if err != nil {
		return Meta{}, nil, err
	}
	return Meta{
		Name: e.Name(), Kind: kindString(info.Directed),
		NRows: int64(info.N), NCols: int64(info.N), NVals: int64(info.NEdges),
		Generation: info.Generation, Journal: info.Journal,
	}, buf.Bytes(), nil
}

// FlushResult reports one FlushDirty pass.
type FlushResult struct {
	Snapshotted []SnapResult `json:"snapshotted"`
	Clean       int          `json:"clean"` // entries already durable
}

// FlushDirty snapshots every dirty graph. Per-graph failures are joined
// into the returned error but do not stop the sweep; a graph dropped
// between the dirty scan and its snapshot is skipped silently.
func (p *Persister) FlushDirty() (FlushResult, error) {
	dirty := p.Dirty()
	res := FlushResult{Clean: len(p.cat.Names()) - len(dirty)}
	var errs []error
	for _, name := range dirty {
		sr, err := p.SnapshotOne(name)
		if err != nil {
			if errors.Is(err, catalog.ErrNotFound) {
				continue
			}
			errs = append(errs, err)
			continue
		}
		res.Snapshotted = append(res.Snapshotted, sr)
	}
	// The sweep advanced durable floors; retire journal segments every
	// graph is now snapshotted past. Best-effort: a truncation failure
	// only costs disk, not correctness.
	if _, terr := p.TruncateWAL(); terr != nil {
		errs = append(errs, terr)
	}
	return res, errors.Join(errs...)
}

// Remove forgets a graph's durable copy (mirrors a catalog Drop). The
// incarnation bump runs under the store mutex before the manifest entry
// goes, so a snapshot serialized before the drop is vetoed, and one of a
// same-name graph re-created meanwhile lands wholly before or after the
// removal. The WAL mark goes too: a dropped graph must not pin the
// truncation floor (its records replay as skipped-unknown). Reports
// whether a durable copy existed.
func (p *Persister) Remove(name string) (removed bool, err error) {
	return p.st.Remove(name, func() {
		p.mu.Lock()
		p.incarnation[name]++
		delete(p.durable, name)
		delete(p.applied, name)
		p.mu.Unlock()
	})
}

// DecodeGraph decodes a snapshot frame's payload. A payload whose kind
// contradicts meta.Kind is corrupt (ErrCorrupt), like one that does not
// decode.
func DecodeGraph(meta Meta, payload []byte) (*lagraph.Graph, error) {
	g, err := lagraph.ReadGraph(bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	if got := kindString(g.Kind == lagraph.Directed); got != meta.Kind {
		return nil, corruptf("snapshot %q: payload kind %q contradicts metadata %q", meta.Name, got, meta.Kind)
	}
	return g, nil
}

// kindString maps the graph kind onto the frame metadata vocabulary.
func kindString(directed bool) string {
	if directed {
		return "directed"
	}
	return "undirected"
}
