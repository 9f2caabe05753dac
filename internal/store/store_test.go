package store

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lagraph/internal/catalog"
	"lagraph/internal/gen"
	"lagraph/internal/lagraph"
	"lagraph/internal/leakcheck"
)

// testGraph builds a deterministic undirected power-law graph.
func testGraph(t testing.TB, scale int) *lagraph.Graph {
	t.Helper()
	n := 1 << scale
	e := gen.PowerLaw(n, 8*n, 1.8, gen.Config{Seed: 7, Undirected: true, NoSelfLoops: true})
	g, err := lagraph.NewGraph(e.Matrix(), lagraph.Undirected)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// graphBytes serializes a graph the way Entry.Snapshot does.
func graphBytes(t testing.TB, g *lagraph.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := lagraph.WriteGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestStoreSaveLoadRoundTrip(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	g := testGraph(t, 5)
	payload := graphBytes(t, g)
	meta := Meta{Name: "g", Kind: "undirected", NRows: 32, NCols: 32, NVals: int64(g.NEdges()), Generation: 3}
	if written, err := st.Save(meta, payload); err != nil || !written {
		t.Fatalf("save: written=%v err=%v", written, err)
	}
	gotMeta, gotPayload, err := st.Load("g")
	if err != nil {
		t.Fatal(err)
	}
	if gotMeta != meta {
		t.Fatalf("meta: %+v != %+v", gotMeta, meta)
	}
	if !bytes.Equal(gotPayload, payload) {
		t.Fatal("payload differs")
	}
	g2, err := lagraph.ReadGraph(bytes.NewReader(gotPayload))
	if err != nil {
		t.Fatal(err)
	}
	if g2.N() != g.N() || g2.NEdges() != g.NEdges() || g2.Kind != g.Kind {
		t.Fatalf("decoded graph differs: %d/%d vs %d/%d", g2.N(), g2.NEdges(), g.N(), g.NEdges())
	}
	if _, _, err := st.Load("missing"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing load: %v", err)
	}
	if s := st.Stats(); s.Graphs != 1 || s.Snapshots != 1 || s.Loads != 1 {
		t.Fatalf("stats: %+v", s)
	}
}

// TestStoreReopenSeesManifest proves the manifest survives a clean
// process boundary: a second Open on the same directory serves the same
// bytes.
func TestStoreReopenSeesManifest(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	payload := graphBytes(t, testGraph(t, 4))
	if _, err := st.Save(Meta{Name: "alpha", Kind: "undirected", Generation: 1}, payload); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	meta, got, err := st2.Load("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if meta.Generation != 1 || !bytes.Equal(got, payload) {
		t.Fatal("reopen lost the snapshot")
	}
}

// TestCrashMidWriteKeepsPreviousGood simulates every interleaving a
// kill -9 can leave behind and proves the previously good copy survives:
//
//  1. crash before the snapshot rename: a stray temp file, manifest
//     untouched;
//  2. crash after the snapshot rename but before the manifest rename: a
//     newer complete snapshot exists, but the manifest still names the
//     old one — readers keep the old consistent copy;
//  3. crash mid-manifest-write: a stray manifest temp file, the real
//     MANIFEST intact.
func TestCrashMidWriteKeepsPreviousGood(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	good := graphBytes(t, testGraph(t, 4))
	if _, err := st.Save(Meta{Name: "g", Kind: "undirected", Generation: 1}, good); err != nil {
		t.Fatal(err)
	}

	// State 1: torn temp file from a crash mid-write.
	if err := os.WriteFile(filepath.Join(dir, ".tmp-crash1"), []byte("torn half-written frame"), 0o644); err != nil {
		t.Fatal(err)
	}
	// State 2: a complete newer snapshot the manifest never adopted.
	newer := graphBytes(t, testGraph(t, 5))
	var fbuf bytes.Buffer
	if err := WriteFrame(&fbuf, Meta{Name: "g", Kind: "undirected", Generation: 2}, newer); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, snapFileName("g", 2, 0)), fbuf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	// State 3: torn manifest temp file.
	if err := os.WriteFile(filepath.Join(dir, ".tmp-manifest"), []byte("torn manifest"), 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	meta, payload, err := st2.Load("g")
	if err != nil {
		t.Fatal(err)
	}
	if meta.Generation != 1 || !bytes.Equal(payload, good) {
		t.Fatalf("recovery picked the wrong copy: generation %d", meta.Generation)
	}
}

// TestCorruptManifestRescues: a destroyed MANIFEST falls back to the
// directory rescan, which adopts the highest-generation valid snapshot
// per graph and quarantines damaged ones.
func TestCorruptManifestRescues(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	gold := graphBytes(t, testGraph(t, 4))
	if _, err := st.Save(Meta{Name: "keep", Kind: "undirected", Generation: 5}, gold); err != nil {
		t.Fatal(err)
	}
	// An older generation of the same graph lingering on disk (crash
	// between manifest write and old-file delete).
	var older bytes.Buffer
	if err := WriteFrame(&older, Meta{Name: "keep", Kind: "undirected", Generation: 2}, graphBytes(t, testGraph(t, 3))); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, snapFileName("keep", 2, 0)), older.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	// A damaged snapshot of another graph.
	if err := os.WriteFile(filepath.Join(dir, snapFileName("broken", 1, 0)), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Destroy the manifest.
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte("not a manifest"), 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	meta, payload, err := st2.Load("keep")
	if err != nil {
		t.Fatal(err)
	}
	if meta.Generation != 5 || !bytes.Equal(payload, gold) {
		t.Fatalf("rescan picked generation %d, want 5", meta.Generation)
	}
	if _, _, err := st2.Load("broken"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("broken snapshot survived rescan: %v", err)
	}
	// The damaged file and manifest are quarantined, not deleted.
	if _, err := os.Stat(filepath.Join(dir, snapFileName("broken", 1, 0)+".corrupt")); err != nil {
		t.Error("damaged snapshot not quarantined")
	}
	if _, err := os.Stat(filepath.Join(dir, manifestName+".corrupt")); err != nil {
		t.Error("damaged manifest not quarantined")
	}
	if st2.Stats().Quarantined < 2 {
		t.Errorf("quarantine counter = %d, want >= 2", st2.Stats().Quarantined)
	}
}

// TestSnapshotPinnedBeforeNewerIsVetoed: a snapshot pinned at
// generation g whose commit comes after a g+1 snapshot already landed
// must not roll the graph back. The Persister's commit veto drops it.
func TestSnapshotPinnedBeforeNewerIsVetoed(t *testing.T) {
	leakcheck.Check(t)
	st := Must(Open(t.TempDir()))
	cat := catalog.New()
	p := NewPersister(st, cat)
	e, err := cat.Add("g", testGraph(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	setEdge := func(j int) {
		t.Helper()
		if err := e.Update(func(g *lagraph.Graph) error {
			return g.A.SetElement(0, j, float64(j))
		}); err != nil {
			t.Fatal(err)
		}
	}
	setEdge(1) // generation 1: the slow snapshot pins this
	var newer SnapResult
	p.afterSerialize = func(name string) {
		p.afterSerialize = nil
		setEdge(2) // generation 2 commits first
		sr, err := p.SnapshotOne(name)
		if err != nil || !sr.Written {
			t.Errorf("newer snapshot: %+v, %v", sr, err)
		}
		newer = sr
	}
	sr, err := p.SnapshotOne("g")
	if err != nil {
		t.Fatal(err)
	}
	if sr.Generation != 1 || sr.Written {
		t.Fatalf("stale snapshot: %+v, want generation 1 not written", sr)
	}
	meta, payload, err := st.Load("g")
	if err != nil {
		t.Fatal(err)
	}
	if meta.Generation != 2 || newer.Generation != 2 {
		t.Fatalf("live snapshot is generation %d, want 2", meta.Generation)
	}
	var want bytes.Buffer
	if _, err := e.Snapshot(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(payload, want.Bytes()) {
		t.Fatal("live snapshot bytes are not generation 2's")
	}
	if d := p.Dirty(); len(d) != 0 {
		t.Fatalf("dirty after the newer snapshot landed: %v", d)
	}
}

// TestPersisterLifecycle drives the full dirty-tracking loop: add →
// dirty → flush → clean → mutate → dirty again → flush → recover into a
// fresh catalog.
func TestPersisterLifecycle(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cat := catalog.New()
	p := NewPersister(st, cat)

	if _, err := cat.Add("a", testGraph(t, 5)); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.Add("b", testGraph(t, 4)); err != nil {
		t.Fatal(err)
	}
	if d := p.Dirty(); len(d) != 2 {
		t.Fatalf("dirty after add = %v, want [a b]", d)
	}
	res, err := p.FlushDirty()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Snapshotted) != 2 || res.Clean != 0 {
		t.Fatalf("flush: %+v", res)
	}
	if d := p.Dirty(); len(d) != 0 {
		t.Fatalf("dirty after flush = %v, want none", d)
	}
	res, err = p.FlushDirty()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Snapshotted) != 0 || res.Clean != 2 {
		t.Fatalf("second flush should be a no-op: %+v", res)
	}

	// Mutate one graph: only it goes dirty, and its snapshot carries the
	// bumped generation.
	e, err := cat.Get("a")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Update(func(g *lagraph.Graph) error {
		if err := g.A.SetElement(0, 1, 1); err != nil {
			return err
		}
		return g.A.SetElement(1, 0, 1)
	}); err != nil {
		t.Fatal(err)
	}
	if d := p.Dirty(); len(d) != 1 || d[0] != "a" {
		t.Fatalf("dirty after update = %v, want [a]", d)
	}
	sr, err := p.SnapshotOne("a")
	if err != nil {
		t.Fatal(err)
	}
	if sr.Generation != 1 || !sr.Written || sr.Bytes == 0 {
		t.Fatalf("snapshot result: %+v", sr)
	}

	// Recover into a fresh catalog: both graphs come back with identical
	// edge counts, marked clean.
	cat2 := catalog.New()
	p2 := NewPersister(st, cat2)
	events, err := p2.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("recovery events: %+v", events)
	}
	for _, ev := range events {
		if ev.Err != nil {
			t.Fatalf("recovery of %q failed: %v", ev.Name, ev.Err)
		}
	}
	ea, err := cat2.Get("a")
	if err != nil {
		t.Fatal(err)
	}
	eaProps := ea.Properties()
	if eaProps.NEdges != e.Properties().NEdges {
		t.Fatalf("recovered edge count %d != %d", eaProps.NEdges, e.Properties().NEdges)
	}
	if d := p2.Dirty(); len(d) != 0 {
		t.Fatalf("freshly recovered graphs dirty: %v", d)
	}

	// Remove mirrors a catalog drop and reports the durable copy existed.
	if removed, err := p2.Remove("b"); err != nil || !removed {
		t.Fatalf("remove: removed=%v err=%v", removed, err)
	}
	if _, _, err := st.Load("b"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("removed graph still stored: %v", err)
	}
}

// TestLoadAllQuarantinesBadSnapshot: one damaged file must not take down
// recovery of its neighbours — the bad one is quarantined and reported.
func TestLoadAllQuarantinesBadSnapshot(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cat := catalog.New()
	p := NewPersister(st, cat)
	for _, n := range []string{"good", "doomed"} {
		if _, err := cat.Add(n, testGraph(t, 4)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.FlushDirty(); err != nil {
		t.Fatal(err)
	}
	// Flip one payload bit in doomed's snapshot file.
	meta, _, err := st.Load("doomed")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, snapFileName("doomed", meta.Generation, meta.Journal))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	cat2 := catalog.New()
	p2 := NewPersister(Must(Open(dir)), cat2)
	events, err := p2.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	var goodOK, doomedQuarantined bool
	for _, ev := range events {
		switch ev.Name {
		case "good":
			goodOK = ev.Err == nil
		case "doomed":
			doomedQuarantined = ev.Err != nil && errors.Is(ev.Err, ErrCorrupt)
		}
	}
	if !goodOK || !doomedQuarantined {
		t.Fatalf("recovery events: %+v", events)
	}
	if _, err := cat2.Get("good"); err != nil {
		t.Fatal("good graph not recovered")
	}
	if _, err := cat2.Get("doomed"); !errors.Is(err, catalog.ErrNotFound) {
		t.Fatal("doomed graph resurrected from corrupt bytes")
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Error("doomed snapshot not quarantined to *.corrupt")
	}
	// The quarantine is durable: a later boot does not retry the bad file.
	p3 := NewPersister(Must(Open(dir)), catalog.New())
	events, err = p3.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Name != "good" {
		t.Fatalf("post-quarantine boot events: %+v", events)
	}
}

// TestRecoverySeedsGenerationsAcrossRestart is the regression test for
// the silent post-restart data-loss bug: in-memory generations restart at
// zero each process life, so a Save guard comparing them against manifest
// generations persisted by the previous life used to drop every
// post-recovery snapshot whose (fresh, small) generation trailed the old
// (large) one — and a crash then rolled the graph back. Recovery now
// seeds catalog generations from the snapshot metadata, and only the
// Persister, which knows what this life made durable, vetoes a commit.
func TestRecoverySeedsGenerationsAcrossRestart(t *testing.T) {
	dir := t.TempDir()

	// Life 1: add, mutate three times (generation 3), flush.
	cat1 := catalog.New()
	p1 := NewPersister(Must(Open(dir)), cat1)
	if _, err := cat1.Add("g", testGraph(t, 4)); err != nil {
		t.Fatal(err)
	}
	e1, _ := cat1.Get("g")
	for i := 0; i < 3; i++ {
		if err := e1.Update(func(g *lagraph.Graph) error {
			return g.A.SetElement(0, i+1, float64(i+1))
		}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p1.FlushDirty(); err != nil {
		t.Fatal(err)
	}
	if meta, _, err := p1.Store().Load("g"); err != nil || meta.Generation != 3 {
		t.Fatalf("live generation = %d,%v, want 3", meta.Generation, err)
	}

	// Life 2: recover, replace the graph's contents, snapshot.
	cat2 := catalog.New()
	p2 := NewPersister(Must(Open(dir)), cat2)
	if _, err := p2.LoadAll(); err != nil {
		t.Fatal(err)
	}
	e2, err := cat2.Get("g")
	if err != nil {
		t.Fatal(err)
	}
	if gen := e2.Generation(); gen != 3 {
		t.Fatalf("recovered generation = %d, want 3 (seeded from snapshot)", gen)
	}
	replacement := testGraph(t, 5)
	wantEdges := replacement.NEdges()
	if _, err := cat2.Replace("g", replacement); err != nil {
		t.Fatal(err)
	}
	if d := p2.Dirty(); len(d) != 1 || d[0] != "g" {
		t.Fatalf("dirty after replace = %v, want [g]", d)
	}
	sr, err := p2.SnapshotOne("g")
	if err != nil {
		t.Fatal(err)
	}
	if !sr.Written {
		t.Fatalf("post-recovery snapshot silently dropped: %+v", sr)
	}

	// Life 3: the replacement — not the pre-restart contents — recovers.
	cat3 := catalog.New()
	p3 := NewPersister(Must(Open(dir)), cat3)
	if _, err := p3.LoadAll(); err != nil {
		t.Fatal(err)
	}
	e3, err := cat3.Get("g")
	if err != nil {
		t.Fatal(err)
	}
	if got := e3.Properties().NEdges; got != wantEdges {
		t.Fatalf("recovered %d edges, want the replacement's %d — graph rolled back across restart", got, wantEdges)
	}
}

// TestStaleManifestEntryDoesNotBlockRecreatedGraph: a manifest entry
// kept from a previous life because recovery failed for a reason other
// than corruption (here a catalog conflict) records a generation no
// graph in this life descends from. The first snapshot of the same-name
// graph created in this life must replace it, whatever the generations.
func TestStaleManifestEntryDoesNotBlockRecreatedGraph(t *testing.T) {
	dir := t.TempDir()

	// Life 1: a graph at generation 57.
	cat1 := catalog.New()
	p1 := NewPersister(Must(Open(dir)), cat1)
	e1, err := cat1.Add("g", testGraph(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	e1.SeedGeneration(57)
	if _, err := p1.FlushDirty(); err != nil {
		t.Fatal(err)
	}

	// Life 2: "g" already exists when recovery runs, so its snapshot is
	// kept on disk but not loaded; the catalog's graph starts at 0.
	cat2 := catalog.New()
	fresh := testGraph(t, 5)
	wantEdges := fresh.NEdges()
	if _, err := cat2.Add("g", fresh); err != nil {
		t.Fatal(err)
	}
	p2 := NewPersister(Must(Open(dir)), cat2)
	events, err := p2.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Err == nil || events[0].Quarantined {
		t.Fatalf("recovery events: %+v, want one kept failure", events)
	}
	if meta, _, err := p2.Store().Load("g"); err != nil || meta.Generation != 57 {
		t.Fatalf("kept entry: generation %d, %v", meta.Generation, err)
	}
	sr, err := p2.SnapshotOne("g")
	if err != nil {
		t.Fatal(err)
	}
	if !sr.Written || sr.Generation != 0 {
		t.Fatalf("first snapshot of the new graph: %+v, want generation 0 written", sr)
	}

	// Life 3: the new graph recovers.
	cat3 := catalog.New()
	events, err = NewPersister(Must(Open(dir)), cat3).LoadAll()
	if err != nil || len(events) != 1 || events[0].Err != nil {
		t.Fatalf("recovery: %+v, %v", events, err)
	}
	e3, err := cat3.Get("g")
	if err != nil {
		t.Fatal(err)
	}
	if got := e3.Properties().NEdges; got != wantEdges || e3.Generation() != 0 {
		t.Fatalf("recovered %d edges at generation %d, want the new graph's %d at 0", got, e3.Generation(), wantEdges)
	}
}

// TestSnapshotPinnedBeforeRebaseIsVetoed: ResetJournalFloor moves a
// graph into another LSN space without bumping its generation. A
// snapshot serialized before the reset carries a floor from the old
// space and must not commit; the next snapshot, at the same generation,
// must, carrying the new floor.
func TestSnapshotPinnedBeforeRebaseIsVetoed(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	st := Must(Open(dir))
	cat := catalog.New()
	p := NewPersister(st, cat)
	e, err := cat.Add("g", testGraph(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.FlushDirty(); err != nil {
		t.Fatal(err)
	}
	if err := e.Update(func(g *lagraph.Graph) error {
		return g.A.SetElement(0, 1, 1)
	}); err != nil {
		t.Fatal(err)
	}
	// The rebase lands after serialization, before the store commit,
	// exactly as the cluster's adoption does it.
	const head = 40
	p.afterSerialize = func(name string) {
		p.afterSerialize = nil
		e.SetJournalSeq(head)
		p.ResetJournalFloor(name, head)
	}
	sr, err := p.SnapshotOne("g")
	if err != nil {
		t.Fatal(err)
	}
	if sr.Written {
		t.Fatalf("snapshot straddling the rebase reported written: %+v", sr)
	}
	if p.HasDurable("g") {
		t.Fatal("HasDurable after the rebase, before any snapshot of the new space")
	}
	if meta, _, err := st.Load("g"); err != nil || meta.Generation != 0 || meta.Journal != 0 {
		t.Fatalf("live snapshot after the veto: %+v, %v; want the untouched generation 0", meta, err)
	}
	sr, err = p.SnapshotOne("g")
	if err != nil || !sr.Written || sr.Generation != 1 {
		t.Fatalf("snapshot after the rebase: %+v, %v; want generation 1 written", sr, err)
	}
	if meta, _, err := st.Load("g"); err != nil || meta.Generation != 1 || meta.Journal != head {
		t.Fatalf("live snapshot: %+v, %v; want generation 1 at floor %d", meta, err, head)
	}
	if !p.HasDurable("g") {
		t.Fatal("no durable record after the new snapshot landed")
	}
}

// TestOpensPreviousReleaseDataDir opens a data directory in the layout the
// previous release wrote: a manifest with per-boot "epoch" keys and a nonzero
// frame generation, and a snapshot named "<name>-<gen>.snap". The frame
// format is unchanged, so recovery is bit-for-bit, and the first
// snapshot after the boot writes and replaces the old file.
func TestOpensPreviousReleaseDataDir(t *testing.T) {
	dir := t.TempDir()
	payload := graphBytes(t, testGraph(t, 4))
	writeFrameFile := func(file string, meta Meta, payload []byte) {
		t.Helper()
		var buf bytes.Buffer
		if err := WriteFrame(&buf, meta, payload); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, file), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeFrameFile("g-5.snap", Meta{Name: "g", Kind: "undirected", Generation: 5}, payload)
	writeFrameFile(manifestName, Meta{Name: manifestName, Kind: "manifest", Generation: 9},
		[]byte(`{"epoch":3,"graphs":{"g":{"file":"g-5.snap","generation":5,"epoch":3}}}`))

	cat := catalog.New()
	p := NewPersister(Must(Open(dir)), cat)
	events, err := p.LoadAll()
	if err != nil || len(events) != 1 || events[0].Err != nil {
		t.Fatalf("recovery: %+v, %v", events, err)
	}
	e, err := cat.Get("g")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if _, err := e.Snapshot(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), payload) || e.Generation() != 5 {
		t.Fatalf("recovered generation %d, bytes equal %v; want 5, true", e.Generation(), bytes.Equal(got.Bytes(), payload))
	}
	if err := e.Update(func(g *lagraph.Graph) error {
		return g.A.SetElement(0, 1, 1)
	}); err != nil {
		t.Fatal(err)
	}
	sr, err := p.SnapshotOne("g")
	if err != nil || !sr.Written || sr.Generation != 6 {
		t.Fatalf("first snapshot after the upgrade: %+v, %v", sr, err)
	}
	if _, err := os.Stat(filepath.Join(dir, "g-5.snap")); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("old-scheme snapshot file not replaced: %v", err)
	}
	events, err = NewPersister(Must(Open(dir)), catalog.New()).LoadAll()
	if err != nil || len(events) != 1 || events[0].Err != nil || events[0].Meta.Generation != 6 {
		t.Fatalf("recovery after the upgrade: %+v, %v", events, err)
	}
}

// TestDropDuringSnapshotDoesNotResurrect: a Remove landing between a
// snapshot's serialization and its store commit must veto the commit —
// otherwise the dropped graph's snapshot re-enters the manifest and the
// graph resurrects on the next boot.
func TestDropDuringSnapshotDoesNotResurrect(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	st := Must(Open(dir))
	cat := catalog.New()
	p := NewPersister(st, cat)
	if _, err := cat.Add("g", testGraph(t, 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := p.FlushDirty(); err != nil {
		t.Fatal(err)
	}
	// Dirty the graph so the snapshot below has something to write.
	e, _ := cat.Get("g")
	if err := e.Update(func(g *lagraph.Graph) error {
		return g.A.SetElement(0, 1, 1)
	}); err != nil {
		t.Fatal(err)
	}
	// The drop lands after serialization, before the store commit.
	p.afterSerialize = func(name string) {
		p.afterSerialize = nil
		if err := cat.Drop(name); err != nil {
			t.Errorf("drop: %v", err)
		}
		if _, err := p.Remove(name); err != nil {
			t.Errorf("remove: %v", err)
		}
	}
	sr, err := p.SnapshotOne("g")
	if err != nil {
		t.Fatal(err)
	}
	if sr.Written {
		t.Fatalf("vetoed snapshot reported written: %+v", sr)
	}
	if names := st.Names(); len(names) != 0 {
		t.Fatalf("dropped graph re-entered the manifest: %v", names)
	}
	// No stale dirty-tracking state either: a re-add of the same name is
	// dirty and flushable as if the name were brand new.
	if _, err := cat.Add("g", testGraph(t, 3)); err != nil {
		t.Fatal(err)
	}
	if d := p.Dirty(); len(d) != 1 || d[0] != "g" {
		t.Fatalf("re-added graph not dirty: %v", d)
	}
	sr, err = p.SnapshotOne("g")
	if err != nil || !sr.Written {
		t.Fatalf("re-added graph snapshot: %+v, %v", sr, err)
	}
	events, err := NewPersister(Must(Open(dir)), catalog.New()).LoadAll()
	if err != nil || len(events) != 1 || events[0].Err != nil {
		t.Fatalf("recovery after drop race: %+v, %v", events, err)
	}
}

// TestLoadAllKeepsFileOnNonCorruptError: only corruption quarantines. A
// decode callback failing for any other reason (catalog conflict,
// transient resource trouble) must leave the valid durable copy and its
// manifest entry untouched, so a later boot can still recover it.
func TestLoadAllKeepsFileOnNonCorruptError(t *testing.T) {
	dir := t.TempDir()
	st := Must(Open(dir))
	payload := graphBytes(t, testGraph(t, 4))
	if _, err := st.Save(Meta{Name: "g", Kind: "undirected", Generation: 1}, payload); err != nil {
		t.Fatal(err)
	}
	transient := errors.New("no room in the catalog today")
	events, err := st.LoadAll(func(Meta, []byte) error { return transient })
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || !errors.Is(events[0].Err, transient) || events[0].Quarantined {
		t.Fatalf("events: %+v", events)
	}
	if _, err := os.Stat(filepath.Join(dir, snapFileName("g", 1, 0))); err != nil {
		t.Fatal("valid snapshot destroyed over a non-corruption error")
	}
	if _, _, err := st.Load("g"); err != nil {
		t.Fatalf("manifest entry dropped over a non-corruption error: %v", err)
	}
	// The next attempt (here: a permissive callback) recovers normally.
	events, err = st.LoadAll(func(Meta, []byte) error { return nil })
	if err != nil || len(events) != 1 || events[0].Err != nil {
		t.Fatalf("retry recovery: %+v, %v", events, err)
	}
}

// TestDecodeGraphRejectsKindMismatch: boot recovery and cluster install
// share DecodeGraph, so a frame whose metadata contradicts its payload's
// kind is corruption on both paths (LoadAll quarantines it).
func TestDecodeGraphRejectsKindMismatch(t *testing.T) {
	payload := graphBytes(t, testGraph(t, 4)) // undirected
	if _, err := DecodeGraph(Meta{Name: "g", Kind: "directed"}, payload); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("kind mismatch: %v, want ErrCorrupt", err)
	}
	g, err := DecodeGraph(Meta{Name: "g", Kind: "undirected"}, payload)
	if err != nil || g.Kind != lagraph.Undirected {
		t.Fatalf("matching kind: %v, %v", g, err)
	}
}

// TestDirtyUnlocksBeforeCatalogScan is the regression test for the
// Dirty() restructure: the durable generations are copied under p.mu and
// the catalog consulted with no persister lock held (the repo-wide lock
// order is catalog→store; grblint's lock-discipline check forbids the
// inverse). It pins classification across the save/update/remove
// transitions and then hammers Dirty/FlushDirty against a concurrent
// catalog writer — under -race, the shape that used to hold p.mu across
// catalog calls.
func TestDirtyUnlocksBeforeCatalogScan(t *testing.T) {
	leakcheck.Check(t)
	st := Must(Open(t.TempDir()))
	cat := catalog.New()
	p := NewPersister(st, cat)

	if _, err := cat.Add("a", testGraph(t, 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.Add("b", testGraph(t, 4)); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(p.Dirty(), ","); got != "a,b" {
		t.Fatalf("fresh graphs should be dirty: %q", got)
	}
	if _, err := p.FlushDirty(); err != nil {
		t.Fatal(err)
	}
	if got := p.Dirty(); len(got) != 0 {
		t.Fatalf("flushed graphs still dirty: %v", got)
	}
	e := Must(cat.Get("a"))
	if err := e.Update(func(g *lagraph.Graph) error {
		return g.A.SetElement(0, 1, 1)
	}); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(p.Dirty(), ","); got != "a" {
		t.Fatalf("after update, dirty = %q, want \"a\"", got)
	}

	// Concurrent add/drop churn while the persister classifies and
	// flushes: correctness here is "no deadlock, no race, no error" — a
	// graph dropped mid-scan is re-classified on the next sweep.
	churn := testGraph(t, 3)
	stop := make(chan struct{})
	churnDone := make(chan struct{})
	go func() {
		defer close(churnDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			name := fmt.Sprintf("tmp%d", i%4)
			if _, err := cat.Add(name, churn); err == nil {
				_ = cat.Drop(name)
			}
		}
	}()
	for i := 0; i < 50; i++ {
		_ = p.Dirty()
		if _, err := p.FlushDirty(); err != nil {
			t.Errorf("flush during churn: %v", err)
			break
		}
	}
	close(stop)
	<-churnDone
}

// Must unwraps an (value, error) pair in test plumbing.
func Must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// TestStoreNameEscaping: hostile graph names stay inside the data
// directory and round-trip through save/load.
func TestStoreNameEscaping(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	hostile := []string{"../escape", "a/b/c", ".hidden", "", "name with spaces", "_5f"}
	payload := graphBytes(t, testGraph(t, 3))
	for i, name := range hostile {
		if _, err := st.Save(Meta{Name: name, Kind: "undirected", Generation: uint64(i)}, payload); err != nil {
			t.Fatalf("save %q: %v", name, err)
		}
	}
	for _, name := range hostile {
		if _, _, err := st.Load(name); err != nil {
			t.Fatalf("load %q: %v", name, err)
		}
	}
	// Nothing escaped the directory.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		if strings.Contains(ent.Name(), "..") || strings.Contains(ent.Name(), "/") {
			t.Fatalf("unsafe file name %q", ent.Name())
		}
	}
	if _, err := os.Stat(filepath.Join(filepath.Dir(dir), "escape")); err == nil {
		t.Fatal("path traversal escaped the data directory")
	}
}
