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

// mutate applies fn to e's graph through the catalog's write path.
func mutate(t testing.TB, e *catalog.Entry, fn func(g *lagraph.Graph) error) {
	t.Helper()
	if err := e.Ingest(func(g *lagraph.Graph) (bool, error) { return true, fn(g) }); err != nil {
		t.Fatal(err)
	}
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

// TestStoreReopenServesSnapshot proves a snapshot survives a clean
// process boundary: a second Open on the same directory serves the same
// bytes.
func TestStoreReopenServesSnapshot(t *testing.T) {
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

// TestCrashMidWriteKeepsPreviousGood rebuilds every state a kill -9 can
// leave in the data directory and proves each reboot recovers a complete
// copy of every graph it should, and nothing else:
//
//   - mid-write: stray temp files (one torn, one complete but never
//     renamed) next to the live file, which keeps serving the old copy;
//   - after the rename, before anything else: the new copy is live;
//   - a Remove before its unlink: the graph recovers whole;
//   - a Remove after its unlink: the graph never comes back, even with
//     a complete temp file of it left behind by a vetoed snapshot.
func TestCrashMidWriteKeepsPreviousGood(t *testing.T) {
	good := graphBytes(t, testGraph(t, 4))
	newer := graphBytes(t, testGraph(t, 5))
	g2 := Meta{Name: "g", Kind: "undirected", Generation: 2}
	for _, tc := range []struct {
		name  string
		crash func(t *testing.T, dir string, st *Store)
		want  map[string]uint64 // graph → recovered generation
	}{
		{"temp file not renamed", func(t *testing.T, dir string, st *Store) {
			if err := os.WriteFile(filepath.Join(dir, ".tmp-torn"), []byte("torn half-written frame"), 0o644); err != nil {
				t.Fatal(err)
			}
			writeFrameFile(t, filepath.Join(dir, ".tmp-complete"), g2, newer)
		}, map[string]uint64{"g": 1, "h": 1}},
		{"rename landed", func(t *testing.T, dir string, st *Store) {
			if _, err := st.Save(g2, newer); err != nil {
				t.Fatal(err)
			}
		}, map[string]uint64{"g": 2, "h": 1}},
		{"remove before unlink", func(t *testing.T, dir string, st *Store) {}, map[string]uint64{"g": 1, "h": 1}},
		{"remove after unlink", func(t *testing.T, dir string, st *Store) {
			writeFrameFile(t, filepath.Join(dir, ".tmp-vetoed"), g2, newer)
			if removed, err := st.Remove("g", func() {}); err != nil || !removed {
				t.Fatalf("remove: %v, %v", removed, err)
			}
		}, map[string]uint64{"h": 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			st := Must(Open(dir))
			for _, name := range []string{"g", "h"} {
				if _, err := st.Save(Meta{Name: name, Kind: "undirected", Generation: 1}, good); err != nil {
					t.Fatal(err)
				}
			}
			tc.crash(t, dir, st)
			got := map[string]uint64{}
			events, err := Must(Open(dir)).LoadAll(func(meta Meta, payload []byte) error {
				got[meta.Name] = meta.Generation
				if want := map[uint64][]byte{1: good, 2: newer}[meta.Generation]; !bytes.Equal(payload, want) {
					t.Errorf("%s: generation %d payload is not the one written", meta.Name, meta.Generation)
				}
				return nil
			})
			if err != nil || len(events) != len(tc.want) {
				t.Fatalf("recovery: %+v, %v", events, err)
			}
			if fmt.Sprint(got) != fmt.Sprint(tc.want) {
				t.Fatalf("recovered %v, want %v", got, tc.want)
			}
		})
	}
}

// writeFrameFile writes one frame to path.
func writeFrameFile(t *testing.T, path string, meta Meta, payload []byte) {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteFrame(&buf, meta, payload); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// writeLegacyDir lays out a data directory the way earlier releases did:
// one frame file per entry of files, all with the given payload, plus a
// MANIFEST frame holding manifest, unless it is nil.
func writeLegacyDir(t *testing.T, dir string, files map[string]Meta, payload []byte, manifest []byte) {
	t.Helper()
	for file, meta := range files {
		writeFrameFile(t, filepath.Join(dir, file), meta, payload)
	}
	if manifest != nil {
		writeFrameFile(t, filepath.Join(dir, legacyManifest), Meta{Name: legacyManifest, Kind: "manifest", Generation: 9}, manifest)
	}
}

// dirFiles lists a directory's file names, sorted.
func dirFiles(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, ent := range ents {
		names = append(names, ent.Name())
	}
	return names
}

// TestMigrateCorruptLegacyManifest: when an earlier release's MANIFEST is
// destroyed, the migration falls back to the rescan those releases did —
// the highest-generation valid snapshot per graph wins and damaged files
// are quarantined, the manifest with them — and leaves only the new
// layout behind.
func TestMigrateCorruptLegacyManifest(t *testing.T) {
	dir := t.TempDir()
	gold := graphBytes(t, testGraph(t, 4))
	writeLegacyDir(t, dir, map[string]Meta{
		"keep-5.2.snap": {Name: "keep", Kind: "undirected", Generation: 5, Journal: 2},
		// An older generation lingering on disk (a crash between the
		// manifest write and the old file's delete).
		"keep-2.snap": {Name: "keep", Kind: "undirected", Generation: 2},
	}, gold, nil)
	for file, data := range map[string]string{
		"broken-1.0.snap": "junk",
		legacyManifest:    "not a manifest",
	} {
		if err := os.WriteFile(filepath.Join(dir, file), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	st := Must(Open(dir))
	meta, payload, err := st.Load("keep")
	if err != nil {
		t.Fatal(err)
	}
	if meta.Generation != 5 || meta.Journal != 2 || !bytes.Equal(payload, gold) {
		t.Fatalf("rescan picked %+v, want generation 5 at floor 2", meta)
	}
	if names := st.Names(); len(names) != 1 {
		t.Fatalf("live graphs after migration: %v, want [keep]", names)
	}
	// The damaged file and manifest are quarantined, not deleted; the
	// superseded snapshot is gone.
	want := []string{legacyManifest + ".corrupt", "broken-1.0.snap.corrupt", "keep.lgsnap"}
	if got := dirFiles(t, dir); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("directory after migration: %v, want %v", got, want)
	}
	if st.Stats().Quarantined != 2 {
		t.Errorf("quarantine counter = %d, want 2", st.Stats().Quarantined)
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
		mutate(t, e, func(g *lagraph.Graph) error {
			return g.A.SetElement(0, j, float64(j))
		})
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
	mutate(t, e, func(g *lagraph.Graph) error {
		if err := g.A.SetElement(0, 1, 1); err != nil {
			return err
		}
		return g.A.SetElement(1, 0, 1)
	})
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
	path := filepath.Join(dir, fileName("doomed"))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	// A valid frame under another graph's file name, and a file whose
	// name no graph name escapes to, are corrupt too.
	goodRaw, err := os.ReadFile(filepath.Join(dir, fileName("good")))
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range []string{fileName("impostor"), "x_zz" + snapExt} {
		if err := os.WriteFile(filepath.Join(dir, file), goodRaw, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	cat2 := catalog.New()
	p2 := NewPersister(Must(Open(dir)), cat2)
	events, err := p2.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	quarantined := 0
	goodOK := false
	for _, ev := range events {
		switch {
		case ev.Name == "good":
			goodOK = ev.Err == nil
		case errors.Is(ev.Err, ErrCorrupt) && ev.Quarantined:
			quarantined++
		}
	}
	if len(events) != 4 || !goodOK || quarantined != 3 {
		t.Fatalf("recovery events: %+v", events)
	}
	if _, err := cat2.Get("impostor"); !errors.Is(err, catalog.ErrNotFound) {
		t.Fatal("a frame recovered under another graph's file name")
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
// zero each process life, so a Save guard comparing them against
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
		mutate(t, e1, func(g *lagraph.Graph) error {
			return g.A.SetElement(0, i+1, float64(i+1))
		})
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
	mutate(t, e2, func(g *lagraph.Graph) error {
		g.A, g.Kind = replacement.A, replacement.Kind
		return nil
	})
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

// TestKeptSnapshotDoesNotBlockRecreatedGraph: a snapshot file kept
// from a previous life because recovery failed for a reason other
// than corruption (here a catalog conflict) records a generation no
// graph in this life descends from. The first snapshot of the same-name
// graph created in this life must replace it, whatever the generations.
func TestKeptSnapshotDoesNotBlockRecreatedGraph(t *testing.T) {
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
	mutate(t, e, func(g *lagraph.Graph) error {
		return g.A.SetElement(0, 1, 1)
	})
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

// TestOpensPreviousReleaseDataDir opens a data directory in the oldest
// layout: a manifest with per-boot "epoch" keys and a nonzero frame
// generation, and a snapshot named "<name>-<gen>.snap". The
// frame format is unchanged, so recovery is bit-for-bit; Open leaves only
// the new layout behind, and the first snapshot after the boot replaces
// the migrated file.
func TestOpensPreviousReleaseDataDir(t *testing.T) {
	dir := t.TempDir()
	payload := graphBytes(t, testGraph(t, 4))
	writeLegacyDir(t, dir, map[string]Meta{"g-5.snap": {Name: "g", Kind: "undirected", Generation: 5}}, payload,
		[]byte(`{"epoch":3,"graphs":{"g":{"file":"g-5.snap","generation":5,"epoch":3}}}`))

	cat := catalog.New()
	p := NewPersister(Must(Open(dir)), cat)
	if got := dirFiles(t, dir); fmt.Sprint(got) != "[g.lgsnap]" {
		t.Fatalf("directory after migration: %v", got)
	}
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
	mutate(t, e, func(g *lagraph.Graph) error {
		return g.A.SetElement(0, 1, 1)
	})
	sr, err := p.SnapshotOne("g")
	if err != nil || !sr.Written || sr.Generation != 6 {
		t.Fatalf("first snapshot after the upgrade: %+v, %v", sr, err)
	}
	events, err = NewPersister(Must(Open(dir)), catalog.New()).LoadAll()
	if err != nil || len(events) != 1 || events[0].Err != nil || events[0].Meta.Generation != 6 {
		t.Fatalf("recovery after the upgrade: %+v, %v", events, err)
	}
}

// legacyFloorNamedDir lays out a directory in the last manifest layout:
// "<name>-<gen>.<journal>.snap" files plus a manifest, for two graphs that each still have a superseded file on disk
// (the manifest was repointed, the crash came before the old file's
// delete). Graph "a-1" is there to prove the renames keep its file apart
// from graph "a"'s.
func legacyFloorNamedDir(t *testing.T, dir string, payload []byte) {
	t.Helper()
	writeLegacyDir(t, dir, map[string]Meta{
		"a-7.40.snap":     {Name: "a", Kind: "undirected", Generation: 7, Journal: 40},
		"a-3.10.snap":     {Name: "a", Kind: "undirected", Generation: 3, Journal: 10},
		"a-1-2.0.snap":    {Name: "a-1", Kind: "undirected", Generation: 2},
		"b_2fc-9.41.snap": {Name: "b/c", Kind: "undirected", Generation: 9, Journal: 41},
		"b_2fc-8.41.snap": {Name: "b/c", Kind: "undirected", Generation: 8, Journal: 41},
	}, payload, []byte(`{"graphs":{`+
		`"a":{"file":"a-7.40.snap","generation":7},`+
		`"a-1":{"file":"a-1-2.0.snap","generation":2},`+
		`"b/c":{"file":"b_2fc-9.41.snap","generation":9}}}`))
}

// wantMigrated opens dir and checks that it then holds exactly the
// migrated live set of legacyFloorNamedDir (plus the quarantined manifest, when
// it was damaged) and that every graph recovers bit-for-bit.
func wantMigrated(t *testing.T, dir string, payload []byte, damaged bool) {
	t.Helper()
	st := Must(Open(dir))
	want := []string{"a-1.lgsnap", "a.lgsnap", "b_2fc.lgsnap"}
	if damaged {
		want = append([]string{legacyManifest + ".corrupt"}, want...)
	}
	if got := dirFiles(t, dir); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("directory after migration: %v, want %v", got, want)
	}
	got := map[string]string{}
	events, err := st.LoadAll(func(meta Meta, p []byte) error {
		if !bytes.Equal(p, payload) {
			t.Errorf("%s: payload changed in migration", meta.Name)
		}
		got[meta.Name] = fmt.Sprintf("%d.%d", meta.Generation, meta.Journal)
		return nil
	})
	if err != nil || len(events) != 3 {
		t.Fatalf("recovery: %+v, %v", events, err)
	}
	if fmt.Sprint(got) != "map[a:7.40 a-1:2.0 b/c:9.41]" {
		t.Fatalf("recovered %v", got)
	}
}

// TestMigrateFloorNamedDataDir: the manifest names the live file per graph, and
// only those survive, under their new names.
func TestMigrateFloorNamedDataDir(t *testing.T) {
	dir := t.TempDir()
	payload := graphBytes(t, testGraph(t, 3))
	legacyFloorNamedDir(t, dir, payload)
	wantMigrated(t, dir, payload, false)
}

// TestMigrationResumesAfterCrash rebuilds the states a crash partway
// through the migration leaves — some live files renamed, some superseded
// files deleted, the manifest (intact or damaged) still present — and
// proves the next Open finishes the job without resurrecting a
// superseded snapshot. The damaged-manifest cases are the sharp ones: the
// rescan then sees only the superseded "a-3.10.snap" for graph "a", and
// must not rename it over the already-migrated generation 7.
func TestMigrationResumesAfterCrash(t *testing.T) {
	payload := graphBytes(t, testGraph(t, 3))
	rename := func(from, to string) func(t *testing.T, dir string) {
		return func(t *testing.T, dir string) {
			if err := os.Rename(filepath.Join(dir, from), filepath.Join(dir, to)); err != nil {
				t.Fatal(err)
			}
		}
	}
	remove := func(file string) func(t *testing.T, dir string) {
		return func(t *testing.T, dir string) {
			if err := os.Remove(filepath.Join(dir, file)); err != nil {
				t.Fatal(err)
			}
		}
	}
	damage := func(t *testing.T, dir string) {
		if err := os.WriteFile(filepath.Join(dir, legacyManifest), []byte("torn"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	renamedA := rename("a-7.40.snap", "a.lgsnap")
	allRenamed := []func(*testing.T, string){renamedA,
		rename("a-1-2.0.snap", "a-1.lgsnap"), rename("b_2fc-9.41.snap", "b_2fc.lgsnap")}
	for _, tc := range []struct {
		name    string
		damaged bool
		steps   []func(*testing.T, string)
	}{
		{"one live file renamed", false, []func(*testing.T, string){renamedA}},
		{"all renamed, one superseded file deleted", false, append(allRenamed[:3:3], remove("a-3.10.snap"))},
		{"all legacy files gone, manifest left", false, append(allRenamed[:3:3], remove("a-3.10.snap"), remove("b_2fc-8.41.snap"))},
		{"damaged manifest, one live file renamed", true, []func(*testing.T, string){damage, renamedA}},
		{"damaged manifest, all renamed", true, append([]func(*testing.T, string){damage}, allRenamed...)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			legacyFloorNamedDir(t, dir, payload)
			for _, step := range tc.steps {
				step(t, dir)
			}
			wantMigrated(t, dir, payload, tc.damaged)
		})
	}
}

// TestDropDuringSnapshotDoesNotResurrect: a Remove landing between a
// snapshot's serialization and its store commit must veto the commit —
// otherwise the dropped graph's snapshot file comes back and the
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
	mutate(t, e, func(g *lagraph.Graph) error {
		return g.A.SetElement(0, 1, 1)
	})
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
		t.Fatalf("dropped graph re-entered the store: %v", names)
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
// transient resource trouble) must leave the valid durable copy
// untouched, so a later boot can still recover it.
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
	if _, err := os.Stat(filepath.Join(dir, fileName("g"))); err != nil {
		t.Fatal("valid snapshot destroyed over a non-corruption error")
	}
	if _, _, err := st.Load("g"); err != nil {
		t.Fatalf("snapshot unreadable after a non-corruption error: %v", err)
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
	mutate(t, e, func(g *lagraph.Graph) error {
		return g.A.SetElement(0, 1, 1)
	})
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
		if got, ok := unescapeName(escapeName(name)); !ok || got != name {
			t.Fatalf("unescape(escape(%q)) = %q, %v", name, got, ok)
		}
	}
	if got := fmt.Sprintf("%q", st.Names()); got != `["" "../escape" ".hidden" "_5f" "a/b/c" "name with spaces"]` {
		t.Fatalf("Names = %q", got)
	}
	for _, foreign := range []string{"", "a_", "a_5", "_zz", "_61", "_5F", ".x", "a/b"} {
		if name, ok := unescapeName(foreign); ok {
			t.Fatalf("unescape(%q) = %q, want rejection", foreign, name)
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
