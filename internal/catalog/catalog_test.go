package catalog

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"lagraph/internal/gen"
	"lagraph/internal/grb"
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

func TestRegistry(t *testing.T) {
	c := New()
	g := testGraph(t, 4)
	if _, err := c.Add("g", g); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Add("g", g); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate Add: want ErrExists, got %v", err)
	}
	if _, err := c.Get("missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get missing: want ErrNotFound, got %v", err)
	}
	if _, err := c.Add("h", testGraph(t, 3)); err != nil {
		t.Fatal(err)
	}
	names := c.Names()
	if len(names) != 2 || names[0] != "g" || names[1] != "h" {
		t.Fatalf("Names = %v, want [g h]", names)
	}
	if err := c.Drop("h"); err != nil {
		t.Fatal(err)
	}
	if err := c.Drop("h"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double Drop: want ErrNotFound, got %v", err)
	}
	if s := c.Stats(); s.Graphs != 1 {
		t.Fatalf("Stats.Graphs = %d, want 1", s.Graphs)
	}
}

func TestWarmLifecycle(t *testing.T) {
	c := New()
	e, err := c.Add("g", testGraph(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	p := e.Properties()
	if !p.Warm {
		t.Fatal("adjacency not assembled after Properties")
	}
	if p.Generation != 0 {
		t.Fatalf("fresh generation = %d, want 0", p.Generation)
	}
	if !p.Symmetric {
		t.Fatal("undirected generated graph should be symmetric")
	}
	// The generated graph arrives assembled: no read needed the
	// exclusive lock.
	if c.Stats().Warms != 0 {
		t.Fatalf("Warms = %d, want 0", c.Stats().Warms)
	}

	// A mutation invalidates and bumps the generation. An Ingest leaves
	// its batch pending: the next read assembles it once, under the
	// exclusive lock, and later reads share the result.
	before := p.NEdges
	err = e.Ingest(func(g *lagraph.Graph) (bool, error) {
		// Both directions, to keep the graph symmetric.
		return true, g.A.SetElements([]int{1, 10}, []int{10, 1}, []float64{1, 1}, nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	if e.Generation() != 1 {
		t.Fatalf("generation after Ingest = %d, want 1", e.Generation())
	}
	for r := 0; r < 2; r++ {
		if p = e.Properties(); !p.Warm || p.Generation != 1 || !p.Symmetric {
			t.Fatalf("after ingest: warm=%v gen=%d symmetric=%v", p.Warm, p.Generation, p.Symmetric)
		}
	}
	if p.NEdges < before {
		t.Fatalf("NEdges shrank: %d → %d", before, p.NEdges)
	}
	if c.Stats().Warms != 1 {
		t.Fatalf("Warms after Ingest and two reads = %d, want 1", c.Stats().Warms)
	}
}

// TestReplace: swapping the adjacency through Ingest, as a replace load
// does, keeps the Entry identity and bumps the generation.
func TestReplace(t *testing.T) {
	c := New()
	e1, err := c.Add("g", testGraph(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	n1 := e1.Properties().N
	next := testGraph(t, 4)
	if err := e1.Ingest(func(g *lagraph.Graph) (bool, error) {
		g.A, g.Kind = next.A, next.Kind
		return true, nil
	}); err != nil {
		t.Fatal(err)
	}
	e2, err := c.Get("g")
	if err != nil {
		t.Fatal(err)
	}
	if e1 != e2 {
		t.Fatal("a swap must keep the Entry identity")
	}
	p := e2.Properties()
	if p.N == n1 {
		t.Fatal("Ingest did not swap the graph")
	}
	if p.Generation == 0 {
		t.Fatal("a swap must bump the generation")
	}
}

// TestCanceledQueryLeavesCacheIntact is the acceptance criterion: a
// canceled query returns an error matching grb.ErrCanceled within one
// iteration and must not corrupt the entry's cached properties — the next
// uncanceled query over the same warm entry returns the checksum-identical
// result of a never-canceled run.
func TestCanceledQueryLeavesCacheIntact(t *testing.T) {
	c := New()
	e, err := c.Add("g", testGraph(t, 8))
	if err != nil {
		t.Fatal(err)
	}
	want := bfsChecksum(t, e) // clean baseline

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already done: the first iteration check must fire
	err = e.View(func(g *lagraph.Graph) error {
		_, err := lagraph.BFSLevels(g, 0, lagraph.WithContext(ctx))
		return err
	})
	if !errors.Is(err, grb.ErrCanceled) {
		t.Fatalf("canceled BFS: want grb.ErrCanceled, got %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled BFS: cause not preserved: %v", err)
	}

	if got := bfsChecksum(t, e); got != want {
		t.Fatalf("cached properties corrupted by canceled query: checksum %s != %s", got, want)
	}
	if p := e.Properties(); !p.Warm || p.Generation != 0 {
		t.Fatalf("cancellation must not invalidate: warm=%v gen=%d", p.Warm, p.Generation)
	}
	if got := c.Stats().Warms; got != 0 {
		t.Fatalf("cancellation caused %d assemblies, want 0", got)
	}
}

// bfsChecksum runs BFS from vertex 0 under View and digests the result.
func bfsChecksum(t testing.TB, e *Entry) string {
	t.Helper()
	var sum string
	err := e.View(func(g *lagraph.Graph) error {
		levels, err := lagraph.BFSLevels(g, 0)
		if err != nil {
			return err
		}
		is, xs := levels.ExtractTuples()
		sum = fmt.Sprintf("%d/%v/%v", levels.Nvals(), is[len(is)-1], xs[len(xs)-1])
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return sum
}

// TestConcurrentReadersOneWriter is the -race stress test: 8+ reader
// goroutines run queries through View while one writer keeps mutating and
// invalidating through Ingest. Readers assert that within one generation
// results are bitwise identical to a serial run of the same generation.
func TestConcurrentReadersOneWriter(t *testing.T) {
	leakcheck.Check(t)
	const (
		readers  = 8
		queries  = 24 // per reader
		writes   = 10
		srcCount = 4
	)
	c := New()
	e, err := c.Add("g", testGraph(t, 8))
	if err != nil {
		t.Fatal(err)
	}

	// serial[gen][src] is the reference checksum, computed on first use
	// under a lock (serial execution by construction).
	type key struct {
		gen uint64
		src int
	}
	var refMu sync.Mutex
	reference := map[key]string{}

	checksum := func(g *lagraph.Graph, src int) (string, error) {
		levels, err := lagraph.BFSLevels(g, src)
		if err != nil {
			return "", err
		}
		is, xs := levels.ExtractTuples()
		h := uint64(1469598103934665603)
		for k := range is {
			h = (h ^ uint64(is[k])) * 1099511628211
			h = (h ^ uint64(uint32(xs[k]))) * 1099511628211
		}
		return fmt.Sprintf("%d:%016x", levels.Nvals(), h), nil
	}

	var wg sync.WaitGroup
	errc := make(chan error, readers+1)

	// Writer: mutate + invalidate, with pauses so readers see both cache
	// hits and rebuilds across generations.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for w := 0; w < writes; w++ {
			err := e.Ingest(func(g *lagraph.Graph) (bool, error) {
				i, j := (w*17+1)%g.N(), (w*31+3)%g.N()
				if i == j {
					j = (j + 1) % g.N()
				}
				if err := g.A.SetElement(i, j, 1); err != nil {
					return true, err
				}
				return true, g.A.SetElement(j, i, 1)
			})
			if err != nil {
				errc <- fmt.Errorf("writer: %v", err)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for q := 0; q < queries; q++ {
				src := (r + q) % srcCount
				var got string
				var gen uint64
				err := e.View(func(g *lagraph.Graph) error {
					gen = e.Generation()
					var err error
					got, err = checksum(g, src)
					return err
				})
				if err != nil {
					errc <- fmt.Errorf("reader %d: %v", r, err)
					return
				}
				// Compare against the serial reference for this generation;
				// the first arrival establishes it.
				refMu.Lock()
				want, seen := reference[key{gen, src}]
				if !seen {
					reference[key{gen, src}] = got
				}
				refMu.Unlock()
				if seen && want != got {
					errc <- fmt.Errorf("reader %d: gen %d src %d: checksum %s != serial %s",
						r, gen, src, got, want)
					return
				}
			}
		}(r)
	}

	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if s := c.Stats(); s.Ingests != writes {
		t.Fatalf("Ingests = %d, want %d", s.Ingests, writes)
	}
}

// TestSnapshotterVsReadersVsWriter is the persistence -race stress test:
// a background snapshotter repeatedly serializes the entry while 8
// readers query and 1 writer mutates. The durability contract under
// test: a snapshot pinned at generation g is bitwise identical to every
// other snapshot of generation g (the first arrival is the serial
// reference), no matter how many queries share the read lock while the
// bytes stream out.
func TestSnapshotterVsReadersVsWriter(t *testing.T) {
	leakcheck.Check(t)
	const (
		readers = 8
		queries = 16 // per reader
		writes  = 8
		snaps   = 40
	)
	c := New()
	e, err := c.Add("g", testGraph(t, 7))
	if err != nil {
		t.Fatal(err)
	}

	var refMu sync.Mutex
	reference := map[uint64][]byte{} // generation → first snapshot bytes

	var wg sync.WaitGroup
	errc := make(chan error, readers+2)
	done := make(chan struct{})

	// Writer.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for w := 0; w < writes; w++ {
			err := e.Ingest(func(g *lagraph.Graph) (bool, error) {
				i, j := (w*13+2)%g.N(), (w*29+5)%g.N()
				if i == j {
					j = (j + 1) % g.N()
				}
				if err := g.A.SetElement(i, j, 1); err != nil {
					return true, err
				}
				return true, g.A.SetElement(j, i, 1)
			})
			if err != nil {
				errc <- fmt.Errorf("writer: %v", err)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	// Background snapshotter: keeps serializing until the writer is done,
	// then takes a final snapshot of the settled state.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for s := 0; ; s++ {
			var buf bytes.Buffer
			info, err := e.Snapshot(&buf)
			if err != nil {
				errc <- fmt.Errorf("snapshotter: %v", err)
				return
			}
			refMu.Lock()
			want, seen := reference[info.Generation]
			if !seen {
				reference[info.Generation] = append([]byte(nil), buf.Bytes()...)
			}
			refMu.Unlock()
			if seen && !bytes.Equal(want, buf.Bytes()) {
				errc <- fmt.Errorf("snapshotter: generation %d produced %d bytes != serial reference %d bytes",
					info.Generation, buf.Len(), len(want))
				return
			}
			select {
			case <-done:
				if s >= snaps {
					return
				}
			default:
			}
		}
	}()

	// Readers: queries share the lock with the streaming snapshotter.
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for q := 0; q < queries; q++ {
				err := e.View(func(g *lagraph.Graph) error {
					levels, err := lagraph.BFSLevels(g, (r+q)%g.N())
					if err != nil {
						return err
					}
					if levels.Nvals() == 0 {
						return fmt.Errorf("empty BFS on populated graph")
					}
					return nil
				})
				if err != nil {
					errc <- fmt.Errorf("reader %d: %v", r, err)
					return
				}
			}
		}(r)
	}

	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	// Final determinism check: two serial snapshots of the settled entry
	// are bitwise identical and match the stress-phase reference for the
	// final generation, if one was captured.
	var a, b bytes.Buffer
	infoA, err := e.Snapshot(&a)
	if err != nil {
		t.Fatal(err)
	}
	infoB, err := e.Snapshot(&b)
	if err != nil {
		t.Fatal(err)
	}
	if infoA.Generation != infoB.Generation || !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("serial snapshots of an idle entry differ")
	}
	if infoA.Generation != uint64(writes) {
		t.Fatalf("final generation %d, want %d", infoA.Generation, writes)
	}
	if ref, ok := reference[infoA.Generation]; ok && !bytes.Equal(ref, a.Bytes()) {
		t.Fatal("stress-phase snapshot of final generation differs from idle snapshot")
	}
	if g2, err := lagraph.ReadGraph(bytes.NewReader(a.Bytes())); err != nil {
		t.Fatalf("snapshot does not decode: %v", err)
	} else if g2.N() != infoA.N || g2.NEdges() != infoA.NEdges {
		t.Fatalf("decoded snapshot shape %d/%d contradicts SnapshotInfo %d/%d",
			g2.N(), g2.NEdges(), infoA.N, infoA.NEdges)
	}
}
