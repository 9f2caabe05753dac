package catalog

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"lagraph/internal/gen"
	"lagraph/internal/lagraph"
	"lagraph/internal/leakcheck"
	"lagraph/internal/obs"
)

// firstUseQueries are the reader queries of TestFirstUseConcurrentProperties.
// Each touches a different cached property first after an Ingest:
// tc the pattern, pagerank the degrees, Properties the self-loop count
// and symmetry flag, and the directed query the transpose and in-degrees.
var firstUseQueries = []string{"tc", "pagerank", "properties", "transpose"}

// firstUseSetup registers an undirected graph "u" and a directed graph "d".
func firstUseSetup(t testing.TB) (u, d *Entry) {
	t.Helper()
	c := New()
	u, err := c.Add("u", testGraph(t, 7))
	if err != nil {
		t.Fatal(err)
	}
	n := 1 << 7
	el := gen.PowerLaw(n, 8*n, 1.8, gen.Config{Seed: 11})
	g, err := lagraph.NewGraph(el.Matrix(), lagraph.Directed)
	if err != nil {
		t.Fatal(err)
	}
	if d, err = c.Add("d", g); err != nil {
		t.Fatal(err)
	}
	return u, d
}

// firstUseIngest lands batch k on both graphs as pending tuples: a
// mirrored edge pair on u (plus a self-loop on even batches, so the
// self-loop count moves) and two arcs on d.
func firstUseIngest(t testing.TB, u, d *Entry, k int) {
	t.Helper()
	err := u.Ingest(func(g *lagraph.Graph) (bool, error) {
		n := g.N()
		i, j := (k*37+5)%n, (k*53+11)%n
		is, js := []int{i, j}, []int{j, i}
		if k%2 == 0 {
			is, js = append(is, k%n), append(js, k%n)
		}
		xs := make([]float64, len(is))
		for x := range xs {
			xs[x] = 1
		}
		return true, g.A.SetElements(is, js, xs, nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	err = d.Ingest(func(g *lagraph.Graph) (bool, error) {
		n := g.N()
		return true, g.A.SetElements([]int{(k * 7) % n, (k*13 + 1) % n}, []int{(k*29 + 3) % n, (k * 17) % n}, []float64{2, 3}, nil)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// firstUseQuery runs one query and returns "generation:checksum".
func firstUseQuery(u, d *Entry, q string) (string, error) {
	var sum string
	view := func(e *Entry, fn func(g *lagraph.Graph) (string, error)) error {
		return e.View(func(g *lagraph.Graph) error {
			s, err := fn(g)
			sum = fmt.Sprintf("%d:%s", e.Generation(), s)
			return err
		})
	}
	var err error
	switch q {
	case "tc":
		err = view(u, func(g *lagraph.Graph) (string, error) {
			n, err := lagraph.TriangleCount(g, lagraph.TCAuto)
			return fmt.Sprint(n), err
		})
	case "pagerank":
		err = view(u, func(g *lagraph.Graph) (string, error) {
			r, err := lagraph.PageRankWith(g)
			if err != nil {
				return "", err
			}
			is, xs := r.Rank.ExtractTuples()
			h := fnv()
			for k := range is {
				h.add(uint64(is[k]))
				h.add(math.Float64bits(xs[k]))
			}
			return fmt.Sprintf("%d/%016x", r.Iterations, h.sum), nil
		})
	case "properties":
		pu, pd := u.Properties(), d.Properties()
		sum = fmt.Sprintf("%d:%d/%v/%d|%d:%d/%v/%d", pu.Generation, pu.NSelfLoops, pu.Symmetric, pu.NEdges,
			pd.Generation, pd.NSelfLoops, pd.Symmetric, pd.NEdges)
	case "transpose":
		err = view(d, func(g *lagraph.Graph) (string, error) {
			h := fnv()
			is, js, xs := g.AT().ExtractTuples()
			for k := range is {
				h.add(uint64(is[k]))
				h.add(uint64(js[k]))
				h.add(math.Float64bits(xs[k]))
			}
			vi, vx := g.InDegree().ExtractTuples()
			for k := range vi {
				h.add(uint64(vi[k]))
				h.add(uint64(vx[k]))
			}
			return fmt.Sprintf("%d/%016x", len(is), h.sum), nil
		})
	}
	return sum, err
}

type fnvHash struct{ sum uint64 }

func fnv() *fnvHash { return &fnvHash{sum: 1469598103934665603} }

func (h *fnvHash) add(v uint64) { h.sum = (h.sum ^ v) * 1099511628211 }

// TestFirstUseConcurrentProperties is the first-use -race stress test:
// right after every Ingest, 8 readers start at once, each pair on a query
// that touches a different cached property first, so the property builds
// race each other and the assembly. Every answer must equal the serial
// run of the same generation.
func TestFirstUseConcurrentProperties(t *testing.T) {
	leakcheck.Check(t)
	const (
		readers = 8
		batches = 6
	)
	// Serial reference: the same batches, one query at a time.
	serial := map[string]string{}
	u, d := firstUseSetup(t)
	for k := 0; k < batches; k++ {
		firstUseIngest(t, u, d, k)
		for _, q := range firstUseQueries {
			sum, err := firstUseQuery(u, d, q)
			if err != nil {
				t.Fatalf("serial %s: %v", q, err)
			}
			serial[fmt.Sprintf("%d/%s", k, q)] = sum
		}
	}

	u, d = firstUseSetup(t)
	for k := 0; k < batches; k++ {
		firstUseIngest(t, u, d, k)
		start := make(chan struct{})
		var wg sync.WaitGroup
		errc := make(chan error, readers)
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				<-start
				q := firstUseQueries[r%len(firstUseQueries)]
				sum, err := firstUseQuery(u, d, q)
				if err != nil {
					errc <- fmt.Errorf("batch %d reader %d %s: %v", k, r, q, err)
					return
				}
				if want := serial[fmt.Sprintf("%d/%s", k, q)]; sum != want {
					errc <- fmt.Errorf("batch %d reader %d %s: %s != serial %s", k, r, q, sum, want)
				}
			}(r)
		}
		close(start)
		wg.Wait()
		close(errc)
		for err := range errc {
			t.Error(err)
		}
		if t.Failed() {
			return
		}
	}
}

// TestBFSAfterIngestBuildsNoProperty checks that the first BFS after an
// Ingest pays for the assembly and nothing else: its op delta equals a
// second BFS of the same generation plus exactly one assembly, while a
// Properties call does show its self-loop and symmetry builds.
func TestBFSAfterIngestBuildsNoProperty(t *testing.T) {
	c := New()
	e, err := c.Add("g", testGraph(t, 8))
	if err != nil {
		t.Fatal(err)
	}
	ctr := &obs.Counters{}
	prev := obs.Set(ctr)
	defer obs.Set(prev)
	delta := func(fn func()) obs.CounterSnapshot {
		before := ctr.Snapshot()
		fn()
		return ctr.Snapshot().Sub(before)
	}
	ingest := func(i, j int) {
		err := e.Ingest(func(g *lagraph.Graph) (bool, error) {
			return true, g.A.SetElements([]int{i, j}, []int{j, i}, []float64{1, 1}, nil)
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	ingest(3, 200)
	warms := c.Stats().Warms
	first := delta(func() { bfsChecksum(t, e) })
	second := delta(func() { bfsChecksum(t, e) })
	if got := c.Stats().Warms - warms; got != 1 {
		t.Fatalf("assemblies for two reads after one ingest = %d, want 1", got)
	}
	if first.Ops != second.Ops+1 || first.Waits != second.Waits+1 {
		t.Fatalf("first BFS after ingest: ops/waits %d/%d, want the second BFS's %d/%d plus one assembly",
			first.Ops, first.Waits, second.Ops, second.Waits)
	}

	// Control: the builds the BFS skipped are visible in the op count.
	ingest(5, 100)
	props := delta(func() { e.Properties() })
	again := delta(func() { e.Properties() })
	if props.Ops != 3 || props.Waits != 1 || again.Ops != 0 {
		t.Fatalf("Properties after ingest: ops/waits %d/%d then %d ops, want 3/1 (assembly, self-loops, symmetry) then 0",
			props.Ops, props.Waits, again.Ops)
	}
	pr := delta(func() {
		if err := e.View(func(g *lagraph.Graph) error { _, err := lagraph.PageRankWith(g); return err }); err != nil {
			t.Fatal(err)
		}
	})
	pr2 := delta(func() {
		if err := e.View(func(g *lagraph.Graph) error { _, err := lagraph.PageRankWith(g); return err }); err != nil {
			t.Fatal(err)
		}
	})
	if pr.Ops != pr2.Ops+1 {
		t.Fatalf("first PageRank ops %d, want the second's %d plus one degree build", pr.Ops, pr2.Ops)
	}
}
