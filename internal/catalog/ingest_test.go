package catalog

import (
	"errors"
	"testing"

	"lagraph/internal/grb"
	"lagraph/internal/lagraph"
)

func ingestGraph(t *testing.T, n int) (*Catalog, *Entry) {
	t.Helper()
	a, err := grb.NewMatrix[float64](n, n)
	if err != nil {
		t.Fatal(err)
	}
	g, err := lagraph.NewGraph(a, lagraph.Directed)
	if err != nil {
		t.Fatal(err)
	}
	c := New()
	e, err := c.Add("g", g)
	if err != nil {
		t.Fatal(err)
	}
	return c, e
}

func TestIngestDefersAssembly(t *testing.T) {
	c, e := ingestGraph(t, 10)
	// Warm first so we can observe the cold transition.
	if _, err := e.Properties(), error(nil); err != nil {
		t.Fatal(err)
	}
	gen := e.Generation()
	err := e.Ingest(func(g *lagraph.Graph) (bool, error) {
		if err := g.A.SetElements([]int{1, 2}, []int{3, 4}, []float64{1, 1}, nil); err != nil {
			return false, err
		}
		e.SetJournalSeq(41)
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if e.Generation() != gen+1 {
		t.Fatalf("generation %d, want %d", e.Generation(), gen+1)
	}
	if e.JournalSeq() != 41 {
		t.Fatalf("journal seq %d, want 41", e.JournalSeq())
	}
	// The mutation landed as pending tuples: Ingest itself must NOT have
	// assembled them (that is the flat-latency property).
	e.mu.RLock()
	pend, _ := e.g.A.Pending()
	warm := e.warm
	e.mu.RUnlock()
	if pend != 2 {
		t.Fatalf("pending tuples after Ingest = %d, want 2 (assembly must be deferred)", pend)
	}
	if warm {
		t.Fatal("entry still warm after a mutating Ingest")
	}
	// The next read warms, assembles, and sees the new edges.
	p := e.Properties()
	if p.NEdges != 2 || !p.Warm {
		t.Fatalf("after re-warm: %+v", p)
	}
	if got := c.Stats().Ingests; got != 1 {
		t.Fatalf("ingest counter = %d, want 1", got)
	}
}

func TestIngestRejectedBatchLeavesEntryUntouched(t *testing.T) {
	c, e := ingestGraph(t, 4)
	p0 := e.Properties() // warms
	gen := e.Generation()
	wantErr := errors.New("batch rejected")
	err := e.Ingest(func(g *lagraph.Graph) (bool, error) {
		return false, wantErr
	})
	if !errors.Is(err, wantErr) {
		t.Fatalf("err = %v", err)
	}
	if e.Generation() != gen {
		t.Fatal("rejected batch bumped the generation")
	}
	e.mu.RLock()
	warm := e.warm
	e.mu.RUnlock()
	if !warm {
		t.Fatal("rejected batch marked the entry cold")
	}
	if p := e.Properties(); p.NEdges != p0.NEdges {
		t.Fatalf("rejected batch changed the graph: %+v", p)
	}
	if got := c.Stats().Ingests; got != 0 {
		t.Fatalf("ingest counter = %d, want 0", got)
	}
}

func TestSnapshotPinsJournalSeq(t *testing.T) {
	_, e := ingestGraph(t, 5)
	err := e.Ingest(func(g *lagraph.Graph) (bool, error) {
		if err := g.A.SetElements([]int{0}, []int{1}, []float64{1}, nil); err != nil {
			return false, err
		}
		e.SetJournalSeq(7)
		return true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var sink discard
	info, err := e.Snapshot(&sink)
	if err != nil {
		t.Fatal(err)
	}
	if info.Journal != 7 {
		t.Fatalf("snapshot pinned journal %d, want 7", info.Journal)
	}
	if info.NEdges != 1 {
		t.Fatalf("snapshot NEdges = %d, want 1 (pending batch must be assembled by the warm)", info.NEdges)
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// TestGenerationJournalIsOnePair samples GenerationJournal while a writer
// ingests batch after batch, each setting the journal mark to its own
// sequence number: every sample must pair a generation with the journal
// mark of the same batch, never one batch's mark with its neighbour's
// generation.
func TestGenerationJournalIsOnePair(t *testing.T) {
	_, e := ingestGraph(t, 8)
	gen0, _ := e.GenerationJournal()
	const batches = 2000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for k := uint64(1); k <= batches; k++ {
			_ = e.Ingest(func(*lagraph.Graph) (bool, error) {
				e.SetJournalSeq(k)
				return true, nil
			})
		}
	}()
	for {
		select {
		case <-done:
			if gen, journal := e.GenerationJournal(); gen-gen0 != journal || journal != batches {
				t.Fatalf("final pair (gen %d, journal %d), want journal %d at gen %d", gen, journal, batches, gen0+batches)
			}
			return
		default:
		}
		if gen, journal := e.GenerationJournal(); gen-gen0 != journal {
			t.Fatalf("split sample: gen %d (base %d) with journal %d", gen, gen0, journal)
		}
	}
}
