package cluster

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lagraph/internal/catalog"
	"lagraph/internal/grb"
	"lagraph/internal/lagraph"
	"lagraph/internal/leakcheck"
	"lagraph/internal/store"
	"lagraph/internal/wal"
)

// handlerSwap lets a test create the HTTP listener (and learn its URL)
// before the Node that will serve on it exists — and simulate a dead
// node by swapping the handler out.
type handlerSwap struct {
	mu sync.Mutex
	h  http.Handler //grblint:guardedby mu
}

func (s *handlerSwap) set(h http.Handler) {
	s.mu.Lock()
	s.h = h
	s.mu.Unlock()
}

func (s *handlerSwap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	h := s.h
	s.mu.Unlock()
	if h == nil {
		http.Error(w, "node down", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

// testNode is one cluster member a test can boot, kill -9, and reboot
// against the same data directory and URL.
type testNode struct {
	id     string
	dir    string
	swap   *handlerSwap
	srv    *httptest.Server
	top    Topology
	client *http.Client

	alive bool
	cat   *catalog.Catalog
	pers  *store.Persister
	jl    *wal.Log
	n     *Node
}

// boot (re)opens the node's store, WAL, and catalog — exactly what the
// daemon does at startup — and starts its sync loop.
func (tn *testNode) boot(t *testing.T) {
	t.Helper()
	st, err := store.Open(tn.dir)
	if err != nil {
		t.Fatal(err)
	}
	jl, err := wal.Open(filepath.Join(tn.dir, "wal"), wal.Options{NoSync: true, SegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	cat := catalog.New()
	pers := store.NewPersister(st, cat)
	pers.AttachWAL(jl)
	if _, err := pers.LoadAll(); err != nil {
		t.Fatal(err)
	}
	n, err := New(Config{
		Self:      tn.id,
		Topology:  tn.top,
		Catalog:   cat,
		Persister: pers,
		Client:    tn.client,
		Poll:      25 * time.Millisecond,
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	tn.cat, tn.pers, tn.jl, tn.n = cat, pers, jl, n
	tn.swap.set(n.Handler())
	n.Start(context.Background())
	tn.alive = true
}

// kill simulates an abrupt death: the HTTP surface goes dark and the
// process state is discarded. The WAL close is safe under kill -9
// semantics because every test append ran with NoSync (worst case the
// tail is torn, which the format tolerates).
func (tn *testNode) kill() {
	if !tn.alive {
		return
	}
	tn.alive = false
	tn.swap.set(nil)
	tn.n.Close()
	_ = tn.jl.Close()
}

// newTestCluster builds servers and data directories for the given node
// IDs and boots the subset named in bootIDs with the supplied topology.
func newTestCluster(t *testing.T, ids []string, top func(urls map[string]string) Topology, bootIDs []string) map[string]*testNode {
	t.Helper()
	leakcheck.Check(t)
	client := &http.Client{Timeout: 10 * time.Second}
	t.Cleanup(client.CloseIdleConnections)
	nodes := map[string]*testNode{}
	urls := map[string]string{}
	for _, id := range ids {
		swap := &handlerSwap{}
		srv := httptest.NewServer(swap)
		t.Cleanup(srv.Close)
		nodes[id] = &testNode{id: id, dir: t.TempDir(), swap: swap, srv: srv, client: client}
		urls[id] = srv.URL
	}
	topo := top(urls)
	for _, id := range ids {
		nodes[id].top = topo
	}
	for _, id := range bootIDs {
		nodes[id].boot(t)
	}
	t.Cleanup(func() {
		for _, tn := range nodes {
			tn.kill()
		}
	})
	return nodes
}

// flatTopology is the common case: every listed node, R replicas.
func flatTopology(epoch uint64, replicas int, ids []string) func(map[string]string) Topology {
	return func(urls map[string]string) Topology {
		t := Topology{Epoch: epoch, Replicas: replicas, VNodes: 16}
		for _, id := range ids {
			t.Nodes = append(t.Nodes, NodeInfo{ID: id, URL: urls[id]})
		}
		return t
	}
}

// makeGraph builds an empty graph of n vertices.
func makeGraph(t *testing.T, n int, kind lagraph.Kind) *lagraph.Graph {
	t.Helper()
	a, err := grb.NewMatrix[float64](n, n)
	if err != nil {
		t.Fatal(err)
	}
	g, err := lagraph.NewGraph(a, kind)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// ingest pushes one edge batch through the primary's write path exactly
// as the service layer does: baseline snapshot before the first
// journaled batch, then journal → apply → advance marks.
func (tn *testNode) ingest(t *testing.T, b store.EdgeBatch) {
	t.Helper()
	if err := tn.tryIngest(b); err != nil {
		t.Fatal(err)
	}
}

// tryIngest is ingest for callers off the test goroutine.
func (tn *testNode) tryIngest(b store.EdgeBatch) error {
	if !tn.pers.HasDurable(b.Name) {
		if _, err := tn.pers.SnapshotOne(b.Name); err != nil {
			return err
		}
	}
	e, err := tn.cat.Get(b.Name)
	if err != nil {
		return err
	}
	return e.Ingest(func(g *lagraph.Graph) (bool, error) {
		lsn, jerr := tn.pers.JournalEdges(b)
		if jerr != nil {
			return false, jerr
		}
		if aerr := store.ApplyEdgeBatch(g, b); aerr != nil {
			return false, aerr
		}
		e.SetJournalSeq(lsn)
		tn.pers.MarkApplied(b.Name, lsn)
		return true, nil
	})
}

// graphChecksum serializes the graph and digests the image with FNV-64a:
// two nodes holding the same logical graph must produce identical bytes.
func (tn *testNode) graphChecksum(t *testing.T, name string) uint64 {
	t.Helper()
	e, err := tn.cat.Get(name)
	if err != nil {
		t.Fatalf("%s: %v", tn.id, err)
	}
	var buf bytes.Buffer
	if _, err := e.Snapshot(&buf); err != nil {
		t.Fatalf("%s: snapshot %q: %v", tn.id, name, err)
	}
	h := fnv.New64a()
	h.Write(buf.Bytes())
	return h.Sum64()
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// pickName finds a graph name whose ring placement satisfies pred.
func pickName(t *testing.T, ring *Ring, prefix string, pred func(owners []NodeInfo) bool) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		name := fmt.Sprintf("%s-%d", prefix, i)
		if pred(ring.Place(name)) {
			return name
		}
	}
	t.Fatal("no graph name satisfies the placement predicate")
	return ""
}

// holdsCaughtUp reports whether the node holds name as a caught-up copy
// matching the given generation.
func (tn *testNode) holdsCaughtUp(name string, gen uint64) bool {
	e, err := tn.cat.Get(name)
	if err != nil {
		return false
	}
	return e.ReplicaLag() == 0 && e.Generation() == gen
}

func TestRingPlacementDeterministicAndDistinct(t *testing.T) {
	nodes := []NodeInfo{{ID: "a", URL: "u1"}, {ID: "b", URL: "u2"}, {ID: "c", URL: "u3"}}
	top := Topology{Epoch: 1, Replicas: 1, Nodes: nodes}
	// Same document, shuffled member order: identical placement.
	shuffled := Topology{Epoch: 1, Replicas: 1, Nodes: []NodeInfo{nodes[2], nodes[0], nodes[1]}}
	r1, r2 := NewRing(top), NewRing(shuffled)
	primaries := map[string]int{}
	for i := 0; i < 500; i++ {
		name := fmt.Sprintf("graph-%d", i)
		p1, p2 := r1.Place(name), r2.Place(name)
		if len(p1) != 2 || len(p2) != 2 {
			t.Fatalf("placement of %q has %d/%d owners, want 2", name, len(p1), len(p2))
		}
		if p1[0].ID == p1[1].ID {
			t.Fatalf("placement of %q repeats node %s", name, p1[0].ID)
		}
		for k := range p1 {
			if p1[k].ID != p2[k].ID {
				t.Fatalf("placement of %q differs across member orderings: %v vs %v", name, p1, p2)
			}
		}
		primaries[p1[0].ID]++
	}
	// Virtual nodes must spread load: every member owns some share.
	for _, n := range nodes {
		if primaries[n.ID] == 0 {
			t.Fatalf("node %s owns no graphs out of 500 (distribution %v)", n.ID, primaries)
		}
	}
}

func TestTopologyValidateAndEpochRules(t *testing.T) {
	good := Topology{Epoch: 1, Replicas: 1, Nodes: []NodeInfo{{ID: "a", URL: "u"}}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []Topology{
		{Epoch: 0, Nodes: good.Nodes},
		{Epoch: 1},
		{Epoch: 1, Replicas: -1, Nodes: good.Nodes},
		{Epoch: 1, Nodes: []NodeInfo{{ID: "a", URL: "u"}, {ID: "a", URL: "v"}}},
		{Epoch: 1, Nodes: []NodeInfo{{ID: "", URL: "u"}}},
	} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("topology %+v validated", bad)
		}
	}
}

// TestClusterReplicatesAndServesReadOnly is the core tentpole test: a
// 3-node cluster, writes at the primary, snapshot+stream replication to
// the replica, read-only enforcement, and checksum identity.
func TestClusterReplicatesAndServesReadOnly(t *testing.T) {
	ids := []string{"n1", "n2", "n3"}
	nodes := newTestCluster(t, ids, flatTopology(1, 1, ids), ids)
	any := nodes[ids[0]]
	ring := NewRing(any.top)
	name := pickName(t, ring, "rep", func(o []NodeInfo) bool { return len(o) == 2 })
	owners := ring.Place(name)
	primary, replica := nodes[owners[0].ID], nodes[owners[1].ID]
	var outsider *testNode
	for _, id := range ids {
		if id != owners[0].ID && id != owners[1].ID {
			outsider = nodes[id]
		}
	}

	if _, err := primary.cat.Add(name, makeGraph(t, 64, lagraph.Directed)); err != nil {
		t.Fatal(err)
	}
	primary.ingest(t, store.EdgeBatch{Name: name, Ops: []store.EdgeOp{{Src: 0, Dst: 1, Weight: 0.5}}})
	pe, err := primary.cat.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the baseline snapshot to land on the replica, THEN keep
	// writing: the rest of the history must arrive by WAL stream.
	waitFor(t, 15*time.Second, "baseline install", func() bool {
		return replica.holdsCaughtUp(name, pe.Generation())
	})
	for i := 1; i < 20; i++ {
		primary.ingest(t, store.EdgeBatch{Name: name, Ops: []store.EdgeOp{
			{Src: i, Dst: i + 1, Weight: float64(i) + 0.5},
			{Src: i + 1, Dst: (i * 7) % 64, Weight: 1},
		}})
	}
	gen := pe.Generation()

	waitFor(t, 15*time.Second, "replica catch-up", func() bool {
		return replica.holdsCaughtUp(name, gen)
	})
	re, err := replica.cat.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	if re.Role() != catalog.RoleReplica {
		t.Fatalf("replica entry role = %v", re.Role())
	}
	// Read-only: direct mutation paths must refuse; only Replicate works.
	if err := re.Ingest(func(*lagraph.Graph) (bool, error) { return true, nil }); err == nil {
		t.Fatal("Ingest on a replica entry succeeded")
	}
	if err := re.Update(func(*lagraph.Graph) error { return nil }); err == nil {
		t.Fatal("Update on a replica entry succeeded")
	}
	// Checksum identity: the replicated copy is bitwise the primary's.
	if pc, rc := primary.graphChecksum(t, name), replica.graphChecksum(t, name); pc != rc {
		t.Fatalf("checksum mismatch: primary %016x, replica %016x", pc, rc)
	}
	// Placement is exclusive: the third node must not hold the graph.
	waitFor(t, 5*time.Second, "all nodes ready", func() bool {
		for _, tn := range nodes {
			if !tn.n.Ready() {
				return false
			}
		}
		return true
	})
	if _, err := outsider.cat.Get(name); err == nil {
		t.Fatalf("non-owner %s holds %q", outsider.id, name)
	}
	// Lag metrics converged to zero.
	if st := replica.n.Stats(); st.MaxLagLSN != 0 || st.FetchedRecords == 0 {
		t.Fatalf("replica stats = %+v", st)
	}
	if st := primary.n.Stats(); st.ShippedRecords == 0 || st.ShippedSnapshots == 0 {
		t.Fatalf("primary shipped nothing: %+v", st)
	}
}

// TestReplicaKillRecoverResumesStream kills a replica mid-replication,
// writes more at the primary, reboots the replica from its data dir, and
// requires it to catch up by local snapshot + WAL-stream resume — not by
// re-fetching the baseline snapshot.
func TestReplicaKillRecoverResumesStream(t *testing.T) {
	ids := []string{"n1", "n2", "n3"}
	nodes := newTestCluster(t, ids, flatTopology(1, 1, ids), ids)
	ring := NewRing(nodes[ids[0]].top)
	name := pickName(t, ring, "recover", func(o []NodeInfo) bool { return len(o) == 2 })
	owners := ring.Place(name)
	primary, replica := nodes[owners[0].ID], nodes[owners[1].ID]

	if _, err := primary.cat.Add(name, makeGraph(t, 64, lagraph.Directed)); err != nil {
		t.Fatal(err)
	}
	batch := func(i int) store.EdgeBatch {
		return store.EdgeBatch{Name: name, Ops: []store.EdgeOp{
			{Src: i % 64, Dst: (i*13 + 1) % 64, Weight: float64(i)},
		}}
	}
	for i := 0; i < 10; i++ {
		primary.ingest(t, batch(i))
	}
	pe, err := primary.cat.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 15*time.Second, "initial catch-up", func() bool {
		return replica.holdsCaughtUp(name, pe.Generation())
	})

	// Kill the replica, keep writing through the primary.
	replica.kill()
	for i := 10; i < 30; i++ {
		primary.ingest(t, batch(i))
	}

	// Reboot from the same data directory: recovery must resume the
	// stream from the locally snapshotted replication position.
	replica.boot(t)
	waitFor(t, 15*time.Second, "post-restart catch-up", func() bool {
		return replica.holdsCaughtUp(name, pe.Generation())
	})
	if pc, rc := primary.graphChecksum(t, name), replica.graphChecksum(t, name); pc != rc {
		t.Fatalf("post-recovery checksum mismatch: primary %016x, replica %016x", pc, rc)
	}
	st := replica.n.Stats()
	if st.FetchedSnapshots != 0 {
		t.Fatalf("restart re-fetched %d snapshots; want stream resume from the local floor", st.FetchedSnapshots)
	}
	if st.FetchedRecords == 0 {
		t.Fatal("restart streamed no records")
	}
	if st.MaxLagLSN != 0 {
		t.Fatalf("lag did not converge: %+v", st)
	}
}

// TestWriterRacingPollKeepsReplica phase-locks a writer to the replica's
// poll: the primary lands one batch just before it answers every status
// request and every WAL window request. Each window therefore carries a
// record newer than the status sample the replica is comparing against,
// so the replica ends every catch-up ahead of the sampled journal mark.
// That is not divergence: the replica must follow by stream alone, with
// no snapshot re-ship, and converge on the primary's bytes.
func TestWriterRacingPollKeepsReplica(t *testing.T) {
	ids := []string{"p", "r"}
	nodes := newTestCluster(t, ids, flatTopology(1, 1, ids), ids)
	ring := NewRing(nodes["p"].top)
	name := pickName(t, ring, "race", func(o []NodeInfo) bool { return o[0].ID == "p" })
	primary, replica := nodes["p"], nodes["r"]

	if _, err := primary.cat.Add(name, makeGraph(t, 64, lagraph.Directed)); err != nil {
		t.Fatal(err)
	}
	batch := func(i int) store.EdgeBatch {
		return store.EdgeBatch{Name: name, Ops: []store.EdgeOp{
			{Src: i % 64, Dst: (i*11 + 3) % 64, Weight: float64(i) + 0.5},
		}}
	}
	primary.ingest(t, batch(0))
	pe, err := primary.cat.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 15*time.Second, "baseline install", func() bool {
		return replica.holdsCaughtUp(name, pe.Generation())
	})

	const racingWrites = 40
	var written atomic.Int32
	var writeErr atomic.Value
	h := primary.n.Handler()
	primary.swap.set(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/cluster/status", "/v1/cluster/wal":
			if i := written.Add(1); i <= racingWrites {
				if err := primary.tryIngest(batch(int(i))); err != nil {
					writeErr.Store(err)
				}
			}
		}
		h.ServeHTTP(w, r)
	}))
	waitFor(t, 20*time.Second, "racing writes", func() bool {
		return written.Load() >= racingWrites
	})
	if err, _ := writeErr.Load().(error); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 15*time.Second, "replica catch-up", func() bool {
		return replica.holdsCaughtUp(name, pe.Generation())
	})
	if pc, rc := primary.graphChecksum(t, name), replica.graphChecksum(t, name); pc != rc {
		t.Fatalf("checksum mismatch: primary %016x, replica %016x", pc, rc)
	}
	if st := replica.n.Stats(); st.FetchedSnapshots != 1 {
		t.Fatalf("replica fetched %d snapshots, want only the baseline: %+v", st.FetchedSnapshots, st)
	}
}

// TestRebalanceHandoffOnEpochBump moves a graph to a freshly added node
// via a topology epoch bump: snapshot-first re-ship to the new owner,
// reads served by the old owner until the handoff completes, epoch
// gossip from a single POST, and checksum identity afterwards.
// handoffToC boots a/b on epoch 1 with a graph whose epoch-2 primary is
// c, ingests 12 batches at the epoch-1 primary, then boots c on epoch 2,
// bumps a/b with one POST, and waits until c has adopted the graph. It
// returns the nodes, the graph name, the epoch-2 ring, and the graph's
// checksum before the move.
func handoffToC(t *testing.T) (nodes map[string]*testNode, name string, ring2 *Ring, oldSum uint64) {
	t.Helper()
	ids := []string{"a", "b", "c"}
	// Epoch 1: {a, b} only. c's server exists (its URL is in epoch 2)
	// but the node boots later, already holding epoch 2.
	nodes = newTestCluster(t, ids, flatTopology(1, 1, []string{"a", "b"}), []string{"a", "b"})
	urls := map[string]string{}
	for id, tn := range nodes {
		urls[id] = tn.srv.URL
	}
	epoch2 := flatTopology(2, 1, ids)(urls)
	ring2 = NewRing(epoch2)
	// A graph owned by {a,b} at epoch 1 whose epoch-2 primary is c.
	name = pickName(t, ring2, "move", func(o []NodeInfo) bool { return o[0].ID == "c" })

	a, b, c := nodes["a"], nodes["b"], nodes["c"]
	ring1 := NewRing(a.top)
	old := nodes[ring1.Place(name)[0].ID]
	if _, err := old.cat.Add(name, makeGraph(t, 48, lagraph.Directed)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		old.ingest(t, store.EdgeBatch{Name: name, Ops: []store.EdgeOp{
			{Src: i % 48, Dst: (i*5 + 2) % 48, Weight: float64(i) + 0.25},
		}})
	}
	oe, err := old.cat.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	gen := oe.Generation()
	oldSum = old.graphChecksum(t, name)
	waitFor(t, 15*time.Second, "epoch-1 replication", func() bool {
		for _, id := range []string{"a", "b"} {
			e, gerr := nodes[id].cat.Get(name)
			if gerr != nil || e.Generation() != gen || e.ReplicaLag() != 0 {
				return false
			}
		}
		return true
	})

	// Boot c on epoch 2 and bump {a,b} with one POST (gossip spreads it).
	c.top = epoch2
	c.boot(t)
	body, _ := tjson(epoch2)
	resp, err := a.client.Post(a.srv.URL+"/v1/cluster/topology", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("topology POST: status %d", resp.StatusCode)
	}
	// A stale re-POST must be refused.
	stale, _ := tjson(flatTopology(1, 1, []string{"a", "b"})(urls))
	resp, err = a.client.Post(a.srv.URL+"/v1/cluster/topology", "application/json", bytes.NewReader(stale))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("stale topology POST: status %d, want 409", resp.StatusCode)
	}

	waitFor(t, 15*time.Second, "epoch gossip", func() bool {
		return a.n.Epoch() == 2 && b.n.Epoch() == 2 && c.n.Epoch() == 2
	})
	// The new owner must adopt the graph as primary. Handoffs counts
	// finished adoptions, so once it moves the adoption snapshot has run.
	waitFor(t, 20*time.Second, "handoff to c", func() bool {
		e, gerr := c.cat.Get(name)
		return gerr == nil && e.Role() == catalog.RolePrimary && c.n.Stats().Handoffs > 0
	})
	return nodes, name, ring2, oldSum
}

func TestRebalanceHandoffOnEpochBump(t *testing.T) {
	nodes, name, ring2, oldSum := handoffToC(t)
	c := nodes["c"]
	// Every placement member must converge on the same bytes.
	owners := ring2.Place(name)
	waitFor(t, 20*time.Second, "placement convergence", func() bool {
		for _, tn := range nodes {
			e, gerr := tn.cat.Get(name)
			inPlacement := false
			for _, o := range owners {
				if o.ID == tn.id {
					inPlacement = true
				}
			}
			if inPlacement != (gerr == nil) {
				return false
			}
			if gerr == nil && e.ReplicaLag() != 0 {
				return false
			}
		}
		return true
	})
	if got := c.graphChecksum(t, name); got != oldSum {
		t.Fatalf("moved graph checksum %016x, want %016x", got, oldSum)
	}
	for _, o := range owners[1:] {
		if got := nodes[o.ID].graphChecksum(t, name); got != oldSum {
			t.Fatalf("replica %s checksum %016x, want %016x", o.ID, got, oldSum)
		}
	}
}

// TestAdoptedGraphSurvivesRestart: batches acknowledged by a new
// primary after a handoff must survive its restart. Adoption rebases
// the graph's journal floor into the local LSN space without bumping
// its generation; the adoption snapshot must still land, or the next
// boot restores the old floor (from the source's LSN space) and skips
// the new batches as already contained.
func TestAdoptedGraphSurvivesRestart(t *testing.T) {
	nodes, name, _, _ := handoffToC(t)
	c := nodes["c"]
	for i := 0; i < 3; i++ {
		c.ingest(t, store.EdgeBatch{Name: name, Ops: []store.EdgeOp{
			{Src: (i * 7) % 48, Dst: (i*11 + 5) % 48, Weight: float64(i) + 0.5},
		}})
	}
	want := c.graphChecksum(t, name)
	c.kill()
	c.boot(t)
	if rs := c.pers.ReplayStats(); rs.Applied != 3 || rs.SkippedFloor != 0 {
		t.Fatalf("replay after restart = %+v, want Applied:3 SkippedFloor:0", rs)
	}
	if got := c.graphChecksum(t, name); got != want {
		t.Fatalf("restarted primary checksum %016x, want %016x", got, want)
	}
}

// TestDropPropagates drops a graph at its primary and requires replicas
// to discard their copies.
func TestDropPropagates(t *testing.T) {
	ids := []string{"n1", "n2", "n3"}
	nodes := newTestCluster(t, ids, flatTopology(1, 1, ids), ids)
	ring := NewRing(nodes[ids[0]].top)
	name := pickName(t, ring, "drop", func(o []NodeInfo) bool { return len(o) == 2 })
	owners := ring.Place(name)
	primary, replica := nodes[owners[0].ID], nodes[owners[1].ID]

	if _, err := primary.cat.Add(name, makeGraph(t, 16, lagraph.Directed)); err != nil {
		t.Fatal(err)
	}
	primary.ingest(t, store.EdgeBatch{Name: name, Ops: []store.EdgeOp{{Src: 0, Dst: 1, Weight: 1}}})
	pe, err := primary.cat.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 15*time.Second, "replication", func() bool {
		return replica.holdsCaughtUp(name, pe.Generation())
	})

	// Drop exactly as the service layer does: DropGraph removes the
	// catalog entry and durable copy and plants the tombstone atomically,
	// so the sync loop cannot re-adopt the name from replicas that have
	// not yet observed the drop.
	dropErr, removed, removeErr := primary.n.DropGraph(name)
	if dropErr != nil || !removed || removeErr != nil {
		t.Fatalf("DropGraph: drop=%v removed=%v remove=%v", dropErr, removed, removeErr)
	}
	waitFor(t, 15*time.Second, "drop propagation", func() bool {
		_, gerr := replica.cat.Get(name)
		return gerr != nil
	})
}

// TestSingleNodeClusterIsReadyImmediately: a one-member topology has no
// peers to wait for.
func TestSingleNodeClusterIsReadyImmediately(t *testing.T) {
	ids := []string{"solo"}
	nodes := newTestCluster(t, ids, flatTopology(1, 1, ids), ids)
	waitFor(t, 5*time.Second, "solo readiness", func() bool {
		return nodes["solo"].n.Ready()
	})
	role, primary := nodes["solo"].n.RoleOf("anything")
	if role != catalog.RolePrimary || primary.ID != "solo" {
		t.Fatalf("solo placement = %v on %s", role, primary.ID)
	}
}

// tjson marshals a topology for the POST endpoint.
func tjson(t Topology) ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteString(fmt.Sprintf(`{"epoch":%d,"replicas":%d,"vnodes":%d,"nodes":[`, t.Epoch, t.Replicas, t.VNodes))
	for i, n := range t.Nodes {
		if i > 0 {
			buf.WriteByte(',')
		}
		buf.WriteString(fmt.Sprintf(`{"id":%q,"url":%q}`, n.ID, n.URL))
	}
	buf.WriteString("]}")
	return buf.Bytes(), nil
}
