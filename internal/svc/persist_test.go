package svc

import (
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lagraph/internal/catalog"
	"lagraph/internal/leakcheck"
	"lagraph/internal/obs"
	"lagraph/internal/store"
)

// newPersistentServer boots a server whose catalog is backed by the
// durable store in dir, replaying any snapshots already there — the
// same sequence cmd/lagraphd runs at startup. Like newTestServer it
// arms leakcheck, so each boot/teardown cycle proves the server's
// goroutines actually exit.
func newPersistentServer(t *testing.T, dir string) (*Server, *httptest.Server, []store.RecoveryEvent) {
	t.Helper()
	leakcheck.Check(t)
	t.Cleanup(http.DefaultClient.CloseIdleConnections)
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cat := catalog.New()
	p := store.NewPersister(st, cat)
	events, err := p.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	s := New(cat, &obs.Counters{}, Config{Persister: p})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, events
}

// queryChecksum runs one algorithm and returns its determinism digest.
func queryChecksum(t *testing.T, base, graph, algo string) string {
	t.Helper()
	var resp QueryResponse
	if code := post(t, base+"/graphs/"+graph+"/query", map[string]any{"algo": algo}, &resp); code != http.StatusOK {
		t.Fatalf("query %s/%s: status %d", graph, algo, code)
	}
	if resp.Checksum == "" {
		t.Fatalf("query %s/%s returned no checksum", graph, algo)
	}
	return resp.Checksum
}

// TestCrashRecovery is the end-to-end durability test: load graphs into a
// persistent daemon, capture result checksums, flush, tear the process
// state down (everything except the data directory), boot a second
// daemon on the same directory and demand bitwise-identical results.
// Then corrupt one snapshot on disk and demand the third boot serves the
// intact graph while the damaged one 404s (quarantined, not resurrected).
func TestCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	algos := []string{"bfs", "sssp", "pagerank", "cc"}

	// First life: load, query, flush.
	_, ts1, events := newPersistentServer(t, dir)
	if len(events) != 0 {
		t.Fatalf("fresh directory produced recovery events: %+v", events)
	}
	loadGraph(t, ts1.URL, "alpha", 7)
	loadGraph(t, ts1.URL, "bravo", 6)
	before := map[string]string{}
	for _, g := range []string{"alpha", "bravo"} {
		for _, a := range algos {
			before[g+"/"+a] = queryChecksum(t, ts1.URL, g, a)
		}
	}
	var flush store.FlushResult
	if code := post(t, ts1.URL+"/admin/flush", nil, &flush); code != http.StatusOK {
		t.Fatalf("flush: status %d", code)
	}
	if len(flush.Snapshotted) != 2 {
		t.Fatalf("flush snapshotted %d graphs, want 2: %+v", len(flush.Snapshotted), flush)
	}
	ts1.Close()

	// Second life: same directory, fresh everything else. Every checksum
	// must match — recovery is bitwise, not approximate.
	_, ts2, events := newPersistentServer(t, dir)
	if len(events) != 2 {
		t.Fatalf("recovery events: %+v", events)
	}
	for _, ev := range events {
		if ev.Err != nil {
			t.Fatalf("recovery of %q failed: %v", ev.Name, ev.Err)
		}
	}
	for key, want := range before {
		g, a, _ := strings.Cut(key, "/")
		if got := queryChecksum(t, ts2.URL, g, a); got != want {
			t.Errorf("%s: checksum %s after recovery, want %s", key, got, want)
		}
	}
	ts2.Close()

	// Corrupt bravo's snapshot: flip one payload byte on disk.
	snaps, err := filepath.Glob(filepath.Join(dir, "bravo*.lgsnap"))
	if err != nil || len(snaps) != 1 {
		t.Fatalf("bravo snapshots on disk: %v, %v", snaps, err)
	}
	raw, err := os.ReadFile(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x01
	if err := os.WriteFile(snaps[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}

	// Third life: alpha intact, bravo quarantined → 404.
	_, ts3, events := newPersistentServer(t, dir)
	var sawBad bool
	for _, ev := range events {
		if ev.Name == "bravo" && ev.Err != nil {
			sawBad = true
		}
	}
	if !sawBad {
		t.Fatalf("corrupt snapshot not reported: %+v", events)
	}
	for _, a := range algos {
		if got := queryChecksum(t, ts3.URL, "alpha", a); got != before["alpha/"+a] {
			t.Errorf("alpha/%s: checksum drifted after quarantine boot", a)
		}
	}
	resp, err := http.Get(ts3.URL + "/graphs/bravo")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("quarantined graph served status %d, want 404", resp.StatusCode)
	}
	if _, err := os.Stat(snaps[0] + ".corrupt"); err != nil {
		t.Error("corrupt snapshot not quarantined to *.corrupt")
	}
}

// TestSnapshotEndpoint exercises the single-graph snapshot route, the
// 501 contract on volatile daemons, and drop mirroring into the store.
func TestSnapshotEndpoint(t *testing.T) {
	dir := t.TempDir()
	s, ts, _ := newPersistentServer(t, dir)
	loadGraph(t, ts.URL, "g", 6)

	var res store.SnapResult
	if code := post(t, ts.URL+"/graphs/g/snapshot", nil, &res); code != http.StatusOK {
		t.Fatalf("snapshot: status %d", code)
	}
	if !res.Written || res.Bytes == 0 || res.Name != "g" {
		t.Fatalf("snapshot result: %+v", res)
	}
	// Second snapshot of an unchanged graph is clean (same generation).
	if code := post(t, ts.URL+"/graphs/g/snapshot", nil, &res); code != http.StatusOK || res.Written {
		t.Fatalf("re-snapshot: status %d result %+v", code, res)
	}
	if code := post(t, ts.URL+"/graphs/nope/snapshot", nil, nil); code != http.StatusNotFound {
		t.Fatalf("snapshot of unknown graph: status %d, want 404", code)
	}

	// Metrics expose the store families on a persistent daemon.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "lagraphd_store_snapshots_total") {
		t.Error("store metric families missing from /metrics")
	}
	if err := ValidateMetrics(strings.NewReader(string(body))); err != nil {
		t.Errorf("metrics invalid with store families: %v", err)
	}

	// Drop mirrors into the store: the snapshot is gone from disk and a
	// rebooted daemon does not resurrect the graph.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/graphs/g", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		t.Fatalf("drop: status %d", dresp.StatusCode)
	}
	if names := s.Persister().Store().Names(); len(names) != 0 {
		t.Fatalf("store still holds %v after drop", names)
	}
	s2, ts2, events := newPersistentServer(t, dir)
	defer ts2.Close()
	if len(events) != 0 {
		t.Fatalf("dropped graph resurrected: %+v", events)
	}

	// A DELETE that half-completed — graph gone from the catalog, durable
	// copy still on disk (the shape a failed dropDurable leaves) — must be
	// retryable: the retry answers 204 and clears the store instead of
	// 404ing and stranding a snapshot that would resurrect the graph.
	loadGraph(t, ts2.URL, "h", 5)
	if code := post(t, ts2.URL+"/graphs/h/snapshot", nil, nil); code != http.StatusOK {
		t.Fatalf("snapshot h: status %d", code)
	}
	if err := s2.Catalog().Drop("h"); err != nil {
		t.Fatal(err)
	}
	req, _ = http.NewRequest(http.MethodDelete, ts2.URL+"/graphs/h", nil)
	dresp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		t.Fatalf("retried drop: status %d, want 204", dresp.StatusCode)
	}
	if names := s2.Persister().Store().Names(); len(names) != 0 {
		t.Fatalf("retried drop left durable copies: %v", names)
	}
	// A name unknown to catalog and store alike still 404s.
	req, _ = http.NewRequest(http.MethodDelete, ts2.URL+"/graphs/h", nil)
	dresp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNotFound {
		t.Fatalf("drop of unknown name: status %d, want 404", dresp.StatusCode)
	}

	// Volatile daemon: durability endpoints answer 501.
	_, vts := newTestServer(t, Config{})
	if code := post(t, vts.URL+"/admin/flush", nil, nil); code != http.StatusNotImplemented {
		t.Fatalf("flush on volatile daemon: status %d, want 501", code)
	}
	loadGraph(t, vts.URL, "v", 5)
	if code := post(t, vts.URL+"/graphs/v/snapshot", nil, nil); code != http.StatusNotImplemented {
		t.Fatalf("snapshot on volatile daemon: status %d, want 501", code)
	}
}
