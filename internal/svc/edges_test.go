package svc

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"lagraph/internal/catalog"
	"lagraph/internal/leakcheck"
	"lagraph/internal/obs"
	"lagraph/internal/store"
	"lagraph/internal/wal"
)

// postEdges sends one edge batch to the /v1 spelling and decodes the
// response.
func postEdges(t *testing.T, base, name string, body map[string]any) (int, EdgesResponse) {
	t.Helper()
	var resp EdgesResponse
	code := post(t, base+"/v1/graphs/"+name+"/edges", body, &resp)
	return code, resp
}

// get fetches a URL and decodes the JSON response into out (if non-nil).
func get(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && len(data) > 0 {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("decode %s: %v: %s", url, err, data)
		}
	}
	return resp.StatusCode
}

func TestEdgesIngestEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	p0 := loadGraph(t, ts.URL, "g", 6)

	// Two fresh edges (undirected graph: the apply path mirrors them).
	code, resp := postEdges(t, ts.URL, "g", map[string]any{
		"edges": []map[string]any{
			{"src": 0, "dst": 63, "weight": 2.5},
			{"src": 1, "dst": 62},
		},
	})
	if code != http.StatusOK {
		t.Fatalf("edges: status %d", code)
	}
	if resp.Accepted != 2 || resp.Added != 2 || resp.Removed != 0 {
		t.Fatalf("response %+v", resp)
	}
	if resp.Generation != p0.Generation+1 {
		t.Fatalf("generation %d, want %d", resp.Generation, p0.Generation+1)
	}
	if resp.Durable || resp.LSN != 0 {
		t.Fatalf("volatile daemon claims durability: %+v", resp)
	}
	if resp.Pending == 0 {
		t.Fatal("batch must land as pending tuples (deferred assembly)")
	}

	// The next read assembles and sees the new edges.
	var info catalog.Properties
	if code := get(t, ts.URL+"/v1/graphs/g", &info); code != http.StatusOK {
		t.Fatalf("info: %d", code)
	}
	if !info.Warm {
		t.Fatal("info should have warmed the entry")
	}
	// Each fresh undirected edge lands as a mirrored pair of entries; an
	// edge the generator already produced is an upsert. Either way the
	// stored-entry count cannot shrink and the delta is even.
	afterAdd := info.NEdges
	if afterAdd < p0.NEdges || (afterAdd-p0.NEdges)%2 != 0 {
		t.Fatalf("NEdges %d after adds (was %d): mirrored adds must grow by an even count", afterAdd, p0.NEdges)
	}

	// Remove one again: (0,63) definitely exists now, so the remove drops
	// exactly its mirrored pair.
	code, resp = postEdges(t, ts.URL, "g", map[string]any{
		"edges": []map[string]any{{"src": 0, "dst": 63, "remove": true}},
	})
	if code != http.StatusOK || resp.Removed != 1 {
		t.Fatalf("remove: code %d resp %+v", code, resp)
	}
	if code := get(t, ts.URL+"/v1/graphs/g", &info); code != http.StatusOK {
		t.Fatalf("info after remove: %d", code)
	}
	if info.NEdges != afterAdd-2 {
		t.Fatalf("NEdges %d after remove, want %d (mirrored pair dropped)", info.NEdges, afterAdd-2)
	}
}

func TestEdgesValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	loadGraph(t, ts.URL, "g", 4)

	cases := map[string]struct {
		graph string
		body  map[string]any
		want  int
		code  string
	}{
		"unknown graph": {"nope", map[string]any{"edges": []map[string]any{{"src": 0, "dst": 1}}}, http.StatusNotFound, "not_found"},
		"empty batch":   {"g", map[string]any{"edges": []map[string]any{}}, http.StatusBadRequest, "bad_request"},
		"out of range":  {"g", map[string]any{"edges": []map[string]any{{"src": 0, "dst": 99}}}, http.StatusBadRequest, "bad_request"},
		"bad dup":       {"g", map[string]any{"dup": "median", "edges": []map[string]any{{"src": 0, "dst": 1}}}, http.StatusBadRequest, "bad_request"},
	}
	for name, tc := range cases {
		var eb errorBody
		code := post(t, ts.URL+"/v1/graphs/"+tc.graph+"/edges", tc.body, &eb)
		if code != tc.want {
			t.Errorf("%s: status %d want %d", name, code, tc.want)
		}
		if eb.Error.Code != tc.code {
			t.Errorf("%s: envelope code %q want %q", name, eb.Error.Code, tc.code)
		}
		if eb.Error.Message == "" {
			t.Errorf("%s: envelope has no message", name)
		}
		if eb.Error.Retryable {
			t.Errorf("%s: client errors must not be retryable", name)
		}
	}

	// A rejected batch must leave the entry untouched: same generation,
	// same edge count.
	var before, after catalog.Properties
	get(t, ts.URL+"/v1/graphs/g", &before)
	postEdges(t, ts.URL, "g", map[string]any{"edges": []map[string]any{
		{"src": 0, "dst": 1}, {"src": 0, "dst": 99}, // second op poisons the whole batch
	}})
	get(t, ts.URL+"/v1/graphs/g", &after)
	if after.Generation != before.Generation || after.NEdges != before.NEdges {
		t.Fatalf("rejected batch mutated entry: before %+v after %+v", before, after)
	}
}

func TestEdgesDupPolicies(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	loadGraph(t, ts.URL, "g", 4)

	// Establish the edge with a last-wins upsert, then read the settled
	// structural count.
	if code, _ := postEdges(t, ts.URL, "g", map[string]any{
		"edges": []map[string]any{{"src": 2, "dst": 3, "weight": 1.5}},
	}); code != http.StatusOK {
		t.Fatalf("seed upsert: status %d", code)
	}
	var settled catalog.Properties
	get(t, ts.URL+"/v1/graphs/g", &settled)

	// Sum-upserts accumulate onto the stored value: the structural edge
	// count must not move.
	for i := 0; i < 3; i++ {
		code, _ := postEdges(t, ts.URL, "g", map[string]any{
			"dup":   "sum",
			"edges": []map[string]any{{"src": 2, "dst": 3, "weight": 1.5}},
		})
		if code != http.StatusOK {
			t.Fatalf("sum batch %d: status %d", i, code)
		}
	}
	var info catalog.Properties
	if code := get(t, ts.URL+"/v1/graphs/g", &info); code != http.StatusOK {
		t.Fatalf("info: %d", code)
	}
	if info.NEdges != settled.NEdges {
		t.Fatalf("NEdges moved %d -> %d under sum-upserts of an existing edge",
			settled.NEdges, info.NEdges)
	}
	// The accumulated weight is visible to a weighted algorithm: sssp from
	// 2 must be finite and deterministic.
	var q1, q2 QueryResponse
	if code := post(t, ts.URL+"/v1/graphs/g/query", map[string]any{"algo": "sssp", "src": 2}, &q1); code != http.StatusOK {
		t.Fatalf("sssp: %d", code)
	}
	post(t, ts.URL+"/v1/graphs/g/query", map[string]any{"algo": "sssp", "src": 2}, &q2)
	if q1.Checksum == "" || q1.Checksum != q2.Checksum {
		t.Fatalf("sssp over accumulated weights not deterministic: %q vs %q", q1.Checksum, q2.Checksum)
	}
}

// newDurableServer builds a server with a store and an attached WAL under
// dir, running boot recovery (LoadAll + journal replay) first. Mirrors
// the daemon's wiring in cmd/lagraphd, including fsync-on-commit — the
// Durable:true assertions below must test the real contract.
func newDurableServer(t *testing.T, dir string) (*Server, *httptest.Server, *wal.Log) {
	t.Helper()
	leakcheck.Check(t)
	t.Cleanup(http.DefaultClient.CloseIdleConnections)
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	jl, err := wal.Open(filepath.Join(dir, "wal"), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { jl.Close() })
	cat := catalog.New()
	p := store.NewPersister(st, cat)
	p.AttachWAL(jl)
	if _, err := p.LoadAll(); err != nil {
		t.Fatal(err)
	}
	s := New(cat, &obs.Counters{}, Config{Persister: p})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, jl
}

// TestEdgesDurableCrashRecovery is the service-level replay contract: a
// daemon that dies after acknowledging journaled batches — without ever
// snapshotting them — reboots into a graph whose query results are
// checksum-identical to the pre-crash state.
func TestEdgesDurableCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	_, ts, _ := newDurableServer(t, dir)
	loadGraph(t, ts.URL, "g", 6)

	var last EdgesResponse
	for i := 0; i < 5; i++ {
		code, resp := postEdges(t, ts.URL, "g", map[string]any{
			"edges": []map[string]any{
				{"src": i, "dst": 63 - i, "weight": float64(i + 2)},
			},
		})
		if code != http.StatusOK {
			t.Fatalf("batch %d: status %d", i, code)
		}
		if !resp.Durable || resp.LSN != uint64(i+1) {
			t.Fatalf("batch %d not journaled in sequence: %+v", i, resp)
		}
		last = resp
	}
	_ = last

	var preInfo catalog.Properties
	get(t, ts.URL+"/v1/graphs/g", &preInfo)
	var preQuery QueryResponse
	if code := post(t, ts.URL+"/v1/graphs/g/query", map[string]any{"algo": "cc"}, &preQuery); code != http.StatusOK {
		t.Fatalf("pre-crash query: %d", code)
	}
	// Crash: close the HTTP listener only. No flush, no graceful drain —
	// the WAL is the sole durable copy of the five batches (the edges
	// handler forced a baseline snapshot before the first).
	ts.Close()

	_, ts2, _ := newDurableServer(t, dir)
	var postInfo catalog.Properties
	if code := get(t, ts2.URL+"/v1/graphs/g", &postInfo); code != http.StatusOK {
		t.Fatalf("post-crash info: %d", code)
	}
	if postInfo.NEdges != preInfo.NEdges || postInfo.N != preInfo.N {
		t.Fatalf("recovered graph differs: pre %+v post %+v", preInfo, postInfo)
	}
	var postQuery QueryResponse
	if code := post(t, ts2.URL+"/v1/graphs/g/query", map[string]any{"algo": "cc"}, &postQuery); code != http.StatusOK {
		t.Fatalf("post-crash query: %d", code)
	}
	if postQuery.Checksum != preQuery.Checksum {
		t.Fatalf("post-crash checksum %s != pre-crash %s (replay not identical)",
			postQuery.Checksum, preQuery.Checksum)
	}
}

// TestReplaceLoadKeepsDurableBatches: a replace load swaps a durable
// graph's contents, and the batches acknowledged after it must replay
// onto the new contents after a crash. Without a new durable incarnation
// the old snapshot stays live and the next batch skips its baseline
// snapshot: a smaller replacement then recovers as the old graph, and a
// larger one fails the boot, because the batch names vertices the old
// graph does not have.
func TestReplaceLoadKeepsDurableBatches(t *testing.T) {
	for _, tc := range []struct {
		name     string
		from, to int // generator scales of the original and the replacement
	}{
		{"smaller", 6, 5},
		{"larger", 5, 7},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			_, ts, _ := newDurableServer(t, dir)
			loadGraph(t, ts.URL, "g", tc.from)
			batch := func(dst int) {
				t.Helper()
				code, resp := postEdges(t, ts.URL, "g", map[string]any{
					"edges": []map[string]any{{"src": 0, "dst": dst}},
				})
				if code != http.StatusOK || !resp.Durable {
					t.Fatalf("batch to %d: status %d, %+v", dst, code, resp)
				}
			}
			batch(3) // snapshots the original, then journals onto it
			var replaced catalog.Properties
			if code := post(t, ts.URL+"/v1/graphs", map[string]any{
				"name": "g", "undirected": true, "replace": true,
				"generator": map[string]any{"kind": "powerlaw", "scale": tc.to, "edge_factor": 8, "seed": 7},
			}, &replaced); code != http.StatusCreated || replaced.N != 1<<tc.to {
				t.Fatalf("replace: status %d, %+v", code, replaced)
			}
			batch(replaced.N - 8)
			var pre catalog.Properties
			get(t, ts.URL+"/v1/graphs/g", &pre)
			preCC := queryChecksum(t, ts.URL, "g", "cc")
			ts.Close() // crash: no flush, no drain

			_, ts2, _ := newDurableServer(t, dir)
			var post catalog.Properties
			if code := get(t, ts2.URL+"/v1/graphs/g", &post); code != http.StatusOK {
				t.Fatalf("post-crash info: %d", code)
			}
			if post.N != pre.N || post.NEdges != pre.NEdges {
				t.Fatalf("recovered %d vertices, %d edges; want the replacement's %d, %d", post.N, post.NEdges, pre.N, pre.NEdges)
			}
			if cc := queryChecksum(t, ts2.URL, "g", "cc"); cc != preCC {
				t.Fatalf("post-crash cc checksum %s != pre-crash %s", cc, preCC)
			}
		})
	}
}

// TestEdgesNoSyncNotDurable: with -wal-sync=false the batch is journaled
// (LSN assigned) but never fsynced, so the response must not claim the
// "fsynced before this response was written" contract.
func TestEdgesNoSyncNotDurable(t *testing.T) {
	dir := t.TempDir()
	leakcheck.Check(t)
	t.Cleanup(http.DefaultClient.CloseIdleConnections)
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	jl, err := wal.Open(filepath.Join(dir, "wal"), wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { jl.Close() })
	cat := catalog.New()
	p := store.NewPersister(st, cat)
	p.AttachWAL(jl)
	if _, err := p.LoadAll(); err != nil {
		t.Fatal(err)
	}
	s := New(cat, &obs.Counters{}, Config{Persister: p})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	loadGraph(t, ts.URL, "g", 4)
	code, resp := postEdges(t, ts.URL, "g", map[string]any{
		"edges": []map[string]any{{"src": 0, "dst": 1}},
	})
	if code != http.StatusOK {
		t.Fatalf("edges: status %d", code)
	}
	if resp.LSN == 0 {
		t.Fatalf("batch not journaled: %+v", resp)
	}
	if resp.Durable {
		t.Fatalf("unsynced append claims durability: %+v", resp)
	}
}

func TestEdgesWALMetricsFamilies(t *testing.T) {
	dir := t.TempDir()
	_, ts, _ := newDurableServer(t, dir)
	loadGraph(t, ts.URL, "g", 4)
	if code, _ := postEdges(t, ts.URL, "g", map[string]any{
		"edges": []map[string]any{{"src": 0, "dst": 1}},
	}); code != http.StatusOK {
		t.Fatalf("edges: %d", code)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	body := string(data)
	for _, family := range []string{
		"lagraphd_wal_appends_total", "lagraphd_wal_append_bytes_total",
		"lagraphd_wal_fsyncs_total", "lagraphd_wal_segments",
		"lagraphd_wal_next_lsn", "lagraphd_wal_replayed_total",
		"lagraphd_wal_torn_bytes",
	} {
		if !strings.Contains(body, family) {
			t.Errorf("missing %s in /metrics", family)
		}
	}
	if err := ValidateMetrics(strings.NewReader(body)); err != nil {
		t.Fatalf("metrics failed validation with WAL families: %v", err)
	}
}
