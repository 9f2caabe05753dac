package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"lagraph/internal/catalog"
	"lagraph/internal/leakcheck"
	"lagraph/internal/obs"
	"lagraph/internal/svc"
)

// TestRunAgainstRealService drives the full loadgen round-trip — load,
// concurrent query mix, determinism check, metrics validation — against
// an in-process service. It is the regression test for the worker-pool
// restructure: the job queue is filled and closed before any worker
// starts, so when run() returns there is no feeder goroutine left behind
// for leakcheck to catch.
func TestRunAgainstRealService(t *testing.T) {
	leakcheck.Check(t)
	t.Cleanup(http.DefaultClient.CloseIdleConnections)
	s := svc.New(catalog.New(), &obs.Counters{}, svc.Config{})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	err := run(options{
		bases: []string{ts.URL}, name: "loadgen-test", scale: 5,
		queries: 24, parallel: 4, wait: 2 * time.Second,
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
}

// TestRunReportsUnhealthyDaemon pins the failure path: no daemon behind
// the URL must surface as an error, not a hang, within the -wait budget.
func TestRunReportsUnhealthyDaemon(t *testing.T) {
	leakcheck.Check(t)
	ts := httptest.NewServer(http.NotFoundHandler())
	ts.Close()
	err := run(options{bases: []string{ts.URL}, wait: 100 * time.Millisecond})
	if err == nil {
		t.Fatal("run against a dead daemon succeeded")
	}
}

// TestClusterLaggingJudgesPlacement stubs a 3-node cluster's status and
// topology documents. Graph "g" is placed on a (primary) and c. A member
// that has not discovered the graph lists nothing for it, and must count
// as lagging, not as converged.
func TestClusterLaggingJudgesPlacement(t *testing.T) {
	leakcheck.Check(t)
	t.Cleanup(http.DefaultClient.CloseIdleConnections)
	type pos struct {
		Name       string `json:"name"`
		Role       string `json:"role"`
		Generation uint64 `json:"generation"`
		Journal    uint64 `json:"journal"`
	}
	placement := []map[string]any{{"name": "g", "primary": "a", "nodes": []string{"a", "c"}}}
	stub := func(id string, graphs ...pos) *httptest.Server {
		mux := http.NewServeMux()
		mux.HandleFunc("GET /v1/cluster/status", func(w http.ResponseWriter, _ *http.Request) {
			_ = json.NewEncoder(w).Encode(map[string]any{"node": id, "ready": true, "graphs": graphs})
		})
		mux.HandleFunc("GET /v1/cluster/topology", func(w http.ResponseWriter, _ *http.Request) {
			pl := placement
			if len(graphs) == 0 {
				pl = nil // a node lists placements only for the graphs it holds
			}
			_ = json.NewEncoder(w).Encode(map[string]any{"self": id, "placements": pl})
		})
		ts := httptest.NewServer(mux)
		t.Cleanup(ts.Close)
		return ts
	}
	a := stub("a", pos{"g", "primary", 4, 17})
	b := stub("b")
	for _, tc := range []struct {
		name string
		c    *httptest.Server
		want string // substring of the lagging report; "" = converged
	}{
		{"member has not discovered the graph", stub("c"), "has not discovered"},
		{"member behind the primary", stub("c", pos{"g", "replica", 4, 16}), "lags on"},
		{"member caught up", stub("c", pos{"g", "replica", 4, 17}), ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lagging, err := clusterLagging(http.DefaultClient, []string{a.URL, b.URL, tc.c.URL})
			if err != nil {
				t.Fatal(err)
			}
			if (tc.want == "") != (lagging == "") || !strings.Contains(lagging, tc.want) {
				t.Fatalf("lagging = %q, want %q", lagging, tc.want)
			}
		})
	}
	// A member left out of the polled bases (a node down on purpose) is
	// not judged.
	if lagging, err := clusterLagging(http.DefaultClient, []string{a.URL, b.URL}); err != nil || lagging != "" {
		t.Fatalf("unpolled member judged: %q, %v", lagging, err)
	}
}
