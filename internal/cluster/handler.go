package cluster

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"

	"lagraph/internal/store"
	"lagraph/internal/wal"
)

// Placement is one graph's ownership row in the topology document.
type Placement struct {
	Name    string   `json:"name"`
	Primary string   `json:"primary"`
	Nodes   []string `json:"nodes"` // primary first, then replicas
}

// topologyDoc is the GET /v1/cluster/topology response: the membership
// document plus this node's identity and the per-graph placement of
// every locally known graph.
type topologyDoc struct {
	Topology
	Self       string      `json:"self"`
	Placements []Placement `json:"placements"`
}

// errorBody mirrors the service layer's error envelope so cluster
// endpoints speak the same dialect as /v1.
type errorBody struct {
	Error errorInfo `json:"error"`
}

type errorInfo struct {
	Code      string `json:"code"`
	Message   string `json:"message"`
	Retryable bool   `json:"retryable"`
}

// Handler serves the cluster wire protocol. The service layer mounts it
// under /v1/cluster/; the patterns are absolute so tests can also mount
// it as a bare root handler.
func (n *Node) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/cluster/topology", n.handleTopologyGet)
	mux.HandleFunc("POST /v1/cluster/topology", n.handleTopologyPost)
	mux.HandleFunc("GET /v1/cluster/status", n.handleStatus)
	mux.HandleFunc("GET /v1/cluster/wal", n.handleWALStream)
	mux.HandleFunc("GET /v1/cluster/graphs/{name}/snapshot", n.handleSnapshotFetch)
	return mux
}

// clusterError writes the JSON error envelope.
func clusterError(w http.ResponseWriter, status int, code, msg string, retryable bool) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(errorBody{Error: errorInfo{Code: code, Message: msg, Retryable: retryable}})
}

// handleTopologyGet returns the node list, ring parameters, epoch, and
// the placement of every graph this node knows about.
func (n *Node) handleTopologyGet(w http.ResponseWriter, r *http.Request) {
	doc := topologyDoc{Topology: n.TopologySnapshot(), Self: n.self, Placements: []Placement{}}
	for _, name := range n.cat.Names() {
		owners := n.Placement(name)
		p := Placement{Name: name, Nodes: make([]string, 0, len(owners))}
		for _, o := range owners {
			p.Nodes = append(p.Nodes, o.ID)
		}
		if len(owners) > 0 {
			p.Primary = owners[0].ID
		}
		doc.Placements = append(doc.Placements, p)
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(doc)
}

// handleTopologyPost installs a new topology document (an operator-driven
// epoch bump; peers also pick it up by gossip on their next poll).
func (n *Node) handleTopologyPost(w http.ResponseWriter, r *http.Request) {
	var t Topology
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&t); err != nil {
		clusterError(w, http.StatusBadRequest, "bad_request", "topology: "+err.Error(), false)
		return
	}
	if err := n.ApplyTopology(t); err != nil {
		clusterError(w, http.StatusConflict, "stale_epoch", err.Error(), false)
		return
	}
	n.logf("cluster: topology epoch %d applied (%d nodes, %d replicas)", t.Epoch, len(t.Nodes), t.Replicas)
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{"epoch": t.Epoch, "nodes": len(t.Nodes)})
}

// handleStatus reports this node's replication state: epoch, readiness,
// WAL head, and the role/journal/lag of every local graph.
func (n *Node) handleStatus(w http.ResponseWriter, r *http.Request) {
	doc := n.statusSnapshot()
	if doc.Graphs == nil {
		doc.Graphs = []graphStatus{}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(doc)
}

// countingWriter tracks whether any stream bytes reached the client —
// once they have, an error can only be signalled by truncating the
// stream (the reader's CRC/chain validation catches it).
type countingWriter struct {
	w io.Writer
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

// handleWALStream serves a verified window of this node's WAL in the
// literal on-disk record format: a synthetic segment header carrying the
// chain digest of the predecessor record, then raw framed records.
func (n *Node) handleWALStream(w http.ResponseWriter, r *http.Request) {
	l := n.pers.WAL()
	if l == nil {
		clusterError(w, http.StatusNotImplemented, "no_persistence", "cluster: this node has no WAL attached", false)
		return
	}
	from, err := strconv.ParseUint(r.URL.Query().Get("from"), 10, 64)
	if err != nil || from == 0 {
		clusterError(w, http.StatusBadRequest, "bad_request", "cluster: wal stream needs from=<lsn>=1>", false)
		return
	}
	maxRecords := 4096
	if s := r.URL.Query().Get("max"); s != "" {
		m, merr := strconv.Atoi(s)
		if merr != nil || m < 0 {
			clusterError(w, http.StatusBadRequest, "bad_request", "cluster: bad max", false)
			return
		}
		maxRecords = m
	}
	if maxRecords > 65536 {
		maxRecords = 65536
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	cw := &countingWriter{w: w}
	info, err := l.StreamTo(cw, from, maxRecords)
	if err != nil {
		if cw.n == 0 {
			// Nothing sent yet: a clean HTTP error is still possible.
			if errors.Is(err, wal.ErrTruncated) {
				clusterError(w, http.StatusGone, "truncated", err.Error(), false)
				return
			}
			clusterError(w, http.StatusInternalServerError, "internal", err.Error(), true)
			return
		}
		// Mid-stream failure: the response is already committed. The
		// truncated window fails the reader's verification, which retries.
		n.logf("cluster: wal stream from %d aborted after %d bytes: %v", from, cw.n, err)
		return
	}
	n.shippedRecords.Add(int64(info.Records))
}

// handleSnapshotFetch serves one graph as a framed, checksummed snapshot
// — the same bytes a local store snapshot would hold (Persister.Frame,
// fence included), so the follower installs it through the standard
// decode path.
func (n *Node) handleSnapshotFetch(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	e, err := n.cat.Get(name)
	if err != nil {
		clusterError(w, http.StatusNotFound, "not_found", err.Error(), false)
		return
	}
	meta, payload, err := n.pers.Frame(e)
	if err != nil {
		clusterError(w, http.StatusInternalServerError, "internal", err.Error(), true)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	if err := store.WriteFrame(w, meta, payload); err != nil {
		// Response already committed; the follower's frame CRC fails.
		n.logf("cluster: snapshot ship %q: %v", name, err)
		return
	}
	n.shippedSnaps.Add(1)
}
