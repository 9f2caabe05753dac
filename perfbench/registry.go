package main

// metricDef describes one reported metric. End-to-end metrics carry the
// regression bound; per-layer metrics carry the prediction: the
// end-to-end metric a change in this layer metric should move, and the
// workload where it shows.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	Layer  string  `json:"layer"`
	Moves  string  `json:"moves,omitempty"`
	On     string  `json:"on,omitempty"`
	Why    string  `json:"why"`
}

// workloadDef names a workload and why it exists.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// workloads are the ones BENCHMARK.json lists.
var workloads = []workloadDef{
	{"read-mix", "2 closed-loop readers over bfs/sssp/pagerank/cc/tc on a warm graph: grb and lagraph do the work, catalog takes only its shared lock"},
	{"ingest-read", "durable 64-tuple batches vs 1 incremental reader on one graph, a passive replica following: lock handoff, cold-to-warm rebuilds, WAL fsync, shipping"},
}

// manualWorkloads run the same way but are left out of BENCHMARK.json:
// replicate's replica-read latencies are not steady enough to gate on,
// and its phase-locked writer exposes a cluster defect (see CHANGES.md).
var manualWorkloads = []workloadDef{
	{"replicate", "3 nodes, 1 replica: open-loop writes to the primary at a fixed rate, closed-loop bfs reads on the replica; replica lag as a client sees it"},
}

var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Layer: "e2e",
		Why: "median over set-up rounds of graph upload (inline Matrix Market) + baseline snapshot + first answered query; in replicate the first answer comes from the replica"},
	{Name: "query_qps", Unit: "1/s", Better: "higher", Bound: 0.25, Layer: "e2e",
		Why: "answered queries per second over the measured window"},
	{Name: "query_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, Layer: "e2e",
		Why: "median client-side query latency"},
	{Name: "query_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25, Layer: "e2e",
		Why: "95th percentile client-side query latency"},
	{Name: "recover_s", Unit: "s", Better: "lower", Bound: 0.25, Layer: "e2e",
		Why: "median over restarts of wal.Open + Persister.LoadAll on the (primary's) data dir, replaying every acknowledged batch (none in read-mix)"},
	{Name: "answered_ratio", Unit: "ratio", Better: "higher", Bound: 0.01, Layer: "e2e",
		Why: "2xx answers over attempts (1 - failed ratio; failures are also in the failed field)"},
	{Name: "heap_peak_mb", Unit: "MiB", Better: "lower", Bound: 0.2, Layer: "e2e",
		Why: "largest sampled live heap of the process over the run"},
}

var perLayer = []metricDef{
	{Name: "svc.query_self_ms_p50", Unit: "ms", Better: "lower", Layer: "svc", Moves: "query_p50_ms", On: "read-mix",
		Why: "client latency minus the server's elapsed_ms: decode, admission, encode"},
	{Name: "svc.ingest_self_ms_p50", Unit: "ms", Better: "lower", Layer: "svc", Moves: "bench.ingest_p50_ms", On: "replicate",
		Why: "ingest client latency minus elapsed_ms (HTTP ingests only)"},
	{Name: "svc.rejected", Unit: "count", Better: "lower", Layer: "svc", Moves: "answered_ratio", On: "all",
		Why: "admission-gate 429s (lagraphd_queries_rejected_total delta)"},

	{Name: "catalog.view_wait_ms_p50", Unit: "ms", Better: "lower", Layer: "catalog", Moves: "query_p50_ms", On: "ingest-read",
		Why: "Entry.View call to callback entry: lock wait plus warm; near 0 on read-mix"},
	{Name: "catalog.view_wait_ms_p95", Unit: "ms", Better: "lower", Layer: "catalog", Moves: "query_p95_ms", On: "ingest-read",
		Why: "tail of the view wait"},
	{Name: "catalog.warms_per_view", Unit: "1/query", Better: "lower", Layer: "catalog", Moves: "query_p50_ms", On: "ingest-read",
		Why: "cold-to-warm rebuilds per answered query (catalog warms delta)"},
	{Name: "catalog.ingest_wait_ms_p50", Unit: "ms", Better: "lower", Layer: "catalog", Moves: "bench.ingest_p50_ms", On: "ingest-read",
		Why: "Entry.Ingest call to callback entry: exclusive-lock wait"},
	{Name: "catalog.ingest_wait_ms_p95", Unit: "ms", Better: "lower", Layer: "catalog", Moves: "bench.ingest_p95_ms", On: "ingest-read",
		Why: "tail of the ingest lock wait; also moves bench.ingest_batches_per_s"},
	{Name: "catalog.prior_hit_ratio", Unit: "ratio", Better: "higher", Layer: "catalog", Moves: "query_p50_ms", On: "ingest-read",
		Why: "warm-started answers over mode=incremental requests"},

	{Name: "lagraph.bfs_ms_p50", Unit: "ms", Better: "lower", Layer: "lagraph", Moves: "query_qps", On: "read-mix", Why: "server elapsed_ms of bfs"},
	{Name: "lagraph.sssp_ms_p50", Unit: "ms", Better: "lower", Layer: "lagraph", Moves: "query_qps", On: "read-mix", Why: "server elapsed_ms of sssp"},
	{Name: "lagraph.pagerank_ms_p50", Unit: "ms", Better: "lower", Layer: "lagraph", Moves: "query_qps", On: "read-mix", Why: "server elapsed_ms of pagerank"},
	{Name: "lagraph.cc_ms_p50", Unit: "ms", Better: "lower", Layer: "lagraph", Moves: "query_qps", On: "read-mix", Why: "server elapsed_ms of cc"},
	{Name: "lagraph.tc_ms_p50", Unit: "ms", Better: "lower", Layer: "lagraph", Moves: "query_p95_ms", On: "read-mix", Why: "server elapsed_ms of tc, which sets the tail"},
	{Name: "lagraph.bfs_iters", Unit: "iters", Better: "lower", Layer: "lagraph", Moves: "query_qps", On: "read-mix", Why: "median iteration records per traced bfs"},
	{Name: "lagraph.sssp_iters", Unit: "iters", Better: "lower", Layer: "lagraph", Moves: "query_qps", On: "read-mix", Why: "median iteration records per traced sssp"},
	{Name: "lagraph.pagerank_iters", Unit: "iters", Better: "lower", Layer: "lagraph", Moves: "query_qps", On: "read-mix", Why: "median iteration records per traced pagerank"},
	{Name: "lagraph.cc_iters", Unit: "iters", Better: "lower", Layer: "lagraph", Moves: "query_qps", On: "read-mix", Why: "median iteration records per traced cc"},
	{Name: "lagraph.tc_iters", Unit: "iters", Better: "lower", Layer: "lagraph", Moves: "query_p95_ms", On: "read-mix", Why: "median iteration records per traced tc"},
	{Name: "lagraph.iterations_saved", Unit: "iters/query", Better: "higher", Layer: "lagraph", Moves: "query_p50_ms", On: "ingest-read",
		Why: "mean iterations_saved per mode=incremental request"},

	{Name: "grb.kernel_ms_share", Unit: "ratio", Better: "lower", Layer: "grb", Moves: "query_qps", On: "read-mix",
		Why: "summed kernel op time (obs.Counters) over summed server query time"},
	{Name: "grb.ops", Unit: "1/query", Better: "lower", Layer: "grb", Moves: "query_qps", On: "read-mix", Why: "kernel ops per answered query"},
	{Name: "grb.est_flops", Unit: "1/query", Better: "lower", Layer: "grb", Moves: "query_qps", On: "read-mix", Why: "estimated flops per answered query"},
	{Name: "grb.ops.gustavson", Unit: "1/query", Better: "lower", Layer: "grb", Moves: "query_qps", On: "read-mix", Why: "gustavson mxm ops per query"},
	{Name: "grb.ops.dot", Unit: "1/query", Better: "lower", Layer: "grb", Moves: "query_qps", On: "read-mix", Why: "dot mxm ops per query"},
	{Name: "grb.ops.heap", Unit: "1/query", Better: "lower", Layer: "grb", Moves: "query_qps", On: "read-mix", Why: "heap mxm ops per query"},
	{Name: "grb.ops.push", Unit: "1/query", Better: "lower", Layer: "grb", Moves: "query_qps", On: "read-mix", Why: "push vxm/mxv ops per query"},
	{Name: "grb.ops.pull", Unit: "1/query", Better: "lower", Layer: "grb", Moves: "query_qps", On: "read-mix", Why: "pull vxm/mxv ops per query"},
	{Name: "grb.ops.bitmap", Unit: "1/query", Better: "lower", Layer: "grb", Moves: "query_qps", On: "read-mix", Why: "bitmap kernel ops per query"},
	{Name: "grb.ops.assemble", Unit: "1/query", Better: "lower", Layer: "grb", Moves: "query_p50_ms", On: "ingest-read", Why: "pending-tuple assemblies per query"},
	{Name: "grb.pending_per_view", Unit: "1/query", Better: "lower", Layer: "grb", Moves: "query_p50_ms", On: "ingest-read",
		Why: "pending tuples assembled per answered query"},

	{Name: "store.validate_ms_p50", Unit: "ms", Better: "lower", Layer: "store", Moves: "bench.ingest_p50_ms", On: "ingest-read", Why: "store.ValidateEdgeBatch span"},
	{Name: "store.apply_ms_p50", Unit: "ms", Better: "lower", Layer: "store", Moves: "bench.ingest_p50_ms", On: "ingest-read", Why: "store.ApplyEdgeBatch span"},
	{Name: "store.snapshot_ms", Unit: "ms", Better: "lower", Layer: "store", Moves: "setup_s", On: "ingest-read",
		Why: "median server elapsed_ms of the baseline snapshot taken in each set-up round"},
	{Name: "store.loadall_ms", Unit: "ms", Better: "lower", Layer: "store", Moves: "recover_s", On: "ingest-read", Why: "median Persister.LoadAll time over restarts"},
	{Name: "store.replayed_batches", Unit: "count", Better: "lower", Layer: "store", Moves: "recover_s", On: "ingest-read", Why: "journal records replayed by one restart"},

	{Name: "wal.journal_ms_p50", Unit: "ms", Better: "lower", Layer: "wal", Moves: "bench.ingest_p50_ms", On: "ingest-read",
		Why: "Persister.JournalEdges span: encode, append, fsync"},
	{Name: "wal.journal_ms_p95", Unit: "ms", Better: "lower", Layer: "wal", Moves: "bench.ingest_p95_ms", On: "ingest-read", Why: "tail of the journal span"},
	{Name: "wal.fsyncs_per_batch", Unit: "1/batch", Better: "lower", Layer: "wal", Moves: "bench.ingest_batches_per_s", On: "ingest-read",
		Why: "lagraphd_wal_fsyncs_total delta over appends"},
	{Name: "wal.bytes_per_tuple", Unit: "B", Better: "lower", Layer: "wal", Moves: "bench.ingest_batches_per_s", On: "ingest-read",
		Why: "journal bytes appended per ingested tuple"},
	{Name: "wal.open_ms", Unit: "ms", Better: "lower", Layer: "wal", Moves: "recover_s", On: "ingest-read", Why: "median wal.Open time over restarts"},

	{Name: "cluster.shipped_records", Unit: "count", Better: "lower", Layer: "cluster", Moves: "bench.ingest_p50_ms", On: "ingest-read",
		Why: "journal records served to replicas (Node.Stats, summed over nodes)"},
	{Name: "cluster.fetched_records", Unit: "count", Better: "lower", Layer: "cluster", Moves: "bench.ingest_p50_ms", On: "ingest-read",
		Why: "journal records applied by replicas"},
	{Name: "cluster.fetched_snapshots", Unit: "count", Better: "lower", Layer: "cluster", Moves: "setup_s", On: "ingest-read",
		Why: "snapshots shipped to replicas over the run; the run fails if any is fetched after set-up"},
	{Name: "cluster.sync_errors", Unit: "count", Better: "lower", Layer: "cluster", Moves: "bench.ingest_p95_ms", On: "ingest-read",
		Why: "failed replication passes; the run fails unless 0"},
	{Name: "cluster.replica_lag_ms_p50", Unit: "ms", Better: "lower", Layer: "cluster", Moves: "query_p50_ms", On: "replicate",
		Why: "primary ack of generation g to the first replica answer at generation >= g"},
	{Name: "cluster.replica_lag_ms_p95", Unit: "ms", Better: "lower", Layer: "cluster", Moves: "query_p95_ms", On: "replicate",
		Why: "tail of the replica lag"},

	{Name: "go.gc_pause_ms_total", Unit: "ms", Better: "lower", Layer: "go", Moves: "query_p95_ms", On: "all",
		Why: "GC stop-the-world pause time over the measured window (runtime/metrics)"},
	{Name: "go.gc_cycles", Unit: "count", Better: "lower", Layer: "go", Moves: "query_p95_ms", On: "all", Why: "GC cycles over the measured window"},
	{Name: "bench.ingest_batches_per_s", Unit: "1/s", Better: "higher", Layer: "bench", Moves: "query_qps", On: "ingest-read",
		Why: "acknowledged batches per second of the writer (replicate: fixed by the generator rate)"},
	{Name: "bench.ingest_p50_ms", Unit: "ms", Better: "lower", Layer: "bench", Moves: "query_p50_ms", On: "ingest-read",
		Why: "median batch latency to a durable ack, as the writer sees it (replicate: from each batch's due time)"},
	{Name: "bench.ingest_p95_ms", Unit: "ms", Better: "lower", Layer: "bench", Moves: "query_p95_ms", On: "ingest-read",
		Why: "95th percentile batch latency to a durable ack"},
	{Name: "bench.generator_late_ms_p95", Unit: "ms", Better: "lower", Layer: "bench", Moves: "bench.ingest_p95_ms", On: "replicate",
		Why: "how late the open-loop writer sent, past each batch's due time"},
	{Name: "bench.trace_self_gap", Unit: "ratio", Better: "lower", Layer: "bench", Moves: "", On: "read-mix",
		Why: "worst |sum of span self times - outer span| / outer span over traced requests; the traced run fails above 0.1"},
}
