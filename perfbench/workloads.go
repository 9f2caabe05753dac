package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"lagraph/internal/catalog"
	"lagraph/internal/svc"
)

// window runs fn on each of n goroutines until stop reports true or one
// fails, and returns the first error.
func window(n int, stop func() bool, fn func(worker, iter int) error) error {
	var wg sync.WaitGroup
	errs := make([]error, n)
	var failed sync.Once
	quit := make(chan struct{})
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-quit:
					return
				default:
				}
				if stop() {
					return
				}
				if err := fn(w, i); err != nil {
					errs[w] = err
					failed.Do(func() { close(quit) })
					return
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// tolerate lets a measured operation fail without ending the window: it
// was counted in attempted and failed, and answered_ratio reports it.
// Failed gates and failures outside the measured window still end the
// run.
func tolerate(err error, measured bool) error {
	if measured && !errors.Is(err, errGate) {
		return nil
	}
	return err
}

// startWindow snapshots the counters a window's per-layer metrics are
// deltas of.
func (b *bench) startWindow(bases ...string) (func() error, error) {
	c0 := b.counters.Snapshot()
	p0, err := b.promSum(bases)
	if err != nil {
		return nil, err
	}
	g0 := readGC()
	q0 := b.query.n()
	return func() error {
		p1, err := b.promSum(bases)
		if err != nil {
			return err
		}
		gc := readGC().sub(g0)
		b.set("go.gc_cycles", gc.cycles, 1)
		b.set("go.gc_pause_ms_total", gc.pauseMS, 1)
		d := b.counters.Snapshot().Sub(c0)
		queries := float64(b.query.n() - q0)
		per := func(name string, v int64) { b.set(name, ratio(float64(v), queries), int(queries)) }
		per("grb.ops", d.Ops)
		per("grb.est_flops", d.EstFlops)
		per("grb.ops.gustavson", d.Gustavson)
		per("grb.ops.dot", d.Dot)
		per("grb.ops.heap", d.Heap)
		per("grb.ops.push", d.Push)
		per("grb.ops.pull", d.Pull)
		per("grb.ops.bitmap", d.Bitmap)
		per("grb.ops.assemble", d.Waits)
		per("grb.pending_per_view", d.Pending)
		server := 0.0
		for _, x := range b.serverMS.values() {
			server += x
		}
		for _, x := range b.viewWait.values() {
			server += x
		}
		b.set("grb.kernel_ms_share", ratio(float64(d.DurNanos)/1e6, server), int(queries))
		delta := func(k string) float64 { return p1[k] - p0[k] }
		b.set("svc.rejected", delta("lagraphd_queries_rejected_total"), 1)
		b.set("catalog.warms_per_view", ratio(delta("lagraphd_catalog_warms_total"), queries), int(queries))
		appends := delta("lagraphd_wal_appends_total")
		b.set("wal.fsyncs_per_batch", ratio(delta("lagraphd_wal_fsyncs_total"), appends), int(appends))
		b.set("wal.bytes_per_tuple", ratio(delta("lagraphd_wal_append_bytes_total"), appends*batchSize), int(appends))
		return nil
	}, nil
}

// promSum adds /metrics samples over nodes.
func (b *bench) promSum(bases []string) (map[string]float64, error) {
	out := map[string]float64{}
	for _, base := range bases {
		m, err := b.cl.promSample(base)
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			out[k] += v
		}
	}
	return out, nil
}

// finishReads derives the query metrics of a measured window.
func (b *bench) finishReads(d time.Duration) {
	b.set("query_qps", float64(b.query.n())/d.Seconds(), b.query.n())
	b.setQ("query_p50_ms", &b.query, 0.5)
	b.setQ("query_p95_ms", &b.query, 0.95)
	b.setQ("svc.query_self_ms_p50", &b.querySelf, 0.5)
	b.setQ("catalog.view_wait_ms_p50", &b.viewWait, 0.5)
	b.setQ("catalog.view_wait_ms_p95", &b.viewWait, 0.95)
	for _, a := range readAlgos {
		b.setQ("lagraph."+a+"_ms_p50", b.elapsed[a], 0.5)
		b.setQ("lagraph."+a+"_iters", b.iters[a], 0.5)
	}
	inc := float64(b.incRequests.Load())
	b.set("catalog.prior_hit_ratio", ratio(float64(b.incHits.Load()), inc), int(inc))
	b.set("lagraph.iterations_saved", ratio(float64(b.itersSaved.Load()), inc), int(inc))
	if b.spans != nil {
		_, gap, n := b.spans.selfTimes()
		b.set("bench.trace_self_gap", gap, n)
	}
}

// finishWrites derives the ingest metrics of n batches over d.
func (b *bench) finishWrites(n int, d time.Duration) {
	b.set("bench.ingest_batches_per_s", float64(n)/d.Seconds(), n)
	b.setQ("bench.ingest_p50_ms", &b.ingest, 0.5)
	b.setQ("bench.ingest_p95_ms", &b.ingest, 0.95)
	b.setQ("svc.ingest_self_ms_p50", &b.ingestSelf, 0.5)
	b.setQ("catalog.ingest_wait_ms_p50", &b.ingestWait, 0.5)
	b.setQ("catalog.ingest_wait_ms_p95", &b.ingestWait, 0.95)
	b.setQ("store.validate_ms_p50", &b.validate, 0.5)
	b.setQ("store.apply_ms_p50", &b.apply, 0.5)
	b.setQ("wal.journal_ms_p50", &b.journal, 0.5)
	b.setQ("wal.journal_ms_p95", &b.journal, 0.95)
}

// finish applies the traced run's own gate: every traced request's span
// self times must sum to within 10% of its outer span.
func (b *bench) finish() error {
	if b.spans == nil {
		return nil
	}
	_, gap, n := b.spans.selfTimes()
	if n == 0 {
		return gatef("traced run recorded no requests")
	}
	if gap > 0.1 {
		return gatef("span self times miss their request's outer span by %.1f%%", 100*gap)
	}
	return nil
}

// single starts one standalone node and runs the set-up rounds on it.
func (b *bench) single() (*node, string, *catalog.Entry, error) {
	ln, err := listen()
	if err != nil {
		return nil, "", nil, err
	}
	nd, err := startNode("a", filepath.Join(b.cfg.Dir, "a"), ln, nil, b.counters, nil)
	if err != nil {
		return nil, "", nil, err
	}
	at := func(string) string { return nd.url }
	name, err := b.setupRounds(at, at)
	var e *catalog.Entry
	if err == nil {
		e, err = nd.cat.Get(name)
	}
	if err != nil {
		nd.close()
		return nil, "", nil, err
	}
	return nd, name, e, nil
}

// readMix: set up, warm every query once, then measure 2 closed-loop
// readers round-robin over the five kernels. Nothing is written, so the
// restarts load the snapshot and replay an empty journal.
func (b *bench) readMix() error {
	nd, name, e, err := b.single()
	if err != nil {
		return err
	}
	closed := false
	defer func() {
		if !closed {
			nd.close()
		}
	}()

	query := func(w, i int) svc.QueryRequest {
		a := readAlgos[(w+i)%len(readAlgos)]
		return svc.QueryRequest{Algo: a, Src: b.in.sources[(w*7+i/len(readAlgos))%len(b.in.sources)]}
	}
	read := func(q svc.QueryRequest, measured bool) error {
		resp, _, err := b.readQuery(nd.url, name, e, q, measured)
		if err != nil {
			return tolerate(err, measured)
		}
		return b.check(answerKey(q, resp), resp.Checksum)
	}
	for i := range readAlgos {
		if err := read(query(0, i), false); err != nil {
			return err
		}
	}
	settle()
	end, err := b.startWindow(nd.url)
	if err != nil {
		return err
	}
	t0 := time.Now()
	deadline := t0.Add(time.Duration(b.cfg.Seconds * float64(time.Second)))
	err = window(2, func() bool { return time.Now().After(deadline) }, func(w, i int) error {
		return read(query(w, i), true)
	})
	b.finishReads(time.Since(t0))
	if err != nil {
		return err
	}
	if err := end(); err != nil {
		return err
	}

	pre, err := b.checkSet(nd.url, name)
	if err != nil {
		return err
	}
	closed = true
	if err := b.restart(nd, name, 0, pre); err != nil {
		return err
	}
	return b.finish()
}

// ingestRead: on a two-node cluster (primary plus one passive replica),
// 1 closed-loop writer of IngestBatches durable batches and 1
// closed-loop reader cycling bfs (fixed source) / cc / pagerank with
// mode=incremental on the primary until the writer is done; then one
// mode=verify query per algorithm, the replica gates and the restart.
func (b *bench) ingestRead() error {
	nodes, nd, repl, name, err := b.replicated([]string{"a", "b"}, 0)
	if err != nil {
		return err
	}
	closed := false
	defer func() {
		if !closed {
			closeAll(nodes)
		}
	}()
	e, err := nd.cat.Get(name)
	if err != nil {
		return err
	}
	incAlgos := []string{"bfs", "cc", "pagerank"}
	query := func(i int) svc.QueryRequest {
		return svc.QueryRequest{Algo: incAlgos[i%len(incAlgos)], Src: b.in.sources[0], Mode: "incremental"}
	}
	read := func(q svc.QueryRequest, measured bool) error {
		resp, _, err := b.readQuery(nd.url, name, e, q, measured)
		if err != nil {
			return tolerate(err, measured)
		}
		return b.check(answerKey(q, resp), resp.Checksum)
	}
	for i := range incAlgos {
		if err := read(query(i), false); err != nil {
			return err
		}
	}
	settle()
	end, err := b.startWindow(nd.url)
	if err != nil {
		return err
	}
	var mu sync.Mutex
	written := 0
	writerDone := func() bool { mu.Lock(); defer mu.Unlock(); return written >= b.cfg.IngestBatches }
	t0 := time.Now()
	err = window(2, writerDone, func(w, i int) error {
		if w == 1 {
			return read(query(i), true)
		}
		if _, _, err := b.writeBatch(nd, name, e, i, time.Time{}); err != nil {
			return tolerate(err, true)
		}
		mu.Lock()
		written++
		mu.Unlock()
		return nil
	})
	d := time.Since(t0)
	b.finishWrites(written, d)
	b.finishReads(d)
	if err != nil {
		return err
	}
	if err := end(); err != nil {
		return err
	}
	for _, a := range incAlgos {
		resp, _, _, err := b.cl.query(nd.url, name, svc.QueryRequest{Algo: a, Src: b.in.sources[0], Mode: "verify"})
		if err != nil {
			return gatef("mode=verify %s: %v", a, err)
		}
		if v := resp.Incremental; v != nil && v.Verify != nil && !v.Verify.Equivalent {
			return gatef("mode=verify %s: incremental and full answers differ", a)
		}
	}
	if _, err := b.converge(repl, name, e.Generation(), t0); err != nil {
		return err
	}
	pre, err := b.replicaGates(nodes, nd, repl, name)
	if err != nil {
		return err
	}
	closed = true
	if err := b.restartPrimary(nodes, nd, name, written, pre); err != nil {
		return err
	}
	return b.finish()
}

// ack is one acknowledged batch (or one replica answer): its generation
// and when the client saw it.
type ack struct {
	gen uint64
	at  time.Time
}

// replicate: three nodes, one replica per graph. An open-loop writer
// posts batches to the primary at WriteRate; a closed-loop reader
// queries bfs on the replica. After the window the replica must converge
// to the primary bit for bit, with exactly one snapshot shipped per
// set-up round and no sync errors; then the primary's dir is restarted.
func (b *bench) replicate() error {
	b.spans = nil // no traced pass: the per-layer numbers are Node.Stats counters
	nodes, prim, repl, name, err := b.replicated([]string{"a", "b", "c"}, 1)
	if err != nil {
		return err
	}
	closed := false
	defer func() {
		if !closed {
			closeAll(nodes)
		}
	}()
	var bases []string
	for _, nd := range nodes {
		bases = append(bases, nd.url)
	}

	settle()
	end, err := b.startWindow(bases...)
	if err != nil {
		return err
	}
	var mu sync.Mutex
	var acks, answers []ack
	t0 := time.Now()
	deadline := t0.Add(time.Duration(b.cfg.Seconds * float64(time.Second)))
	writeEvery := time.Duration(float64(time.Second) / b.cfg.WriteRate)
	stop := func() bool { return time.Now().After(deadline) }
	// The writer is an open loop: each batch is due on a fixed schedule
	// and timed from its due time, so a stall shows as lateness of the
	// batches behind it. The reader is a closed loop.
	err = window(2, stop, func(w, i int) error {
		if w == 1 {
			q := svc.QueryRequest{Algo: "bfs", Src: b.in.sources[i%len(b.in.sources)]}
			resp, done, err := b.readQuery(repl.url, name, nil, q, true)
			if err != nil {
				return tolerate(err, true)
			}
			mu.Lock()
			answers = append(answers, ack{resp.Generation, done})
			mu.Unlock()
			return b.check(answerKey(q, resp), resp.Checksum)
		}
		due := t0.Add(time.Duration(i) * writeEvery)
		time.Sleep(time.Until(due))
		b.late.addDur(time.Since(due))
		if stop() {
			return nil
		}
		gen, done, err := b.writeBatch(prim, name, nil, i, due)
		if err != nil {
			return tolerate(err, true)
		}
		mu.Lock()
		acks = append(acks, ack{gen, done})
		mu.Unlock()
		return nil
	})
	d := time.Since(t0)
	b.finishWrites(len(acks), d)
	b.finishReads(d)
	b.setQ("bench.generator_late_ms_p95", &b.late, 0.95)
	if err != nil {
		return err
	}
	if err := end(); err != nil {
		return err
	}
	if len(acks) == 0 {
		return fmt.Errorf("replicate: no batch acknowledged")
	}

	more, err := b.converge(repl, name, acks[len(acks)-1].gen, t0)
	if err != nil {
		return err
	}
	answers = append(answers, more...)
	j := 0
	for _, a := range acks {
		for j < len(answers) && (answers[j].gen < a.gen || answers[j].at.Before(a.at)) {
			j++
		}
		if j == len(answers) {
			return gatef("no replica answer reached generation %d", a.gen)
		}
		b.lag.addDur(answers[j].at.Sub(a.at))
	}
	b.setQ("cluster.replica_lag_ms_p50", &b.lag, 0.5)
	b.setQ("cluster.replica_lag_ms_p95", &b.lag, 0.95)

	want, err := b.replicaGates(nodes, prim, repl, name)
	if err != nil {
		return err
	}
	closed = true
	if err := b.restartPrimary(nodes, prim, name, len(acks), want); err != nil {
		return err
	}
	return b.finish()
}

// replicated starts ids as a cluster with one replica per graph and runs
// the set-up rounds on it; each round's first answer comes from owner
// firstAnswer (0 the primary, 1 the replica). It returns the nodes and
// the measured graph's primary and replica.
func (b *bench) replicated(ids []string, firstAnswer int) (nodes []*node, prim, repl *node, name string, err error) {
	nodes, err = startCluster(b.cfg.Dir, ids, 1, b.counters, b.logf)
	if err != nil {
		return nil, nil, nil, "", err
	}
	byID := map[string]*node{}
	for _, nd := range nodes {
		byID[nd.id] = nd
	}
	owner := func(name string, i int) *node { return byID[nodes[0].cn.Placement(name)[i].ID] }
	name, err = b.setupRounds(func(n string) string { return owner(n, 0).url }, func(n string) string { return owner(n, firstAnswer).url })
	if err != nil {
		closeAll(nodes)
		return nil, nil, nil, "", err
	}
	prim, repl = owner(name, 0), owner(name, 1)
	b.logf("%s: %s primary %s, replica %s", b.cfg.Workload, name, prim.id, repl.id)
	// The replica holds the measured graph once it answers; from then on
	// no snapshot may be fetched again (replicaGates).
	if _, err = b.converge(repl, name, 0, time.Now()); err != nil {
		closeAll(nodes)
		return nil, nil, nil, "", err
	}
	for _, nd := range nodes {
		b.snapsAtSetup += nd.cn.Stats().FetchedSnapshots
	}
	return nodes, prim, repl, name, nil
}

// converge keeps reading bfs on the replica until it answers at
// generation last, and returns the answers. A replica that is
// re-fetching a snapshot answers 307 or 503 meanwhile; replicaGates
// reports that.
func (b *bench) converge(repl *node, name string, last uint64, t0 time.Time) ([]ack, error) {
	var answers []ack
	for {
		resp, done, err := b.readQuery(repl.url, name, nil, svc.QueryRequest{Algo: "bfs", Src: b.in.sources[0]}, false)
		if err == nil {
			answers = append(answers, ack{resp.Generation, done})
			if resp.Generation >= last {
				return answers, nil
			}
		}
		if time.Since(t0) > time.Duration(b.cfg.Seconds*float64(time.Second))+30*time.Second {
			return nil, gatef("replica did not reach generation %d (last error: %v)", last, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// replicaGates checks a converged replica: its check set must equal the
// primary's, and no snapshot may have been fetched since set-up (the
// measured graph ships exactly once) nor any sync pass failed. It
// returns the primary's check set.
func (b *bench) replicaGates(nodes []*node, prim, repl *node, name string) (map[string]string, error) {
	want, err := b.checkSet(prim.url, name)
	if err != nil {
		return nil, err
	}
	got, err := b.checkSet(repl.url, name)
	if err != nil {
		return nil, err
	}
	if err := b.compareSets("replica/", want, got); err != nil {
		return nil, err
	}
	var shipped, fetched, snaps, syncErrs int64
	for _, nd := range nodes {
		st := nd.cn.Stats()
		shipped += st.ShippedRecords
		fetched += st.FetchedRecords
		snaps += st.FetchedSnapshots
		syncErrs += st.SyncErrors
	}
	b.set("cluster.shipped_records", float64(shipped), 1)
	b.set("cluster.fetched_records", float64(fetched), 1)
	b.set("cluster.fetched_snapshots", float64(snaps), 1)
	b.set("cluster.sync_errors", float64(syncErrs), 1)
	if snaps != b.snapsAtSetup || syncErrs != 0 {
		return nil, gatef("replication re-fetched %d snapshots after set-up, with %d sync errors", snaps-b.snapsAtSetup, syncErrs)
	}
	return want, nil
}

// restartPrimary stops every other node and then restarts the primary's
// data dir standalone: recovery is the node's own.
func (b *bench) restartPrimary(nodes []*node, prim *node, name string, acked int, want map[string]string) error {
	for _, nd := range nodes {
		if nd != prim {
			if err := nd.close(); err != nil {
				return err
			}
		}
	}
	prim.cn.Close()
	prim.cn = nil
	return b.restart(prim, name, acked, want)
}
