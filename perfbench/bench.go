package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"lagraph/internal/catalog"
	"lagraph/internal/lagraph"
	"lagraph/internal/obs"
	"lagraph/internal/store"
	"lagraph/internal/svc"
)

// errGate marks a failed correctness gate.
var errGate = errors.New("correctness gate failed")

func gatef(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errGate, fmt.Sprintf(format, args...))
}

// bench is one run's state: inputs, the client, the process-wide obs
// sink, and everything measured.
type bench struct {
	cfg      config
	log      io.Writer
	in       *inputs
	cl       *client
	counters *obs.Counters
	spans    *spanLog // nil in the untraced run

	attempted, failed atomic.Int64

	mu      sync.Mutex
	metrics map[string]float64
	samples map[string]int
	sums    map[string]string // checksum key → first checksum seen

	setup, snapMS              series
	query, querySelf           series
	ingest, ingestSelf         series
	viewWait, ingestWait       series
	validate, apply, journal   series
	lag, late                  series
	recoverS, walOpen, loadAll series
	elapsed, iters             map[string]*series
	snapsAtSetup               int64 // snapshots fetched by the end of set-up
	incRequests, incHits       atomic.Int64
	itersSaved                 atomic.Int64
	serverMS                   series // elapsed_ms of every answered query
}

func newBench(cfg config, log io.Writer) (*bench, error) {
	in, err := makeInputs(cfg.Seed, cfg.Scale, cfg.EdgeFactor)
	if err != nil {
		return nil, err
	}
	b := &bench{
		cfg: cfg, log: log, in: in, cl: newClient(), counters: &obs.Counters{},
		metrics: map[string]float64{}, samples: map[string]int{}, sums: map[string]string{},
		elapsed: map[string]*series{}, iters: map[string]*series{},
	}
	for _, a := range readAlgos {
		b.elapsed[a], b.iters[a] = &series{}, &series{}
	}
	// lagraphd installs one process-wide Counters sink; so does the
	// benchmark (all in-process nodes share it, as one daemon would).
	obs.Set(b.counters)
	if cfg.Trace {
		b.spans = newSpanLog()
	}
	return b, nil
}

// readAlgos are the five GAP kernels lagraphd serves.
var readAlgos = []string{"bfs", "sssp", "pagerank", "cc", "tc"}

func (b *bench) logf(format string, args ...any) {
	fmt.Fprintf(b.log, "perfbench: "+format+"\n", args...)
}

// set records a metric value with its sample count.
func (b *bench) set(name string, v float64, n int) {
	b.mu.Lock()
	b.metrics[name] = v
	b.samples[name] = n
	b.mu.Unlock()
}

func (b *bench) setQ(name string, s *series, p float64) { b.set(name, s.q(p), s.n()) }

// result assembles the output line: the end-to-end metrics, or with
// tracing on the per-layer ones.
func (b *bench) result() *result {
	defs := endToEnd
	if b.cfg.Trace {
		defs = perLayer
	}
	res := &result{Correct: true, Attempted: b.attempted.Load(), Failed: b.failed.Load(), Metrics: map[string]metricValue{}}
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, d := range defs {
		res.Metrics[d.Name] = metricValue{Value: b.metrics[d.Name], Unit: d.Unit}
	}
	return res
}

// record is the detailed per-run file: host shape, configuration, every
// metric with its sample count, and (traced runs) the spans file.
type record struct {
	Shape   hostShape          `json:"shape"`
	Config  config             `json:"config"`
	Result  *result            `json:"result"`
	All     map[string]float64 `json:"all_metrics"`
	Samples map[string]int     `json:"samples"`
	Spans   string             `json:"spans,omitempty"`
}

func (b *bench) writeRecord(res *result) error {
	if err := os.MkdirAll(filepath.Dir(b.cfg.Out), 0o755); err != nil {
		return err
	}
	rec := record{Shape: shapeOf(b.cfg.Dir), Config: b.cfg, Result: res}
	b.mu.Lock()
	rec.All, rec.Samples = b.metrics, b.samples
	b.mu.Unlock()
	if b.spans != nil {
		rec.Spans = trimExt(b.cfg.Out) + ".spans.json"
		if err := b.spans.write(rec.Spans); err != nil {
			return err
		}
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(b.cfg.Out, data, 0o644)
}

func trimExt(p string) string { return p[:len(p)-len(filepath.Ext(p))] }

// check compares a checksum against the first one recorded under key.
func (b *bench) check(key, sum string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	prev, ok := b.sums[key]
	if !ok {
		b.sums[key] = sum
		return nil
	}
	if prev != sum {
		return gatef("checksum of %s is %s, earlier %s", key, sum, prev)
	}
	return nil
}

// count tallies one attempted operation of the measured phases.
func (b *bench) count(err error) {
	b.attempted.Add(1)
	if err != nil {
		b.failed.Add(1)
	}
}

// setupRounds times cfg.Setups rounds of: upload graph g<i> to primary,
// take its baseline snapshot, and wait for the first answered query on
// reader (a replica in replicate). It returns the last round's graph
// name and drops the earlier graphs.
func (b *bench) setupRounds(primary func(name string) string, reader func(name string) string) (string, error) {
	var name string
	for i := 0; i < b.cfg.Setups; i++ {
		name = "g" + strconv.Itoa(i)
		settle()
		t0 := time.Now()
		if err := b.cl.upload(primary(name), name, b.in); err != nil {
			return "", err
		}
		var snap store.SnapResult
		if _, err := b.cl.call("POST", primary(name)+"/v1/graphs/"+name+"/snapshot", struct{}{}, &snap); err != nil {
			return "", err
		}
		b.snapMS.add(snap.ElapsedMS)
		q := svc.QueryRequest{Algo: "bfs", Src: b.in.sources[0]}
		for {
			_, code, _, err := b.cl.query(reader(name), name, q)
			if err == nil {
				break
			}
			if code != 307 && code != 404 && code != 503 || time.Since(t0) > time.Minute {
				return "", fmt.Errorf("first query on %s: %w", name, err)
			}
			time.Sleep(5 * time.Millisecond)
		}
		b.setup.add(time.Since(t0).Seconds())
		if i < b.cfg.Setups-1 {
			if err := b.cl.drop(primary(name), name); err != nil {
				return "", err
			}
		}
	}
	b.setQ("setup_s", &b.setup, 0.5)
	b.setQ("store.snapshot_ms", &b.snapMS, 0.5)
	return name, nil
}

// readQuery issues one query to base and, when measured, records it.
// With tracing on and a local entry, it first calls Entry.View with an
// empty callback (span catalog.view_wait) and runs the query with
// trace:true. It returns the answer and when the client received it.
func (b *bench) readQuery(base, name string, e *catalog.Entry, q svc.QueryRequest, measured bool) (*svc.QueryResponse, time.Time, error) {
	var t0, entered time.Time
	if b.spans != nil && e != nil {
		t0 = time.Now()
		if err := e.View(func(*lagraph.Graph) error { entered = time.Now(); return nil }); err != nil {
			return nil, t0, err
		}
		if measured {
			b.viewWait.addDur(entered.Sub(t0))
		}
		q.Trace = true
	}
	sent := time.Now()
	resp, _, lat, err := b.cl.query(base, name, q)
	done := time.Now()
	if measured {
		b.count(err)
	}
	if err != nil {
		return nil, done, err
	}
	if measured {
		b.query.addDur(lat)
		b.querySelf.add(ms(lat) - resp.ElapsedMS)
		b.serverMS.add(resp.ElapsedMS)
		b.elapsed[q.Algo].add(resp.ElapsedMS)
		if resp.Trace != nil {
			b.iters[q.Algo].add(float64(len(resp.Trace.Iters)))
		}
		if q.Mode == "incremental" {
			b.incRequests.Add(1)
			if inc := resp.Incremental; inc != nil && inc.ModeUsed == "incremental" {
				b.incHits.Add(1)
				b.itersSaved.Add(int64(inc.IterationsSaved))
			}
		}
	}
	if b.spans != nil && e != nil {
		b.spans.query(t0, entered, sent, done, q.Algo, resp)
	}
	return resp, done, nil
}

// answerKey identifies answers that must be bitwise identical.
func answerKey(q svc.QueryRequest, r *svc.QueryResponse) string {
	k := fmt.Sprintf("%s/src=%d/gen=%d", q.Algo, q.Src, r.Generation)
	if inc := r.Incremental; inc != nil && inc.ModeUsed == "incremental" {
		k += fmt.Sprintf("/warm-from=%d", inc.WarmStartGeneration)
	}
	return k
}

// checkSet queries every read algorithm in mode=full and returns the
// checksums keyed by algorithm.
func (b *bench) checkSet(base, name string) (map[string]string, error) {
	out := map[string]string{}
	for _, a := range readAlgos {
		resp, _, _, err := b.cl.query(base, name, svc.QueryRequest{Algo: a, Src: b.in.sources[0]})
		if err != nil {
			return nil, err
		}
		out[a] = resp.Checksum
	}
	return out, nil
}

// compareSets gates two check sets through check, under prefix.
func (b *bench) compareSets(prefix string, want, got map[string]string) error {
	if b.cfg.faults.badChecksum {
		got[readAlgos[0]] += "-corrupted"
	}
	for _, a := range readAlgos {
		if err := b.check(prefix+a, want[a]); err != nil {
			return err
		}
		if err := b.check(prefix+a, got[a]); err != nil {
			return err
		}
	}
	return nil
}

// writeBatch ingests batch k. Over HTTP it records client latency (from
// due, when non-zero) and svc self time. With tracing on it instead
// calls Entry.Ingest directly, in handleEdges' order, with a span around
// each layer call.
func (b *bench) writeBatch(nd *node, name string, e *catalog.Entry, k int, due time.Time) (uint64, time.Time, error) {
	if b.spans != nil && e != nil {
		gen, err := b.ingestDirect(nd, e, name, k)
		b.count(err)
		return gen, time.Now(), err
	}
	resp, _, lat, err := b.cl.ingest(nd.url, name, b.in.batch(k))
	done := time.Now()
	b.count(err)
	if err != nil {
		return 0, done, err
	}
	if !resp.Durable {
		return 0, done, gatef("batch %d acknowledged without a durable journal record", k)
	}
	if !due.IsZero() {
		lat = done.Sub(due)
	}
	b.ingest.addDur(lat)
	b.ingestSelf.add(ms(lat) - resp.ElapsedMS)
	return resp.Generation, done, nil
}

// ingestDirect is handleEdges' critical section, called from outside:
// validate → journal → apply → mark, inside Entry.Ingest. One loopback
// round trip that takes no entry lock (GET /healthz) precedes it, so
// the traced writer leaves readers the same gap between batches an HTTP
// writer does; without it a closed-loop writer re-takes the exclusive
// lock at once and starves the reader, which the untraced run never
// sees.
func (b *bench) ingestDirect(nd *node, e *catalog.Entry, name string, k int) (uint64, error) {
	batch := store.EdgeBatch{Name: name}
	for _, t := range b.in.batch(k) {
		batch.Ops = append(batch.Ops, store.EdgeOp{Src: t.Src, Dst: t.Dst, Weight: *t.Weight})
	}
	l := b.spans
	req := l.request()
	tr := time.Now()
	if _, err := b.cl.call("GET", nd.url+"/healthz", nil, nil); err != nil {
		return 0, err
	}
	t0 := time.Now()
	var t1, t2, t3, t4 time.Time
	err := e.Ingest(func(g *lagraph.Graph) (bool, error) {
		t1 = time.Now()
		if err := store.ValidateEdgeBatch(g, batch); err != nil {
			return false, err
		}
		t2 = time.Now()
		lsn, err := nd.pers.JournalEdges(batch)
		if err != nil {
			return false, err
		}
		t3 = time.Now()
		if err := store.ApplyEdgeBatch(g, batch); err != nil {
			return true, err
		}
		t4 = time.Now()
		e.SetJournalSeq(lsn)
		nd.pers.MarkApplied(name, lsn)
		e.StageDelta(batch.DeltaParts())
		return true, nil
	})
	end := time.Now()
	if err != nil {
		return 0, err
	}
	root := l.add(req, 0, "request.ingest", l.at(tr), l.at(end))
	l.add(req, root, "svc.transport", l.at(tr), l.at(t0))
	l.add(req, root, "catalog.ingest_wait", l.at(t0), l.at(t1))
	l.add(req, root, "store.validate", l.at(t1), l.at(t2))
	l.add(req, root, "wal.journal", l.at(t2), l.at(t3))
	l.add(req, root, "store.apply", l.at(t3), l.at(t4))
	b.ingest.addDur(end.Sub(tr))
	b.ingestWait.addDur(t1.Sub(t0))
	b.validate.addDur(t2.Sub(t1))
	b.journal.addDur(t3.Sub(t2))
	b.apply.addDur(t4.Sub(t3))
	return e.Generation(), nil
}

// restart closes nd and reopens its data dir cfg.Restarts times, timing
// wal.Open + Persister.LoadAll. Every restart must replay exactly acked
// batches and answer the pre-restart check set bit for bit.
func (b *bench) restart(nd *node, name string, acked int, pre map[string]string) error {
	if err := nd.close(); err != nil {
		return err
	}
	if b.cfg.faults.dropReplay {
		if err := tearLastRecord(filepath.Join(nd.dir, "wal")); err != nil {
			return err
		}
	}
	for i := 0; i < b.cfg.Restarts; i++ {
		settle()
		ln, err := listen()
		if err != nil {
			return err
		}
		r, err := startNode(nd.id, nd.dir, ln, nil, b.counters, nil)
		if err != nil {
			return err
		}
		b.recoverS.add((r.walOpen + r.loadAll).Seconds())
		b.walOpen.addDur(r.walOpen)
		b.loadAll.addDur(r.loadAll)
		b.set("store.replayed_batches", float64(r.replay.Applied), 1)
		var gerr error
		if r.replay.Applied != acked {
			gerr = gatef("restart replayed %d batches, %d were acknowledged", r.replay.Applied, acked)
		} else if i == 0 {
			post, err := b.checkSet(r.url, name)
			if err != nil {
				gerr = err
			} else {
				gerr = b.compareSets("restart/", pre, post)
			}
		}
		if err := r.close(); gerr == nil {
			gerr = err
		}
		if gerr != nil {
			return gerr
		}
	}
	b.setQ("recover_s", &b.recoverS, 0.5)
	b.setQ("wal.open_ms", &b.walOpen, 0.5)
	b.setQ("store.loadall_ms", &b.loadAll, 0.5)
	return nil
}

// settle collects garbage and flushes dirty pages before a timed phase,
// so the phase does not pay for the previous one's heap or writeback.
func settle() {
	runtime.GC()
	syscall.Sync()
}

// tearLastRecord cuts the final bytes of the newest journal segment, as a
// crash mid-append would: recovery drops the torn record.
func tearLastRecord(dir string) error {
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		return fmt.Errorf("no journal segments in %s", dir)
	}
	sort.Strings(segs)
	last := segs[len(segs)-1]
	st, err := os.Stat(last)
	if err != nil {
		return err
	}
	return os.Truncate(last, st.Size()-8)
}
