// bench-tables regenerates every table, figure and quantitative claim of
// the paper as plain text; its output is the source material for
// EXPERIMENTS.md. Pass -scale to change the workload size and -table to
// print a single table (1, 2, fig2, c1..c8, census, all).
//
//	go run ./cmd/bench-tables -scale 13
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"lagraph/internal/baseline"
	"lagraph/internal/gen"
	"lagraph/internal/grb"
	"lagraph/internal/lagraph"
	"lagraph/internal/loccount"
	"lagraph/internal/obs"
)

var (
	scale    = flag.Int("scale", 13, "RMAT scale (2^scale vertices)")
	ef       = flag.Int("ef", 16, "RMAT edge factor")
	table    = flag.String("table", "all", "which table to print: 1,2,fig2,c1..c8,census,ingest,incremental,perf,all")
	jsonOut  = flag.String("json", "", "write the perf table as machine-readable JSON to this file (e.g. BENCH_1.json)")
	baseFile = flag.String("baseline", "", "previous BENCH_<pr>.json; annotate matching entries with speedup vs that baseline")
	smoke    = flag.String("smoke", "", "smoke-baseline JSON; fail if any p=1 kernel regresses >25% after median-ratio host normalization")
)

func main() {
	flag.Parse()
	fmt.Printf("lagraph-go experiment harness — RMAT scale %d, edge factor %d, GOMAXPROCS=%d\n\n",
		*scale, *ef, runtime.GOMAXPROCS(0))
	run := func(name string, f func()) {
		if *table == "all" || *table == name {
			f()
			fmt.Println()
		}
	}
	run("1", tableI)
	run("2", tableII)
	run("fig2", fig2)
	run("c1", c1)
	run("c2", c2)
	run("c3", c3)
	run("c4", c4)
	run("c5", c5)
	run("c6", c6)
	run("c7", c7)
	run("c8", c8)
	run("census", census)
	run("ingest", ingestTable)
	run("incremental", incrementalTable)
	// perf is opt-in (it re-times every skewed kernel at two parallelism
	// levels): run it when asked for by name, when a JSON sink is given,
	// or when a smoke comparison is requested.
	if *table == "perf" || *jsonOut != "" || *smoke != "" {
		perf()
		fmt.Println()
	}
}

// perfEntry is one timed kernel at one parallelism level. The JSON files
// (BENCH_<pr>.json) accumulate in the repository so the perf trajectory is
// diffable across PRs.
type perfEntry struct {
	Name        string  `json:"name"`
	Parallelism int     `json:"parallelism"`
	NsPerOp     int64   `json:"ns_per_op"`
	SpeedupVsP1 float64 `json:"speedup_vs_p1,omitempty"`
	// Baseline deltas (filled by -baseline): the matching entry of the
	// previous BENCH_<pr>.json and the improvement factor over it.
	BaselineNsPerOp int64   `json:"baseline_ns_per_op,omitempty"`
	SpeedupVsBase   float64 `json:"speedup_vs_baseline,omitempty"`
	// Obs is the observability counter diff for one run of the kernel at
	// this parallelism level: which mxm kernel fired, how many chunks the
	// scheduler made, the work estimate. Added in lagraph-perf/2.
	Obs *obs.CounterSnapshot `json:"obs,omitempty"`
}

type perfReport struct {
	Schema     string      `json:"schema"`
	Timestamp  string      `json:"timestamp"`
	GoVersion  string      `json:"go_version"`
	NumCPU     int         `json:"num_cpu"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	Scale      int         `json:"scale"`
	EdgeFactor int         `json:"edge_factor"`
	Results    []perfEntry `json:"results"`
	// Ingest is the streaming-ingest comparison (§II-A): per-batch
	// admission latency vs whole-graph rebuild, across graph sizes.
	// Added in lagraph-perf/3 alongside POST /v1/graphs/{name}/edges.
	Ingest []ingestEntry `json:"ingest,omitempty"`
	// Audits records the auto-vs-best-static comparisons: an adaptive
	// entry point must never be more than a small factor slower than the
	// best static choice it is selecting among (see EXPERIMENTS.md).
	Audits []auditEntry `json:"audits,omitempty"`
	// Incremental is the warm-start-vs-full comparison under a 1%-edge
	// delta: iterations to convergence and wall time for both paths.
	// Added in lagraph-perf/4 alongside mode=incremental queries.
	Incremental []incrementalEntry `json:"incremental,omitempty"`
}

// auditEntry compares one auto-selecting kernel against the fastest of
// its static alternatives at p=1. Ratio is auto/best: 1.0 means the
// selection was perfect, values above 1.10 violate the adaptive-kernel
// contract.
type auditEntry struct {
	Name              string  `json:"name"`
	AutoNsPerOp       int64   `json:"auto_ns_per_op"`
	BestStatic        string  `json:"best_static"`
	BestStaticNsPerOp int64   `json:"best_static_ns_per_op"`
	Ratio             float64 `json:"ratio"`
}

// perf times the skewed-degree kernel suite (the same workloads as the
// BenchmarkSkewed* micro-benchmarks) at SetParallelism(1) and at the
// machine's parallelism, printing a table and optionally writing JSON.
func perf() {
	fmt.Println("── perf: work-aware scheduling on skewed-degree kernels ──")
	n := 1 << *scale
	el := gen.PowerLaw(n, *ef*n, 1.6, gen.Config{Seed: 41, NoSelfLoops: true})
	a := el.Matrix()
	a.Wait()
	front := grb.MustVector[float64](n)
	for i := 0; i < n; i += 16 {
		_ = front.SetElement(i, 1)
	}
	for i := 0; i < 64; i++ {
		_ = front.SetElement(i, 1)
	}
	front.Wait()
	ka := gen.PowerLaw(256, 4096, 1.6, gen.Config{Seed: 42}).Matrix()
	kb := gen.PowerLaw(64, 1024, 1.6, gen.Config{Seed: 43}).Matrix()
	ka.Wait()
	kb.Wait()

	// Adaptive-format workloads. These are fixed-size (independent of
	// -scale): a ~60%-full dense block, a 2^20-dimension hypersparse
	// multiply where the occupied-row list pays, and the triangle-count
	// formulation family on a skewed graph where the degree presort pays.
	nd := 1 << 10
	dense := denseBlock(nd)
	denseCSR := dense.Dup()
	denseCSR.SetFormat(grb.FormatCSR)
	denseAuto := dense.Dup()
	denseAuto.SetFormat(grb.FormatAuto)
	du := make([]float64, nd)
	for i := range du {
		du[i] = 1
	}
	dvec := grb.DenseVector(du)
	km := gen.PowerLaw(nd, 16*nd, 1.6, gen.Config{Seed: 44, NoSelfLoops: true}).Matrix()
	km.Wait()

	nh := 1 << 20
	hyperSeed := gen.PowerLaw(nh, 4096, 1.6, gen.Config{Seed: 45, NoSelfLoops: true}).Matrix()
	hyperCSR := hyperSeed.Dup()
	hyperCSR.SetFormat(grb.FormatCSR)
	hyperHyp := hyperSeed.Dup()
	hyperHyp.SetFormat(grb.FormatHyper)
	hyperCSR.Wait()
	hyperHyp.Wait()

	tg := tcBenchGraph()

	kernels := []struct {
		name string
		f    func()
	}{
		{"mxm_gustavson", func() {
			c := grb.MustMatrix[float64](n, n)
			_ = grb.MxM(c, (*grb.Matrix[bool])(nil), nil, grb.PlusTimes[float64](), a, a,
				&grb.Descriptor{Method: grb.MxMGustavson})
		}},
		{"mxm_dot_masked", func() {
			c := grb.MustMatrix[float64](n, n)
			_ = grb.MxM(c, a, nil, grb.PlusTimes[float64](), a, a,
				&grb.Descriptor{Method: grb.MxMDot, TranB: true})
		}},
		{"mxm_heap", func() {
			c := grb.MustMatrix[float64](n, n)
			_ = grb.MxM(c, (*grb.Matrix[bool])(nil), nil, grb.PlusTimes[float64](), a, a,
				&grb.Descriptor{Method: grb.MxMHeap})
		}},
		{"vxm_push", func() {
			w := grb.MustVector[float64](n)
			_ = grb.VxM(w, (*grb.Vector[bool])(nil), nil, grb.PlusTimes[float64](), front, a,
				&grb.Descriptor{Dir: grb.DirPush})
		}},
		{"vxm_pull", func() {
			w := grb.MustVector[float64](n)
			_ = grb.VxM(w, (*grb.Vector[bool])(nil), nil, grb.PlusTimes[float64](), front, a,
				&grb.Descriptor{Dir: grb.DirPull})
		}},
		{"transpose", func() {
			c := grb.MustMatrix[float64](n, n)
			_ = grb.Transpose[float64, bool](c, nil, nil, a, nil)
		}},
		{"build", func() {
			c := grb.MustMatrix[float64](n, n)
			_ = c.Build(el.Src, el.Dst, el.W, grb.First[float64, float64]())
		}},
		{"kronecker", func() {
			c := grb.MustMatrix[float64](256*64, 256*64)
			_ = grb.Kronecker[float64, float64, float64, bool](c, nil, nil, grb.Times[float64](), ka, kb, nil)
		}},
		// Dense-operand vxm: same operands, same dense frontier; only the
		// direction (and hence the kernel) differs.
		{"vxm_dense_push", func() {
			w := grb.MustVector[float64](nd)
			_ = grb.VxM(w, (*grb.Vector[bool])(nil), nil, grb.PlusTimes[float64](), dvec, denseCSR,
				&grb.Descriptor{Dir: grb.DirPush})
		}},
		{"vxm_dense_pull", func() {
			w := grb.MustVector[float64](nd)
			_ = grb.VxM(w, (*grb.Vector[bool])(nil), nil, grb.PlusTimes[float64](), dvec, denseCSR,
				&grb.Descriptor{Dir: grb.DirPull})
		}},
		{"vxm_dense_auto", func() {
			w := grb.MustVector[float64](nd)
			_ = grb.VxM(w, (*grb.Vector[bool])(nil), nil, grb.PlusTimes[float64](), dvec, denseAuto, nil)
		}},
		// Masked dot mxm (A·Bᵀ, the triangle-count orientation): each
		// admitted output merges two compressed rows.
		{"mxm_dot_dense", func() {
			c := grb.MustMatrix[float64](nd, nd)
			_ = grb.MxM(c, km, nil, grb.PlusTimes[float64](), denseCSR, denseCSR,
				&grb.Descriptor{Method: grb.MxMDot, TranB: true})
		}},
		// Hypersparse multiply: the occupied-row list vs a 2^20-entry row
		// pointer scan. Heap method on both sides (it never allocates an
		// output-dimension accumulator, so the format is the only change).
		{"mxm_hyper_csr", func() {
			c := grb.MustMatrix[float64](nh, nh)
			_ = grb.MxM(c, (*grb.Matrix[bool])(nil), nil, grb.PlusTimes[float64](), hyperCSR, hyperCSR,
				&grb.Descriptor{Method: grb.MxMHeap})
		}},
		{"mxm_hyper", func() {
			c := grb.MustMatrix[float64](nh, nh)
			_ = grb.MxM(c, (*grb.Matrix[bool])(nil), nil, grb.PlusTimes[float64](), hyperHyp, hyperHyp,
				&grb.Descriptor{Method: grb.MxMHeap})
		}},
		// Triangle-count formulation family on a skewed power-law graph.
		// The sorted entry includes the cost of the degree presort itself.
		{"tc_burkhardt", func() {
			_, _ = lagraph.TriangleCount(tg, lagraph.TCBurkhardt)
		}},
		{"tc_sandia_lut", func() {
			_, _ = lagraph.TriangleCount(tg, lagraph.TCSandiaLUT)
		}},
		{"tc_sandia_ll", func() {
			_, _ = lagraph.TriangleCount(tg, lagraph.TCSandiaLL)
		}},
		{"tc_sandia_ll_sorted", func() {
			_, _ = lagraph.TriangleCount(tg, lagraph.TCSandiaLL, lagraph.WithPresort(lagraph.TCSortAscending))
		}},
		{"tc_auto", func() {
			_, _ = lagraph.TriangleCount(tg, lagraph.TCAuto, lagraph.WithPresort(lagraph.TCSortAuto))
		}},
	}

	pmax := runtime.GOMAXPROCS(0)
	if pmax < 4 {
		pmax = 4
	}
	report := perfReport{
		Schema:     "lagraph-perf/4",
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Scale:      *scale,
		EdgeFactor: *ef,
	}
	fmt.Printf("%-22s %14s %14s %9s   (power-law n=2^%d, α=1.6, %d CPU)\n",
		"kernel", "p=1", fmt.Sprintf("p=%d", pmax), "speedup", *scale, runtime.NumCPU())
	for _, k := range kernels {
		old := grb.SetParallelism(1)
		d1 := timeIt(3, k.f)
		o1 := observeOnce(k.f)
		grb.SetParallelism(pmax)
		dp := timeIt(3, k.f)
		op := observeOnce(k.f)
		grb.SetParallelism(old)
		speedup := float64(d1) / float64(dp)
		report.Results = append(report.Results,
			perfEntry{Name: k.name, Parallelism: 1, NsPerOp: d1.Nanoseconds(), Obs: o1},
			perfEntry{Name: k.name, Parallelism: pmax, NsPerOp: dp.Nanoseconds(), SpeedupVsP1: speedup, Obs: op})
		fmt.Printf("%-22s %14v %14v %8.2fx\n", k.name, d1, dp, speedup)
	}

	// Auto-selection audits: the adaptive entry points against the best
	// static alternative. Measured head-to-head with interleaved reps at
	// p=1 (not read back from the table rows, which are minutes apart and
	// would fold host drift into the ratio).
	byName := make(map[string]func(), len(kernels))
	for _, k := range kernels {
		byName[k.name] = k.f
	}
	audits := []struct {
		name    string
		auto    string
		statics []string
	}{
		{"vxm_dense", "vxm_dense_auto", []string{"vxm_dense_push", "vxm_dense_pull"}},
		{"tc", "tc_auto", []string{"tc_burkhardt", "tc_sandia_lut", "tc_sandia_ll", "tc_sandia_ll_sorted"}},
	}
	fmt.Println()
	oldP := grb.SetParallelism(1)
	for _, au := range audits {
		const reps = 5
		autoNs := int64(1<<62 - 1)
		bestNs := make([]int64, len(au.statics))
		for i := range bestNs {
			bestNs[i] = 1<<62 - 1
		}
		for r := 0; r < reps; r++ {
			t0 := time.Now()
			byName[au.auto]()
			if d := time.Since(t0).Nanoseconds(); d < autoNs {
				autoNs = d
			}
			for i, s := range au.statics {
				t0 = time.Now()
				byName[s]()
				if d := time.Since(t0).Nanoseconds(); d < bestNs[i] {
					bestNs[i] = d
				}
			}
		}
		bestName, best := au.statics[0], bestNs[0]
		for i, ns := range bestNs {
			if ns < best {
				bestName, best = au.statics[i], ns
			}
		}
		ratio := float64(autoNs) / float64(best)
		report.Audits = append(report.Audits, auditEntry{
			Name: au.name, AutoNsPerOp: autoNs,
			BestStatic: bestName, BestStaticNsPerOp: best, Ratio: ratio,
		})
		fmt.Printf("audit %-12s auto %12s vs best static %-22s %12s  ratio %.3f\n",
			au.name, time.Duration(autoNs), bestName, time.Duration(best), ratio)
	}
	grb.SetParallelism(oldP)

	if *baseFile != "" {
		if err := annotateBaseline(&report, *baseFile); err != nil {
			fmt.Fprintln(os.Stderr, "perf baseline:", err)
			os.Exit(1)
		}
	}
	if *jsonOut != "" {
		// The committed BENCH_<pr>.json also carries the streaming-ingest
		// rows; run the table now if -table didn't already.
		if ingestRows == nil {
			fmt.Println()
			ingestTable()
		}
		report.Ingest = ingestRows
		if incrementalRows == nil {
			fmt.Println()
			incrementalTable()
		}
		report.Incremental = incrementalRows
		buf, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "perf json:", err)
			os.Exit(1)
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(*jsonOut, buf, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "perf json:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *jsonOut)
	}
	if *smoke != "" {
		if err := smokeCheck(&report, *smoke); err != nil {
			fmt.Fprintln(os.Stderr, "bench-smoke: FAIL:", err)
			os.Exit(1)
		}
		fmt.Println("bench-smoke: ok")
	}
}

// incrementalEntry is one row of the delta-workload comparison: one
// algorithm recomputed from scratch vs warm-started from its pre-delta
// result after a 1%-edge insert-only delta.
type incrementalEntry struct {
	Algo        string  `json:"algo"`
	Scale       int     `json:"scale"`
	DeltaEdges  int     `json:"delta_edges"`
	FullIters   int     `json:"full_iters"`
	WarmIters   int     `json:"warm_iters"`
	ItersSaved  int     `json:"iters_saved"`
	FullNsPerOp int64   `json:"full_ns_per_op"`
	WarmNsPerOp int64   `json:"warm_ns_per_op"`
	Speedup     float64 `json:"speedup"`
}

// incrementalRows holds the table's measurements so the -json sink can
// embed them in the committed BENCH_<pr>.json without re-timing.
var incrementalRows []incrementalEntry

// incrementalTable measures what mode=incremental buys under the
// canonical delta workload: a power-law graph mutated by a 1%-edge
// insert-only delta, each algorithm answered by a full recompute and by
// a warm start from the pre-delta result. Iteration counts are exact
// algorithm state (deterministic across hosts); for PageRank the warm
// start is REQUIRED to converge in at most half the full iterations —
// the claim BENCH_4.json carries — and the table exits nonzero if a
// change regresses that.
func incrementalTable() {
	fmt.Println("── incremental: warm-start vs full recompute under a one-percent edge delta ──")
	n := 1 << *scale
	el := gen.PowerLaw(n, *ef*n, 1.8, gen.Config{Seed: 42, Undirected: true, NoSelfLoops: true})
	g, err := lagraph.NewGraph(el.Matrix(), lagraph.Undirected)
	if err != nil {
		fmt.Fprintln(os.Stderr, "incremental:", err)
		os.Exit(1)
	}
	g.A.Wait()

	// The service defaults: this is the configuration mode=incremental
	// actually answers with, so it is the one the table must measure.
	prOpts := []lagraph.Option{lagraph.WithDamping(0.85), lagraph.WithTolerance(1e-4), lagraph.WithMaxIter(1000)}
	ccPrior, err := lagraph.ConnectedComponentsWith(g)
	if err != nil {
		fmt.Fprintln(os.Stderr, "incremental:", err)
		os.Exit(1)
	}
	bfsPrior, err := lagraph.BFSLevels(g, 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "incremental:", err)
		os.Exit(1)
	}
	prPrior, err := lagraph.PageRankWith(g, prOpts...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "incremental:", err)
		os.Exit(1)
	}

	// 1% of the edge count, as deterministic insertions whose endpoints
	// are sampled degree-proportionally (the endpoint of a uniformly
	// random existing edge) — the preferential-attachment growth model the
	// power-law corpus itself is built from. Mirrored: the fixture is
	// undirected.
	deltaEdges := g.NEdges() / 2 / 100
	if deltaEdges < 1 {
		deltaEdges = 1
	}
	rng := rand.New(rand.NewSource(4242))
	src := make([]int, deltaEdges)
	dst := make([]int, deltaEdges)
	var is, js []int
	var xs []float64
	for k := 0; k < deltaEdges; k++ {
		u := el.Src[rng.Intn(len(el.Src))]
		v := el.Dst[rng.Intn(len(el.Dst))]
		src[k], dst[k] = u, v
		is, js, xs = append(is, u), append(js, v), append(xs, 1)
		if u != v {
			is, js, xs = append(is, v), append(js, u), append(xs, 1)
		}
	}
	if err := g.A.SetElements(is, js, xs, nil); err != nil {
		fmt.Fprintln(os.Stderr, "incremental:", err)
		os.Exit(1)
	}
	g.InvalidateCache()
	g.A.Wait()
	delta := &lagraph.Delta{AddSrc: src, AddDst: dst}

	type runout struct {
		iters int
		err   error
	}
	rows := []struct {
		algo string
		full func() runout
		warm func() runout
	}{
		{"pagerank",
			func() runout {
				r, err := lagraph.PageRankWith(g, prOpts...)
				if err != nil {
					return runout{err: err}
				}
				return runout{iters: r.Iterations}
			},
			func() runout {
				r, err := lagraph.PageRankWarm(g, prPrior.Rank, prOpts...)
				if err != nil {
					return runout{err: err}
				}
				return runout{iters: r.Iterations}
			}},
		{"cc",
			func() runout {
				r, err := lagraph.ConnectedComponentsWith(g)
				if err != nil {
					return runout{err: err}
				}
				return runout{iters: r.Iterations}
			},
			func() runout {
				r, err := lagraph.IncrementalCC(g, ccPrior.Labels, delta)
				if err != nil {
					return runout{err: err}
				}
				return runout{iters: r.Iterations}
			}},
		{"bfs",
			func() runout {
				var stats lagraph.BFSStats
				_, err := lagraph.BFSLevels(g, 0, lagraph.WithStats(&stats))
				if err != nil {
					return runout{err: err}
				}
				return runout{iters: stats.Depth}
			},
			func() runout {
				_, rounds, err := lagraph.IncrementalBFSLevels(g, 0, bfsPrior, delta)
				if err != nil {
					return runout{err: err}
				}
				return runout{iters: rounds}
			}},
	}

	fmt.Printf("%-10s %11s %11s %11s %12s %12s %9s   (power-law n=2^%d, +%d edges = 1%%)\n",
		"algo", "full iters", "warm iters", "saved", "full", "warm", "speedup", *scale, deltaEdges)
	for _, row := range rows {
		var fo, wo runout
		df := timeIt(3, func() { fo = row.full() })
		dw := timeIt(3, func() { wo = row.warm() })
		if fo.err != nil || wo.err != nil {
			fmt.Fprintf(os.Stderr, "incremental %s: full=%v warm=%v\n", row.algo, fo.err, wo.err)
			os.Exit(1)
		}
		saved := fo.iters - wo.iters
		if saved < 0 {
			saved = 0
		}
		e := incrementalEntry{
			Algo: row.algo, Scale: *scale, DeltaEdges: deltaEdges,
			FullIters: fo.iters, WarmIters: wo.iters, ItersSaved: saved,
			FullNsPerOp: df.Nanoseconds(), WarmNsPerOp: dw.Nanoseconds(),
			Speedup: float64(df) / float64(dw),
		}
		incrementalRows = append(incrementalRows, e)
		fmt.Printf("%-10s %11d %11d %11d %12s %12s %8.2fx\n",
			e.Algo, e.FullIters, e.WarmIters, e.ItersSaved, df.Round(time.Microsecond), dw.Round(time.Microsecond), e.Speedup)
		if row.algo == "pagerank" && wo.iters*2 > fo.iters {
			fmt.Fprintf(os.Stderr, "incremental: pagerank warm start saved too little (%d warm vs %d full iters, need ≥2x)\n",
				wo.iters, fo.iters)
			os.Exit(1)
		}
	}
}

// ingestEntry is one row of the streaming-ingest comparison (§II-A): the
// latency of admitting one 64-tuple edge batch through the pending-tuple
// path, against rebuilding the whole graph from its edge list — which
// was the only mutation story the service had before
// POST /v1/graphs/{name}/edges.
type ingestEntry struct {
	Scale        int   `json:"scale"`
	Edges        int   `json:"edges"`
	BatchTuples  int   `json:"batch_tuples"`
	BatchNsPerOp int64 `json:"batch_ns_per_op"`
	BuildNsPerOp int64 `json:"build_ns_per_op"`
}

// ingestRows holds the table's measurements so the -json sink can embed
// them in the committed BENCH_<pr>.json without re-timing.
var ingestRows []ingestEntry

// ingestTable demonstrates the non-blocking mode's §II-A promise for the
// write path: admitting an edge batch buffers pending tuples in O(batch)
// regardless of how large the target graph is, while the old way to
// mutate a served graph — POST the whole edge list again — is linear in
// the graph. The batch column must stay flat as the scale column grows;
// the build column must not.
func ingestTable() {
	fmt.Println("── ingest: per-batch edge admission vs whole-graph rebuild (§II-A, non-blocking mode) ──")
	const batch = 64
	dup := grb.Second[float64, float64]()
	fmt.Printf("%7s %12s %16s %18s %9s\n", "scale", "edges", "64-tuple batch", "whole-graph build", "ratio")
	for _, s := range []int{*scale - 6, *scale - 3, *scale} {
		n := 1 << s
		el := gen.PowerLaw(n, *ef*n, 1.6, gen.Config{Seed: 41, NoSelfLoops: true})
		a := el.Matrix()
		a.Wait()
		is := make([]int, batch)
		js := make([]int, batch)
		xs := make([]float64, batch)
		for k := range is {
			is[k] = (k * 131) % n
			js[k] = (k*17 + 1) % n
			xs[k] = float64(k%7 + 1)
		}
		// The admission path: buffer the batch as pending tuples, no Wait —
		// assembly is deferred to the next read, exactly as Entry.Ingest
		// publishes a COLD entry.
		dBatch := timeIt(25, func() { _ = a.SetElements(is, js, xs, dup) })
		dBuild := timeIt(3, func() {
			b := grb.MustMatrix[float64](n, n)
			_ = b.Build(el.Src, el.Dst, el.W, dup)
		})
		ingestRows = append(ingestRows, ingestEntry{
			Scale: s, Edges: len(el.Src), BatchTuples: batch,
			BatchNsPerOp: dBatch.Nanoseconds(), BuildNsPerOp: dBuild.Nanoseconds(),
		})
		fmt.Printf("%7d %12d %16v %18v %8.0fx\n", s, len(el.Src), dBatch, dBuild,
			float64(dBuild)/float64(dBatch))
	}
}

// denseBlock builds an n×n float64 matrix with exactly 60% of each row
// occupied (a fixed residue pattern, so runs are reproducible without a
// RNG): a dense block where compressed indices carry the most overhead.
func denseBlock(n int) *grb.Matrix[float64] {
	p := make([]int, n+1)
	is := make([]int, 0, n*n*6/10)
	xs := make([]float64, 0, n*n*6/10)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if (i*31+j*17)%10 < 6 {
				is = append(is, j)
				xs = append(xs, float64((i+j)%7+1))
			}
		}
		p[i+1] = len(is)
	}
	a, err := grb.ImportCSR(n, n, p, is, xs, true)
	if err != nil {
		panic(err)
	}
	return a
}

// tcBenchGraph is a power-law graph with four planted mid-ordering hubs:
// each hub is connected to every vertex, so its strict-lower row is long
// AND replayed by every higher-indexed neighbor — the shape where the
// natural ordering's saxpy estimate blows up and the degree presort pays
// for its rebuild many times over.
func tcBenchGraph() *lagraph.Graph {
	el := gen.PowerLaw(4096, 16*4096, 1.6, gen.Config{Seed: 46, Undirected: true, NoSelfLoops: true})
	n := el.N
	for h := 1; h <= 4; h++ {
		hv := h * n / 5
		for v := 0; v < n; v++ {
			if v != hv {
				el.Src = append(el.Src, hv, v)
				el.Dst = append(el.Dst, v, hv)
				el.W = append(el.W, 1, 1)
			}
		}
	}
	el.HasDups = true
	return lagraph.FromEdgeList(el, lagraph.Undirected)
}

// loadReport reads a perfReport JSON written by a previous -json run.
func loadReport(path string) (*perfReport, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r perfReport
	if err := json.Unmarshal(buf, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// findNs returns the ns/op of the named entry at the given parallelism,
// or 0 if the report has no such entry.
func findNs(r *perfReport, name string, par int) int64 {
	for _, e := range r.Results {
		if e.Name == name && e.Parallelism == par {
			return e.NsPerOp
		}
	}
	return 0
}

// annotateBaseline fills each entry's baseline fields from the matching
// (name, parallelism) entry of a previous BENCH json and prints the
// deltas, so BENCH_<pr>.json carries its own comparison.
func annotateBaseline(r *perfReport, path string) error {
	base, err := loadReport(path)
	if err != nil {
		return err
	}
	fmt.Printf("\nvs baseline %s (schema %s):\n", path, base.Schema)
	for i := range r.Results {
		e := &r.Results[i]
		bns := findNs(base, e.Name, e.Parallelism)
		if bns <= 0 || e.NsPerOp <= 0 {
			continue
		}
		e.BaselineNsPerOp = bns
		e.SpeedupVsBase = float64(bns) / float64(e.NsPerOp)
		fmt.Printf("%-22s p=%-2d %12s -> %12s  %6.2fx\n",
			e.Name, e.Parallelism, time.Duration(bns), time.Duration(e.NsPerOp), e.SpeedupVsBase)
	}
	return nil
}

// smokeCheck compares the fresh report against a committed baseline and
// fails on any per-kernel regression beyond 25%. Only p=1 entries are
// compared (the p=max rows depend on the host's core count). Host speed
// differences shift every kernel's ratio by roughly the same factor, so
// each ratio is normalized by the median ratio before the threshold is
// applied — a uniformly 2× slower CI runner passes, a single kernel that
// regressed relative to its peers fails.
func smokeCheck(r *perfReport, path string) error {
	base, err := loadReport(path)
	if err != nil {
		return err
	}
	if base.Scale != r.Scale || base.EdgeFactor != r.EdgeFactor {
		return fmt.Errorf("baseline is scale %d/ef %d, this run is scale %d/ef %d; regenerate the baseline or pass matching flags",
			base.Scale, base.EdgeFactor, r.Scale, r.EdgeFactor)
	}
	type pair struct {
		name  string
		ratio float64
	}
	var pairs []pair
	for _, e := range r.Results {
		if e.Parallelism != 1 {
			continue
		}
		if bns := findNs(base, e.Name, 1); bns > 0 && e.NsPerOp > 0 {
			pairs = append(pairs, pair{e.Name, float64(e.NsPerOp) / float64(bns)})
		}
	}
	if len(pairs) == 0 {
		return fmt.Errorf("no comparable p=1 entries between this run and %s", path)
	}
	ratios := make([]float64, len(pairs))
	for i, p := range pairs {
		ratios[i] = p.ratio
	}
	sort.Float64s(ratios)
	median := ratios[len(ratios)/2]
	if len(ratios)%2 == 0 {
		median = (ratios[len(ratios)/2-1] + ratios[len(ratios)/2]) / 2
	}
	const tolerance = 1.25
	var failed []string
	fmt.Printf("\nbench-smoke vs %s (median host ratio %.2f, tolerance %.0f%%):\n", path, median, (tolerance-1)*100)
	for _, p := range pairs {
		norm := p.ratio / median
		status := "ok"
		if norm > tolerance {
			status = "REGRESSED"
			failed = append(failed, fmt.Sprintf("%s (%.2fx normalized)", p.name, norm))
		}
		fmt.Printf("%-22s ratio %5.2f  normalized %5.2f  %s\n", p.name, p.ratio, norm, status)
	}
	if len(failed) > 0 {
		return fmt.Errorf("%d kernel(s) regressed >%.0f%%: %s", len(failed), (tolerance-1)*100, strings.Join(failed, ", "))
	}
	return nil
}

// observeOnce runs f once under an obs.Counters sink (outside the timed
// reps, so record emission never skews the reported ns/op) and returns
// the counter diff: which kernels fired, chunk counts, work estimates.
func observeOnce(f func()) *obs.CounterSnapshot {
	var c obs.Counters
	prev := obs.Set(&c)
	f()
	obs.Set(prev)
	snap := c.Snapshot()
	return &snap
}

// timeIt runs f a few times and returns the best wall time.
func timeIt(reps int, f func()) time.Duration {
	best := time.Duration(1<<62 - 1)
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		f()
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	return best
}

func undirGraph(seed int64) *lagraph.Graph {
	return lagraph.FromEdgeList(
		gen.RMAT(*scale, *ef, gen.Config{Seed: seed, Undirected: true, NoSelfLoops: true}),
		lagraph.Undirected)
}

func dirGraph(seed int64) *lagraph.Graph {
	return lagraph.FromEdgeList(
		gen.RMAT(*scale, *ef, gen.Config{Seed: seed, NoSelfLoops: true}), lagraph.Directed)
}

func tableI() {
	fmt.Println("── Table I: the GraphBLAS operation set, one timing per operation ──")
	g := dirGraph(1)
	g.AT()
	n := g.N()
	a := g.PatternInt64()
	v := make([]int64, n)
	for i := range v {
		v[i] = int64(i)
	}
	vec := grb.DenseVector(v)
	plusPair := grb.PlusPair[int64, int64, int64]()
	minSecond := grb.Semiring[float64, int64, int64]{Add: grb.MinMonoid[int64](), Mul: grb.Second[float64, int64]()}
	minFirst := grb.Semiring[int64, float64, int64]{Add: grb.MinMonoid[int64](), Mul: grb.First[int64, float64]()}

	rows := []struct {
		op string
		f  func()
	}{
		{"mxm (masked, plus.pair)", func() {
			c := grb.MustMatrix[int64](n, n)
			_ = grb.MxM(c, a, nil, plusPair, a, a, nil)
		}},
		{"mxv (min.second)", func() {
			w := grb.MustVector[int64](n)
			_ = grb.MxV(w, (*grb.Vector[bool])(nil), nil, minSecond, g.A, vec, nil)
		}},
		{"vxm (min.first)", func() {
			w := grb.MustVector[int64](n)
			_ = grb.VxM(w, (*grb.Vector[bool])(nil), nil, minFirst, vec, g.A, nil)
		}},
		{"eWiseAdd (plus)", func() {
			c := grb.MustMatrix[float64](n, n)
			_ = grb.EWiseAddMatrix[float64, bool](c, nil, nil, grb.Plus[float64](), g.A, g.AT(), nil)
		}},
		{"eWiseMult (times)", func() {
			c := grb.MustMatrix[float64](n, n)
			_ = grb.EWiseMultMatrix[float64, float64, float64, bool](c, nil, nil, grb.Times[float64](), g.A, g.AT(), nil)
		}},
		{"reduce (rows, plus)", func() {
			w := grb.MustVector[float64](n)
			_ = grb.ReduceMatrixToVector[float64, bool](w, nil, nil, grb.PlusMonoid[float64](), g.A, nil)
		}},
		{"apply (2x)", func() {
			c := grb.MustMatrix[float64](n, n)
			_ = grb.ApplyMatrix[float64, float64, bool](c, nil, nil, func(x float64) float64 { return 2 * x }, g.A, nil)
		}},
		{"transpose", func() {
			c := grb.MustMatrix[float64](n, n)
			_ = grb.Transpose[float64, bool](c, nil, nil, g.A, nil)
		}},
		{"extract (n/4 × n/4)", func() {
			rows := make([]int, n/4)
			cols := make([]int, n/4)
			for k := range rows {
				rows[k] = (k * 3) % n
				cols[k] = (k * 7) % n
			}
			c := grb.MustMatrix[float64](len(rows), len(cols))
			_ = grb.ExtractMatrix[float64, bool](c, nil, nil, g.A, rows, cols, nil)
		}},
		{"assign (512×512 region)", func() {
			sub := gen.ErdosRenyi(512, 4096, gen.Config{Seed: 3}).Matrix()
			rws := make([]int, 512)
			cls := make([]int, 512)
			for k := range rws {
				rws[k] = (k * 5) % n
				cls[k] = (k * 11) % n
			}
			c := g.A.Dup()
			_ = grb.AssignMatrix[float64, bool](c, nil, nil, sub, rws, cls, nil)
		}},
		{"select (tril)", func() {
			c := grb.MustMatrix[float64](n, n)
			_ = grb.SelectMatrix[float64, bool](c, nil, nil, grb.Tril[float64](-1), g.A, nil)
		}},
	}
	fmt.Printf("%-28s %14s\n", "operation", "best of 3")
	for _, r := range rows {
		fmt.Printf("%-28s %14v\n", r.op, timeIt(3, r.f))
	}
}

func tableII() {
	fmt.Println("── Table II: lines of application code (see also cmd/loc) ──")
	funcs, _, err := loccount.CountDir("internal/lagraph")
	if err != nil {
		fmt.Println("  (run from the repository root to count sources:", err, ")")
		return
	}
	byName := loccount.ByName(funcs)
	fmt.Printf("%-28s %7s %8s %11s %8s\n", "Algorithm", "Ligra", "GraphIt", "GraphBLAS", "lagraph-go")
	fmt.Printf("%-28s %7s %8s %11s %8d\n", "Breadth-first search", "29", "22", "25", byName["BFSLevelSimple"])
	fmt.Printf("%-28s %7s %8s %11s %8d\n", "Single-source shortest-path", "55", "25", "25", byName["SSSPBellmanFord"])
	fmt.Printf("%-28s %7s %8s %11s %8d\n", "Local graph clustering", "84", "N/A", "45", byName["LocalCluster"])
}

func fig2() {
	fmt.Println("── Fig. 2: level BFS on the GraphBLAS API ──")
	g := undirGraph(2)
	var levels *grb.Vector[int32]
	d := timeIt(3, func() {
		levels, _ = lagraph.BFSLevelSimple(g, 0)
	})
	fmt.Printf("graph: %d vertices, %d edges\n", g.N(), g.NEdges())
	fmt.Printf("level BFS: reached %d vertices in %v\n", levels.Nvals(), d)
}

func c1() {
	fmt.Println("── C1: e×setElement vs one build (pending tuples, §II-A) ──")
	n := 1 << *scale
	el := gen.ErdosRenyi(n, 16*n, gen.Config{Seed: 9})
	dSet := timeIt(3, func() {
		a := grb.MustMatrix[float64](n, n)
		for k := range el.Src {
			_ = a.SetElement(el.Src[k], el.Dst[k], el.W[k])
		}
		a.Wait()
	})
	dBuild := timeIt(3, func() {
		a := grb.MustMatrix[float64](n, n)
		_ = a.Build(el.Src, el.Dst, el.W, grb.Second[float64, float64]())
	})
	fmt.Printf("e = %d tuples into an empty %d×%d matrix\n", len(el.Src), n, n)
	fmt.Printf("setElement loop: %12v\n", dSet)
	fmt.Printf("single build:    %12v   (ratio %.2fx — paper: \"just as fast\")\n",
		dBuild, float64(dSet)/float64(dBuild))
}

func c2() {
	fmt.Println("── C2: submatrix assignment C(I,J)=A vs naive per-element rebuild (§II-A) ──")
	n := 4096
	a := gen.ErdosRenyi(n, 16*n, gen.Config{Seed: 5}).Matrix()
	sub := gen.ErdosRenyi(512, 4096, gen.Config{Seed: 6}).Matrix()
	rows := make([]int, 512)
	cols := make([]int, 512)
	for k := range rows {
		rows[k] = (k * 7) % n
		cols[k] = (k * 5) % n
	}
	dAssign := timeIt(3, func() {
		c := a.Dup()
		_ = grb.AssignMatrix[float64, bool](c, nil, nil, sub, rows, cols, nil)
	})
	si, sj, sx := sub.ExtractTuples()
	dNaive := timeIt(1, func() {
		c := a.Dup()
		for k := range si {
			_ = c.SetElement(rows[si[k]], cols[sj[k]], sx[k])
			c.Wait() // the materialize-per-element strategy of the claim
		}
	})
	fmt.Printf("C is %d×%d with %d entries; |I|=|J|=512, nnz(A)=%d\n", n, n, a.Nvals(), len(si))
	fmt.Printf("batched assign:      %12v\n", dAssign)
	fmt.Printf("per-element rebuild: %12v   (speedup %.0fx — paper: \"100x faster than MATLAB\")\n",
		dNaive, float64(dNaive)/float64(dAssign))
}

func c3() {
	fmt.Println("── C3: the three mxm kernels — Gustavson / dot / heap (§II-A) ──")
	g := undirGraph(2)
	aPat := g.PatternInt64()
	n := aPat.Nrows()
	l := grb.MustMatrix[int64](n, n)
	u := grb.MustMatrix[int64](n, n)
	_ = grb.SelectMatrix[int64, bool](l, nil, nil, grb.Tril[int64](-1), aPat, nil)
	_ = grb.SelectMatrix[int64, bool](u, nil, nil, grb.Triu[int64](1), aPat, nil)
	plusPair := grb.PlusPair[int64, int64, int64]()
	cases := []struct {
		name   string
		method grb.MxMMethod
		masked bool
		tranB  bool
	}{
		{"Gustavson, unmasked (L·L)", grb.MxMGustavson, false, false},
		{"Gustavson, masked ⟨L⟩", grb.MxMGustavson, true, false},
		{"heap, unmasked (L·L)", grb.MxMHeap, false, false},
		{"heap, masked ⟨L⟩", grb.MxMHeap, true, false},
		{"dot, masked ⟨L⟩ (L·Uᵀ)", grb.MxMDot, true, true},
	}
	for _, tc := range cases {
		d := timeIt(3, func() {
			c := grb.MustMatrix[int64](n, n)
			desc := &grb.Descriptor{Method: tc.method, TranB: tc.tranB}
			var mask *grb.Matrix[int64]
			if tc.masked {
				mask = l
			}
			rhs := l
			if tc.tranB {
				rhs = u
			}
			_ = grb.MxM(c, mask, nil, plusPair, l, rhs, desc)
		})
		fmt.Printf("%-28s %12v\n", tc.name, d)
	}
}

func c4() {
	fmt.Println("── C4: early-exit terminal monoids (§II-A) ──")
	g := undirGraph(2)
	n := g.N()
	frontier := grb.MustVector[bool](n)
	for i := 0; i < n; i += 2 {
		_ = frontier.SetElement(i, true)
	}
	frontier.Wait()
	withTerminal := grb.Semiring[bool, float64, bool]{Add: grb.LOrMonoid(), Mul: grb.First[bool, float64]()}
	noTerminal := withTerminal
	noTerminal.Add.Terminal = nil
	pull := &grb.Descriptor{Dir: grb.DirPull}
	dWith := timeIt(3, func() {
		w := grb.MustVector[bool](n)
		_ = grb.VxM(w, (*grb.Vector[bool])(nil), nil, withTerminal, frontier, g.A, pull)
	})
	dWithout := timeIt(3, func() {
		w := grb.MustVector[bool](n)
		_ = grb.VxM(w, (*grb.Vector[bool])(nil), nil, noTerminal, frontier, g.A, pull)
	})
	fmt.Printf("pull step, LOR monoid with terminal:    %12v\n", dWith)
	fmt.Printf("pull step, LOR monoid without terminal: %12v   (early exit: %.1fx)\n",
		dWithout, float64(dWithout)/float64(dWith))
}

func c5() {
	fmt.Println("── C5: push vs pull vs direction-optimized BFS (§II-E) ──")
	g := undirGraph(2)
	for _, tc := range []struct {
		name string
		dir  grb.Direction
	}{{"push only", grb.DirPush}, {"pull only", grb.DirPull}, {"direction-optimized", grb.DirAuto}} {
		d := timeIt(3, func() {
			_, _ = lagraph.BFSLevels(g, 0, lagraph.WithDirection(tc.dir))
		})
		fmt.Printf("%-22s %12v\n", tc.name, d)
	}
	var stats lagraph.BFSStats
	_, _ = lagraph.BFSLevels(g, 0, lagraph.WithStats(&stats))
	fmt.Println("per-iteration frontier sizes and chosen direction:")
	for i, nf := range stats.FrontierSizes {
		dir := "push"
		if stats.Directions[i] == grb.DirPull {
			dir = "pull"
		}
		fmt.Printf("  iter %2d: %8d  %s\n", i, nf, dir)
	}
}

func c6() {
	fmt.Println("── C6: hypersparse O(e) storage at enormous dimension (§II-A) ──")
	e := 1 << 15
	el := gen.ErdosRenyi(1<<14, e, gen.Config{Seed: 7})
	dHyper := timeIt(3, func() {
		n := 1 << 40
		a := grb.MustMatrix[float64](n, n)
		a.SetFormat(grb.FormatHyper)
		for k := range el.Src {
			_ = a.SetElement(el.Src[k]<<20, el.Dst[k]<<20, el.W[k])
		}
		a.Wait()
	})
	dStd := timeIt(3, func() {
		n := 1 << 14
		a := grb.MustMatrix[float64](n, n)
		a.SetFormat(grb.FormatCSR)
		for k := range el.Src {
			_ = a.SetElement(el.Src[k], el.Dst[k], el.W[k])
		}
		a.Wait()
	})
	fmt.Printf("build %d entries, hypersparse, n=2^40: %12v\n", e, dHyper)
	fmt.Printf("build %d entries, standard CSR, n=2^14: %11v\n", e, dStd)
	fmt.Println("(a standard CSR at n=2^40 would need a 8 TiB pointer array)")
}

func c7() {
	fmt.Println("── C7: O(1) move-based import/export vs Ω(e) extractTuples (§IV) ──")
	g := undirGraph(2)
	a := g.A.Dup()
	dMove := timeIt(5, func() {
		nr, nc, p, i, x := a.ExportCSR()
		a, _ = grb.ImportCSR(nr, nc, p, i, x, true)
	})
	dCopy := timeIt(3, func() {
		is, js, xs := a.ExtractTuples()
		c := grb.MustMatrix[float64](a.Nrows(), a.Ncols())
		_ = c.Build(is, js, xs, nil)
		a = c
	})
	fmt.Printf("export+import (move):        %12v\n", dMove)
	fmt.Printf("extractTuples+build (copy):  %12v   (move is %.0fx faster)\n",
		dCopy, float64(dCopy)/float64(dMove))
}

func c8() {
	fmt.Println("── C8: GraphBLAS algorithms vs classic baselines (§III) ──")
	gd := dirGraph(1)
	gu := undirGraph(2)
	gw := lagraph.FromEdgeList(
		gen.RMAT(*scale, *ef, gen.Config{Seed: 3, Undirected: true, NoSelfLoops: true, MinWeight: 1, MaxWeight: 10}),
		lagraph.Undirected)
	bd := baseline.FromMatrix(gd.A.Dup())
	bu := baseline.FromMatrix(gu.A.Dup())
	bw := baseline.FromMatrix(gw.A.Dup())
	gu.A.Wait()

	fmt.Printf("%-18s %14s %14s %8s\n", "algorithm", "graphblas", "baseline", "ratio")
	row := func(name string, fg, fb func()) {
		dg := timeIt(3, fg)
		db := timeIt(3, fb)
		fmt.Printf("%-18s %14v %14v %7.1fx\n", name, dg, db, float64(dg)/float64(db))
	}
	row("bfs",
		func() { _, _ = lagraph.BFSLevels(gu, 0) },
		func() { baseline.BFSLevels(bu, 0) })
	row("sssp",
		func() { _, _ = lagraph.SSSP(gw, 0, lagraph.WithDelta(4)) },
		func() { baseline.Dijkstra(bw, 0) })
	row("cc",
		func() { _, _ = lagraph.ConnectedComponentsFastSV(gu) },
		func() { baseline.ConnectedComponents(bu) })
	row("pagerank(20it)",
		func() {
			_, _ = lagraph.PageRankWith(gd, lagraph.WithDamping(0.85), lagraph.WithTolerance(1e-30), lagraph.WithMaxIter(20))
		},
		func() { baseline.PageRank(bd, 0.85, 20) })
	row("triangles",
		func() { _, _ = lagraph.TriangleCount(gu, lagraph.TCSandiaDot) },
		func() { baseline.TriangleCount(bu) })
}

func census() {
	fmt.Println("── §V census: the LAGraph target algorithm list, exercised ──")
	gu := undirGraph(12)
	gd := dirGraph(11)
	small := lagraph.FromEdgeList(
		gen.ErdosRenyi(256, 2048, gen.Config{Seed: 13, Undirected: true, NoSelfLoops: true, MinWeight: 1, MaxWeight: 5}),
		lagraph.Undirected)

	type entry struct {
		name string
		run  func() (string, error)
	}
	entries := []entry{
		{"BFS (levels, DO)", func() (string, error) {
			l, err := lagraph.BFSLevels(gu, 0)
			return fmt.Sprintf("reached %d", l.Nvals()), err
		}},
		{"BFS (parents)", func() (string, error) {
			p, err := lagraph.BFSParents(gu, 0)
			return fmt.Sprintf("tree size %d", p.Nvals()), err
		}},
		{"SSSP delta-stepping", func() (string, error) {
			d, err := lagraph.SSSP(small, 0, lagraph.WithDelta(2))
			return fmt.Sprintf("reached %d", d.Nvals()), err
		}},
		{"SSSP Bellman-Ford", func() (string, error) {
			d, err := lagraph.SSSPBellmanFord(small, 0)
			return fmt.Sprintf("reached %d", d.Nvals()), err
		}},
		{"All-pairs shortest paths", func() (string, error) {
			d, err := lagraph.APSP(small)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("%d finite pairs", d.Nvals()), nil
		}},
		{"Betweenness centrality", func() (string, error) {
			bc, err := lagraph.BetweennessCentrality(small, []int{0, 1, 2, 3})
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("%d vertices scored", bc.Nvals()), nil
		}},
		{"Triangle counting ×4", func() (string, error) {
			c, err := lagraph.TriangleCount(gu, lagraph.TCSandiaDot)
			return fmt.Sprintf("%d triangles", c), err
		}},
		{"k-truss", func() (string, error) {
			tr, err := lagraph.KTruss(gu, 4)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("4-truss %d edges", tr.Nvals()), nil
		}},
		{"Connected components", func() (string, error) {
			l, err := lagraph.ConnectedComponentsFastSV(gu)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("%d components", lagraph.CountComponents(l)), nil
		}},
		{"PageRank", func() (string, error) {
			r, err := lagraph.PageRankWith(gd, lagraph.WithDamping(0.85), lagraph.WithTolerance(1e-8), lagraph.WithMaxIter(100))
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("%d iterations", r.Iterations), nil
		}},
		{"Graph coloring (JP)", func() (string, error) {
			_, used, err := lagraph.Coloring(gu, 1)
			return fmt.Sprintf("%d colors", used), err
		}},
		{"Maximal independent set", func() (string, error) {
			s, err := lagraph.MIS(gu, 1)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("%d members", s.Nvals()), nil
		}},
		{"Bipartite matching", func() (string, error) {
			ab := grb.MustMatrix[float64](256, 256)
			el := gen.Bipartite(256, 256, 2048, gen.Config{Seed: 14})
			for k := range el.Src {
				_ = ab.SetElement(el.Src[k], el.Dst[k]-256, 1)
			}
			rm, _, err := lagraph.BipartiteMatching(ab)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("%d pairs", rm.Nvals()), nil
		}},
		{"Markov clustering", func() (string, error) {
			l, err := lagraph.MarkovClustering(small, 2, 1e-6, 50)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("%d clusters", lagraph.CountComponents(l)), nil
		}},
		{"Peer-pressure clustering", func() (string, error) {
			l, err := lagraph.PeerPressure(small, 50)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("%d clusters", lagraph.CountComponents(l)), nil
		}},
		{"Sparse DNN inference", func() (string, error) {
			y0 := grb.MustMatrix[float64](64, 128)
			for i := 0; i < 64; i++ {
				_ = y0.SetElement(i, (i*3)%128, 1)
			}
			w := gen.ErdosRenyi(128, 2048, gen.Config{Seed: 15, MinWeight: 0.1, MaxWeight: 1}).Matrix()
			y, err := lagraph.DNNInference(y0, []lagraph.DNNLayer{{W: w}, {W: w}}, 32)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("%d activations", y.Nvals()), nil
		}},
		{"Local graph clustering", func() (string, error) {
			r, err := lagraph.LocalCluster(small, 0, 0.15, 1e-4)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("%d members, φ=%.3f", len(r.Members), r.Conductance), nil
		}},
		{"A* search (extension)", func() (string, error) {
			el := gen.Grid2D(32, 32, gen.Config{Seed: 16, Undirected: true, MinWeight: 1, MaxWeight: 3})
			gg := lagraph.FromEdgeList(el, lagraph.Undirected)
			_, cost, ok, err := lagraph.AStar(gg, 0, 32*32-1, lagraph.GridManhattan(32, 32*32-1))
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("reachable=%v cost=%.0f", ok, cost), nil
		}},
		{"Multi-source BFS (batch 8)", func() (string, error) {
			l, err := lagraph.MSBFSLevels(gu, []int{0, 1, 2, 3, 4, 5, 6, 7})
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("%d (source,vertex) pairs", l.Nvals()), nil
		}},
		{"k-core decomposition", func() (string, error) {
			d, err := lagraph.Coreness(gu)
			return fmt.Sprintf("degeneracy %d", d), err
		}},
		{"Subgraph counting", func() (string, error) {
			sc, err := lagraph.CountSubgraphs(gu)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("%d tri / %d wedges", sc.TotalTriangles, sc.TotalWedges), nil
		}},
		{"Collaborative filtering", func() (string, error) {
			el := gen.Bipartite(128, 96, 1500, gen.Config{Seed: 18, MinWeight: 1, MaxWeight: 5})
			r := grb.MustMatrix[float64](128, 96)
			for k := range el.Src {
				_ = r.SetElement(el.Src[k], el.Dst[k]-128, el.W[k])
			}
			m, err := lagraph.CollaborativeFiltering(r, 4, 0.005, 0.01, 40, 1)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("rmse %.2f→%.2f", m.RMSE[0], m.RMSE[len(m.RMSE)-1]), nil
		}},
		{"HITS (extension)", func() (string, error) {
			r, err := lagraph.HITSWith(gd, lagraph.WithTolerance(1e-8), lagraph.WithMaxIter(100))
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("%d iterations", r.Iterations), nil
		}},
		{"Pseudo-diameter", func() (string, error) {
			d, _, _, err := lagraph.PseudoDiameter(gu, 0, 6)
			return fmt.Sprintf("diameter ≥ %d", d), err
		}},
	}
	for _, e := range entries {
		t0 := time.Now()
		out, err := e.run()
		status := out
		if err != nil {
			status = "ERROR: " + err.Error()
		}
		fmt.Printf("  %-26s %-28s %10v\n", e.name, status, time.Since(t0).Round(time.Microsecond))
	}
}
