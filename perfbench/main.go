// perfbench is the service benchmark: it runs lagraphd's stack in this
// process (svc over catalog, store and a synced WAL, optionally three
// cluster members), drives it over loopback HTTP with at most two
// client connections, checks every answer, and prints one JSON result
// line. Inputs (an RMAT graph, edge batches, query sources) come from
// --seed alone.
//
//	perfbench --workload read-mix --seed 1 --seconds 20 --trace 0
//	perfbench compare a.json b.json
//	perfbench describe
//
// With --trace 0 the result carries the end-to-end metrics, timed on the
// client with tracing off. With --trace 1 a separate run with the same
// seed and clients records spans around each layer's public functions
// and reports the per-layer metrics. Every run also writes a detailed
// record (host shape, sample counts, spans) under
// .bench_build/perfbench/ in the working directory; compare reads two of
// those and refuses results from different host shapes.
//
// The exit status is nonzero when a correctness gate fails: checksum
// disagreement, a failed mode=verify query, a replay that does not
// reproduce every acknowledged batch, or a replica that diverges.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// config is one run's shape.
type config struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	// Scale and EdgeFactor size the RMAT graph.
	Scale      int `json:"scale"`
	EdgeFactor int `json:"edge_factor"`
	// Setups is how many set-up rounds a run times (setup_s is their
	// median); Restarts likewise for recover_s.
	Setups   int `json:"setups"`
	Restarts int `json:"restarts"`
	// IngestBatches is the fixed batch count of ingest-read's writer, so
	// recovery replays a journal of the same length on every run.
	IngestBatches int `json:"ingest_batches"`
	// WriteRate is replicate's open-loop batch rate.
	WriteRate float64 `json:"write_rate"`
	// Dir holds the run's data directories; removed at the end.
	Dir string `json:"-"`
	// Out is where the detailed record goes ("" = nowhere).
	Out string `json:"-"`
	// faults injects failures so the self-test can prove the gates bite.
	faults faults
}

type faults struct {
	badChecksum bool // corrupt one compared checksum
	dropReplay  bool // tear the last journal record before restart
}

func defaultConfig(workload string, seed int64, seconds float64) config {
	return config{
		Workload: workload, Seed: seed, Seconds: seconds,
		Scale: 14, EdgeFactor: 16, Setups: 5, Restarts: 5,
		IngestBatches: int(10 * seconds), WriteRate: 20,
	}
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:], os.Stdout))
		case "describe":
			os.Exit(describe(os.Stdout))
		}
	}
	fs := flag.NewFlagSet("perfbench", flag.ExitOnError)
	workload := fs.String("workload", "", "read-mix, ingest-read, or replicate (not in BENCHMARK.json)")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 20, "measured window length")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	fs.Parse(os.Args[1:])

	cfg := defaultConfig(*workload, *seed, *seconds)
	cfg.Trace = *trace == 1
	base := filepath.Join(".bench_build", "perfbench")
	cfg.Dir = filepath.Join(base, fmt.Sprintf("data-%d", os.Getpid()))
	cfg.Out = filepath.Join(base, fmt.Sprintf("%s-seed%d-trace%d.json", cfg.Workload, cfg.Seed, *trace))
	res, err := run(cfg, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		if res == nil {
			os.Exit(2)
		}
	}
	b, _ := json.Marshal(res)
	fmt.Println(string(b))
	if err != nil || !res.Correct {
		os.Exit(1)
	}
}

// run executes one workload. A nil result means the run could not
// produce numbers; a non-nil result with an error is a failed gate.
func run(cfg config, log io.Writer) (*result, error) {
	var wl func(*bench) error
	switch cfg.Workload {
	case "read-mix":
		wl = (*bench).readMix
	case "ingest-read":
		wl = (*bench).ingestRead
	case "replicate":
		wl = (*bench).replicate
	default:
		return nil, fmt.Errorf("unknown --workload %q", cfg.Workload)
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(cfg.Dir)
	b, err := newBench(cfg, log)
	if err != nil {
		return nil, err
	}
	defer b.cl.close()
	stop := make(chan struct{})
	peak := heapPeak(stop)
	werr := wl(b)
	close(stop)
	b.set("heap_peak_mb", <-peak, 1)
	a := float64(b.attempted.Load())
	b.set("answered_ratio", ratio(a-float64(b.failed.Load()), a), int(a))
	if werr != nil && !errors.Is(werr, errGate) {
		return nil, werr
	}
	res := b.result()
	if cfg.Out != "" {
		if err := b.writeRecord(res); err != nil {
			return nil, err
		}
	}
	if werr != nil {
		res.Correct = false
		return res, werr
	}
	return res, nil
}

// describe prints the workload list and every metric with its unit,
// direction, layer and prediction (the table committed as metrics.json).
func describe(w io.Writer) int {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(map[string]any{
		"seeds":      map[string]int64{"development": 1, "held_out": 7919},
		"workloads":  workloads,
		"manual":     manualWorkloads,
		"end_to_end": endToEnd,
		"per_layer":  perLayer,
	}); err != nil {
		return 1
	}
	return 0
}
