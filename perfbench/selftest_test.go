package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// tiny is a run small enough for a unit test: a scale-8 graph and
// windows of a fraction of a second.
func tiny(t *testing.T, workload string, trace bool) config {
	cfg := defaultConfig(workload, 3, 0.5)
	cfg.Scale, cfg.EdgeFactor = 8, 8
	cfg.Setups, cfg.Restarts = 2, 2
	cfg.IngestBatches, cfg.WriteRate = 12, 40
	cfg.Trace = trace
	cfg.Dir = filepath.Join(t.TempDir(), "data")
	return cfg
}

type benchmarkFile struct {
	Workloads []workloadDef `json:"workloads"`
	EndToEnd  []metricDef   `json:"end_to_end"`
	PerLayer  []metricDef   `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// The committed BENCHMARK.json and metrics.json must say what the code
// reports.
func TestRegistryMatchesCommittedFiles(t *testing.T) {
	bf := readBenchmarkFile(t)
	same := func(kind string, file, code []metricDef) {
		if len(file) != len(code) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the code %d", kind, len(file), len(code))
		}
		for i := range code {
			f, c := file[i], code[i]
			if f.Name != c.Name || f.Unit != c.Unit || f.Better != c.Better || f.Bound != c.Bound {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the code %+v", kind, i, f, c)
			}
		}
	}
	same("end_to_end", bf.EndToEnd, endToEnd)
	same("per_layer", bf.PerLayer, perLayer)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i] != w {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the code %+v", i, bf.Workloads[i], w)
		}
	}
	var buf bytes.Buffer
	describe(&buf)
	committed, err := os.ReadFile("metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(committed, buf.Bytes()) {
		t.Error("metrics.json is stale: regenerate it with `perfbench describe > perfbench/metrics.json`")
	}
}

// Every workload, traced and untraced, passes its gates and reports
// every metric BENCHMARK.json names, with its unit.
func TestEveryMetricReported(t *testing.T) {
	bf := readBenchmarkFile(t)
	for _, w := range append(workloads, manualWorkloads...) {
		for _, trace := range []bool{false, true} {
			defs := bf.EndToEnd
			if trace {
				defs = bf.PerLayer
			}
			res, err := run(tiny(t, w.Name, trace), io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.Name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.Name, trace, d.Name, m, d.Unit)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v", w.Name, d.Name, m.Value)
				}
			}
		}
	}
}

// An injected wrong checksum fails the run.
func TestWrongChecksumFails(t *testing.T) {
	for _, w := range append(workloads, manualWorkloads...) {
		cfg := tiny(t, w.Name, false)
		cfg.faults.badChecksum = true
		res, err := run(cfg, io.Discard)
		if !errors.Is(err, errGate) || res == nil || res.Correct {
			t.Errorf("%s: corrupted checksum gave err=%v", w.Name, err)
		}
	}
}

// A batch that was acknowledged but is not replayed fails the run.
// read-mix writes nothing, so it has no batch to lose.
func TestUnreplayedBatchFails(t *testing.T) {
	for _, w := range []string{"ingest-read", "replicate"} {
		cfg := tiny(t, w, false)
		cfg.faults.dropReplay = true
		res, err := run(cfg, io.Discard)
		if !errors.Is(err, errGate) || res == nil || res.Correct {
			t.Errorf("%s: torn journal record gave err=%v", w, err)
		}
	}
}

// compare refuses records from different host shapes.
func TestCompareRefusesOtherShape(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, sh hostShape) string {
		p := filepath.Join(dir, name)
		data, _ := json.Marshal(record{Shape: sh, Config: config{Workload: "read-mix"}, All: map[string]float64{"query_qps": 1}})
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	sh := shapeOf(dir)
	a := write("a.json", sh)
	if code := compareMain([]string{a, a}, io.Discard); code != 0 {
		t.Fatalf("same shape: exit %d", code)
	}
	sh.NProc++
	b := write("b.json", sh)
	if code := compareMain([]string{a, b}, io.Discard); code != 2 {
		t.Fatalf("different nproc: exit %d, want 2", code)
	}
}
