package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
)

// TestBenchmarkFilesAgree keeps BENCHMARK.json, layers.json and the
// program's workload list naming the same things.
func TestBenchmarkFilesAgree(t *testing.T) {
	var bench struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	var layers struct {
		Workloads map[string]struct{ Why string }
		EndToEnd  struct{ Gated []string } `json:"end_to_end"`
		Metrics   []struct{ Name, Kind string }
	}
	for path, v := range map[string]any{"../BENCHMARK.json": &bench, "layers.json": &layers} {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(b, v); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
	}

	if len(bench.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(bench.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bw := bench.Workloads[i]; bw.Name != w.name || bw.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q %q, program %q %q", i, bw.Name, bw.Why, w.name, w.why)
		}
		if lw, ok := layers.Workloads[w.name]; !ok || lw.Why != w.why {
			t.Errorf("layers.json workload %s: why %q, program %q", w.name, lw.Why, w.why)
		}
	}

	var e2e []string
	for _, m := range bench.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	if !slices.Equal(e2e, layers.EndToEnd.Gated) {
		t.Errorf("end-to-end metrics: BENCHMARK.json %v, layers.json %v", e2e, layers.EndToEnd.Gated)
	}

	kinds := []string{kindEmit, kindFold, kindEncode, kindDecode, kindHandoff, kindE2E}
	if len(bench.PerLayer) != len(layers.Metrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, layers.json %d", len(bench.PerLayer), len(layers.Metrics))
	}
	for i, m := range layers.Metrics {
		if bench.PerLayer[i].Name != m.Name {
			t.Errorf("per-layer metric %d: BENCHMARK.json %s, layers.json %s", i, bench.PerLayer[i].Name, m.Name)
		}
		if !slices.Contains(kinds, m.Kind) {
			t.Errorf("%s: unknown kind %q", m.Name, m.Kind)
		}
	}
}
