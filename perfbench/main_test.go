package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkManifest keeps BENCHMARK.json and the metrics the program
// prints in step: the same names, units and order.
func TestBenchmarkManifest(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no manifest beside the benchmark: %v", err)
	}
	var m struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.EndToEnd) != len(gateMetrics) || len(m.PerLayer) != len(layerMetrics) {
		t.Fatalf("manifest lists %d end-to-end and %d per-layer metrics, program %d and %d",
			len(m.EndToEnd), len(m.PerLayer), len(gateMetrics), len(layerMetrics))
	}
	for i, g := range gateMetrics {
		if e := m.EndToEnd[i]; e.Name != g.name || e.Unit != g.unit {
			t.Errorf("end_to_end[%d] = %s %s, program %s %s", i, e.Name, e.Unit, g.name, g.unit)
		}
	}
	for i, l := range layerMetrics {
		if e := m.PerLayer[i]; e.Name != l.name || e.Unit != l.unit {
			t.Errorf("per_layer[%d] = %s %s, program %s %s", i, e.Name, e.Unit, l.name, l.unit)
		}
	}
	for _, w := range m.Workloads {
		if workloadRunners[w.Name] == nil {
			t.Errorf("manifest workload %q has no runner", w.Name)
		}
	}
}
