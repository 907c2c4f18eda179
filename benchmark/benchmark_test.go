package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSON holds ../BENCHMARK.json to what this package reports:
// the same workloads with the same reasons, the same metric names, units
// and directions, and the contract's limits on bounds.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			metricDef
			Bound float64
		} `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(scenarios) {
		t.Fatalf("%d workloads declared, %d scenarios", len(spec.Workloads), len(scenarios))
	}
	for i, w := range spec.Workloads {
		if w.Name != scenarios[i].Name || w.Why != scenarios[i].Why {
			t.Errorf("workload %d is %q (%q), scenario is %q (%q)", i, w.Name, w.Why, scenarios[i].Name, scenarios[i].Why)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, %d reported", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		if m.metricDef != endToEnd[i] {
			t.Errorf("end-to-end metric %d is %+v, reported as %+v", i, m.metricDef, endToEnd[i])
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics declared, %d reported", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if m != perLayer[i] {
			t.Errorf("per-layer metric %d is %+v, reported as %+v", i, m, perLayer[i])
		}
	}
	// 4 + 22 runs per workload, each with set-up, oracle and warm-up on
	// top of the measured seconds, must fit the contract's 3420 s.
	if runs := 4 + 22*len(scenarios); float64(runs)*(float64(spec.RunSeconds)+8) > 3420-120 {
		t.Errorf("%d runs of %d s (+8 s overhead each) do not fit 3420 s with two builds", runs, spec.RunSeconds)
	}
}
