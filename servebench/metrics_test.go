package main

import (
	"encoding/json"
	"errors"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesMetricTables keeps BENCHMARK.json and the metrics
// the benchmark reports in step.
func TestBenchmarkJSONMatchesMetricTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(doc.Workloads), len(workloadNames))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloadNames[i])
		}
	}
	for _, tc := range []struct {
		kind string
		json []metric
		defs []metricDef
	}{{"end_to_end", doc.EndToEnd, endToEndMetrics}, {"per_layer", doc.PerLayer, layerMetrics}} {
		if len(tc.json) != len(tc.defs) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", tc.kind, len(tc.json), len(tc.defs))
		}
		for i, m := range tc.json {
			d := tc.defs[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json %s/%s/%s, benchmark %s/%s/%s", tc.kind, i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
			}
		}
	}
	setup := doc.EndToEnd[0]
	for _, m := range doc.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 || m.Bound > setup.Bound {
			t.Errorf("%s: bound %v outside (0, setup_s's %v]", m.Name, m.Bound, setup.Bound)
		}
	}
}

func TestMetricResultKeepsDeclaredMetrics(t *testing.T) {
	b := &bench{}
	all := map[string]metricValue{"reads_per_s": {1, "reads/s"}, "failed_frac": {0, "fraction"}}
	res := b.result(all)
	if len(res.Metrics) != len(endToEndMetrics) {
		t.Fatalf("result has %d metrics, want %d", len(res.Metrics), len(endToEndMetrics))
	}
	if _, ok := res.Metrics["failed_frac"]; ok {
		t.Error("failed_frac leaked into the result line; it is carried by attempted/failed")
	}
	if !res.Correct || res.Attempted != 0 {
		t.Errorf("empty run: %+v", res)
	}
	b.outcomes = []outcome{{index: 1}, {index: 2, err: errors.New("refused: HTTP 503")}}
	if res := b.result(all); res.Correct || res.Failed != 1 || res.Attempted != 2 {
		t.Errorf("one refusal: %+v", res)
	}
}
