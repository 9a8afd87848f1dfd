package main

import (
	"encoding/json"
	"os"
	"testing"
)

// BENCHMARK.json is the contract later changes are judged by; the tables
// in metrics.go and workloads.go are what the binary prints. They must
// name exactly the same workloads and metrics.
func TestBenchmarkJSONMatchesBinary(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type row struct {
		Name, Unit, Better, Why string
		Bound                   float64
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []row
		EndToEnd   []row `json:"end_to_end"`
		PerLayer   []row `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d run", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if d := doc.Workloads[i]; d.Name != w.name || d.Why != w.why {
			t.Errorf("workload %d: declared %q, binary runs %q (or the why differs)", i, d.Name, w.name)
		}
	}
	check := func(section string, declared []row, printed []metricDef) {
		if len(declared) != len(printed) {
			t.Fatalf("%s: %d metrics declared, %d printed", section, len(declared), len(printed))
		}
		seen := map[string]bool{}
		for i, p := range printed {
			d := declared[i]
			if d.Name != p.name || d.Unit != p.unit || d.Better != p.better || d.Bound != p.bound {
				t.Errorf("%s row %d: declared %+v, binary prints %+v", section, i, d, p)
			}
			if seen[p.name] {
				t.Errorf("%s: %s declared twice", section, p.name)
			}
			seen[p.name] = true
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
	if doc.EndToEnd[0].Name != "setup_s" {
		t.Errorf("setup_s must be declared")
	}
	for _, d := range endToEnd {
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.name, d.bound)
		}
	}
	// The driver makes 4 + 22 runs per workload inside 3420 s.
	if runs := 4 + 22*len(workloads); doc.RunSeconds*runs > 3420 {
		t.Errorf("run_seconds %d x %d runs exceeds the driver's 3420 s", doc.RunSeconds, runs)
	}
}
