package main

import (
	"encoding/json"
	"os"
	"testing"
)

// The metric catalogue and BENCHMARK.json at the repository root must name
// the same metrics with the same units and directions, in the same order.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(label string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the catalogue %d", label, len(got), len(want))
		}
		for i, w := range want {
			if g := got[i]; g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s %d: BENCHMARK.json %+v, catalogue %s %s %s", label, i, g, w.name, w.unit, w.better)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	names := workloadNames()
	if len(spec.Workloads) != len(names) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark %d", len(spec.Workloads), len(names))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	for _, name := range timedStages {
		if _, ok := lookupDef(name + "_ms"); !ok {
			t.Errorf("stage %s has no catalogued metric", name)
		}
	}
}
