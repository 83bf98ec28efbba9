package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

// BENCHMARK.json at the repository root declares the workloads and metrics
// this program reports; the two must not drift apart.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q, the program's is %q", i, w.Name, workloads[i].name)
		}
		if rate := fmt.Sprintf("paced %.0f msg/s", workloads[i].pacedRate); !strings.Contains(w.Why, rate) {
			t.Errorf("workload %q: why %q does not record %q", w.Name, w.Why, rate)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metric) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s metric %d: BENCHMARK.json %s (%s), program %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
