package main

import (
	"bytes"
	"os"
	"testing"
)

// TestBenchmarkJSONIsGenerated keeps the repository's BENCHMARK.json
// identical to what -spec prints from the workload and metric tables.
// Regenerate it with:
//
//	go run . -spec > ../BENCHMARK.json
func TestBenchmarkJSONIsGenerated(t *testing.T) {
	have, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var want bytes.Buffer
	emitSpec(&want)
	if !bytes.Equal(have, want.Bytes()) {
		t.Fatalf("BENCHMARK.json is stale; regenerate it with: go run . -spec > ../BENCHMARK.json\nhave:\n%s\nwant:\n%s", have, want.Bytes())
	}
}

func TestEveryMetricIsReported(t *testing.T) {
	w := &workloads[0]
	got := layerValues(w, liveResult{}, liveResult{}, replayResult{})
	for _, m := range perLayer {
		r, ok := got[m.Name]
		if !ok {
			t.Errorf("per-layer metric %s is never computed", m.Name)
			continue
		}
		if r.Unit != m.Unit {
			t.Errorf("%s computed in %s, declared in %s", m.Name, r.Unit, m.Unit)
		}
	}
	if len(got) != len(perLayer) {
		t.Errorf("%d per-layer values computed, %d declared", len(got), len(perLayer))
	}
}
