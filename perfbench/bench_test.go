package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"repro/internal/posterior"
)

// The metric catalog the runs report must be exactly the one
// BENCHMARK.json declares, in names and units.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got []metricDef
	for _, m := range spec.EndToEnd {
		got = append(got, metricDef{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(got, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json = %v, runs report %v", got, endToEnd)
	}
	got = got[:0]
	for _, m := range spec.PerLayer {
		got = append(got, metricDef{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(got, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json = %v, runs report %v", got, perLayer)
	}

	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var names struct {
		Workloads []struct{ Name string } `json:"workloads"`
	}
	if err := json.Unmarshal(b, &names); err != nil {
		t.Fatal(err)
	}
	if len(names.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(names.Workloads), len(workloads))
	}
	for i, w := range names.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
	}
}

func TestGeneratorRepeatsPerSeed(t *testing.T) {
	a, b, c := newCohortGen(7, 20), newCohortGen(7, 20), newCohortGen(8, 20)
	differs := false
	for i := 0; i < 100; i++ {
		x, y, z := a.next(), b.next(), c.next()
		if !reflect.DeepEqual(x, y) {
			t.Fatalf("cohort %d differs between two generators of seed 7", i)
		}
		differs = differs || !reflect.DeepEqual(x, z)
	}
	if !differs {
		t.Fatal("seeds 7 and 8 generated the same cohorts")
	}
}

// One seed gives the same tests_per_subject and accuracy on repeat, on
// both campaign backends (fewer cohorts per round keep the test short;
// the measured workloads use the same code with more).
func TestSameSeedSameQuality(t *testing.T) {
	for _, w := range []campaignWorkload{
		{kind: posterior.KindDense, n: 20, cohorts: 6},
		{kind: posterior.KindCluster, n: 18, cohorts: 4},
	} {
		def := &workloadDef{name: string(w.kind), subjects: w.n, setupReps: 1, setup: w.setup, primary: subjectsPerS}
		var first map[string]metric
		for rep := 0; rep < 2; rep++ {
			out, err := measure(def, &options{seed: 42, seconds: 0.01, runDir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			if !out.line.Correct {
				t.Fatalf("%s: run failed its gates: %+v", w.kind, out.line)
			}
			if rep == 0 {
				first = out.line.Metrics
				continue
			}
			for _, k := range []string{"tests_per_subject", "accuracy"} {
				if out.line.Metrics[k] != first[k] {
					t.Errorf("%s: %s = %v, first run %v", w.kind, k, out.line.Metrics[k].Value, first[k].Value)
				}
			}
		}
	}
}

// A short run of every workload, untraced and traced, passes its gates.
func TestShortRunsPassGates(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for several seconds")
	}
	for i := range workloads {
		w := workloads[i]
		w.setupReps = 1
		for _, trace := range []bool{false, true} {
			out, err := execute(&w, &options{seed: 3, seconds: 1, trace: trace, runDir: t.TempDir()})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !out.line.Correct || out.line.Failed != 0 {
				t.Errorf("%s trace=%v: gates failed: %d of %d operations", w.name, trace, out.line.Failed, out.line.Attempted)
			}
			if trace && out.line.Metrics["obs.spans_dropped"].Value != 0 {
				t.Errorf("%s: spans dropped", w.name)
			}
		}
	}
}
