package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// benchSpec is the part of BENCHMARK.json the compare step reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// loadResults reads the end-to-end result files (trace 0) in dir.
func loadResults(dir string) ([]resultFile, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*-trace0.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("%s holds no end-to-end result files", dir)
	}
	var out []resultFile
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r resultFile
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// compareMain compares two sets of end-to-end results, each a directory
// of result files such as a copy of .bench_out/ from one commit. Results
// from different hosts are reported as not comparable (exit 3), neither
// pass nor fail. Otherwise each workload × metric compares the medians
// over the runs against the metric's bound in BENCHMARK.json: exit 1 if
// any got worse by more than its bound, else 0.
func compareMain(args []string) int {
	if len(args) != 2 {
		logf("usage: perfbench compare BASE_DIR NEW_DIR")
		return 2
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		logf("%v", err)
		return 2
	}
	var sets [2][]resultFile
	for i, dir := range args {
		if sets[i], err = loadResults(dir); err != nil {
			logf("%v", err)
			return 2
		}
	}
	hosts := map[string]bool{}
	for _, set := range sets {
		for _, r := range set {
			hosts[r.Fingerprint.hostKey()] = true
		}
	}
	if len(hosts) > 1 {
		fmt.Println("not comparable: the results come from different hosts or toolchains:")
		for h := range hosts {
			fmt.Println("  " + h)
		}
		return 3
	}

	values := func(set []resultFile, wl, metric string) []float64 {
		var v []float64
		for _, r := range set {
			if m, ok := r.Result.Metrics[metric]; ok && r.Workload == wl {
				v = append(v, m.Value)
			}
		}
		return v
	}
	var names []string
	seen := map[string]bool{}
	for _, r := range sets[0] {
		if !seen[r.Workload] {
			seen[r.Workload] = true
			names = append(names, r.Workload)
		}
	}
	sort.Strings(names)
	worse := 0
	fmt.Printf("%-18s %-18s %12s %12s %8s  %s\n", "workload", "metric", "base", "new", "change", "verdict")
	for _, wl := range names {
		for _, m := range spec.EndToEnd {
			b, n := values(sets[0], wl, m.Name), values(sets[1], wl, m.Name)
			if len(b) == 0 || len(n) == 0 {
				continue
			}
			mb, mn := quantile(b, 0.5), quantile(n, 0.5)
			change := ratio(mn-mb, mb)
			verdict := "ok"
			if (m.Better == "lower" && change > m.Bound) || (m.Better == "higher" && -change > m.Bound) {
				verdict = fmt.Sprintf("WORSE beyond %.0f%%", m.Bound*100)
				worse++
			}
			fmt.Printf("%-18s %-18s %12.6g %12.6g %+7.1f%%  %s (%d vs %d runs)\n", wl, m.Name, mb, mn, change*100, verdict, len(b), len(n))
		}
	}
	if worse > 0 {
		return 1
	}
	return 0
}
