package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/obs"
)

// metricDef names one reported metric and its unit. BENCHMARK.json lists
// the same names and units (bench_test.go checks that they agree) and
// holds the direction and regression bound of each.
type metricDef struct{ name, unit string }

// endToEnd are the metrics every untraced run reports, on every workload.
// Campaigns and serving share one meaning per name (see README.md): a
// "request" is one call a user of the system waits on, and a "stage" is
// lab results in to next pools out.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"max_rss_mb", "MiB"},
	{"subjects_per_s", "1/s"},
	{"stage_p50_ms", "ms"},
	{"stage_p95_ms", "ms"},
	{"req_per_s", "1/s"},
	{"req_p50_ms", "ms"},
	{"req_p95_ms", "ms"},
	{"tests_per_subject", "tests/subject"},
	{"accuracy", "ratio"},
}

// perLayer are the metrics every traced run reports, on every workload.
// A layer a workload does not reach reports 0.
var perLayer = func() []metricDef {
	var out []metricDef
	for _, op := range opNames {
		p := "posterior." + op
		out = append(out,
			metricDef{p + ".calls", "count"},
			metricDef{p + ".busy_s", "s"},
			metricDef{p + ".ns_per_state", "ns"},
			metricDef{p + ".fixed_us", "us"})
	}
	out = append(out,
		metricDef{"posterior.open_ms", "ms"},
		metricDef{"core.kernel_share", "ratio"},
		metricDef{"halving.select.calls", "count"},
		metricDef{"halving.select.self_ms", "ms"},
		metricDef{"core.select_ms", "ms"},
		metricDef{"core.update_ms", "ms"},
		metricDef{"core.classify_ms", "ms"},
		metricDef{"engine.tasks_per_stage", "count"},
		metricDef{"engine.submit_wait_ms", "ms"},
		metricDef{"engine.task_busy_s", "s"},
		metricDef{"cluster.rpc.calls_per_stage", "count"},
		metricDef{"cluster.rpc.busy_s", "s"},
		metricDef{"cluster.bytes_per_stage", "B"},
		metricDef{"cluster.rpc.fixed_us", "us"})
	for _, r := range routeNames {
		out = append(out, metricDef{"serve." + r + ".p50_ms", "ms"})
	}
	out = append(out,
		metricDef{"serve.restores_per_req", "ratio"},
		metricDef{"serve.evictions_per_req", "ratio"},
		metricDef{"serve.resident_hit_ratio", "ratio"},
		metricDef{"serve.ckpt_bytes_per_evict", "B"},
		metricDef{"serve.server_p50_ms", "ms"},
		metricDef{"host.calibration_ms", "ms"},
		metricDef{"proc.cpu_ms_per_op", "ms"},
		metricDef{"proc.sys_share", "ratio"},
		metricDef{"obs.trace_overhead_pct", "%"},
		metricDef{"obs.spans_dropped", "count"},
		metricDef{"error_rate", "ratio"})
	return out
}()

// metric is one reported value as it appears in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report picks the listed metrics out of values; a missing one is a bug
// in the workload, not a measurement.
func report(defs []metricDef, values map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	return out, nil
}

// quantile is the q-quantile of xs by linear interpolation between order
// statistics; xs is sorted in place. It returns 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func ratio(num, den float64) float64 {
	if den == 0 { //lint:allow floats a zero denominator means nothing was counted
		return 0
	}
	return num / den
}

// regDelta reads how much a registry's series moved between two
// snapshots, so counters from set-up never leak into the measured phase.
type regDelta struct{ before, after *obs.Snapshot }

func matches(have, want []obs.Label) bool {
	for _, w := range want {
		found := false
		for _, h := range have {
			if h == w {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

func counterSum(s *obs.Snapshot, name string, want []obs.Label) float64 {
	var v float64
	for _, c := range s.Counters {
		if c.Name == name && matches(c.Labels, want) {
			v += float64(c.Value)
		}
	}
	return v
}

// counter is the summed increase of every series of name carrying want.
func (d regDelta) counter(name string, want ...obs.Label) float64 {
	return counterSum(d.after, name, want) - counterSum(d.before, name, want)
}

// histSum accumulates matching histograms: count, sum, and cumulative
// bucket counts (all series of one name share their bounds).
func histSum(s *obs.Snapshot, name string, want []obs.Label) (count, sum float64, bounds, cum []float64) {
	for _, h := range s.Histograms {
		if h.Name != name || !matches(h.Labels, want) {
			continue
		}
		count += float64(h.Count)
		sum += h.Sum
		if cum == nil {
			cum = make([]float64, len(h.Buckets))
			for _, b := range h.Buckets {
				bounds = append(bounds, b.UpperBound)
			}
		}
		for i, b := range h.Buckets {
			cum[i] += float64(b.Count)
		}
	}
	return count, sum, bounds, cum
}

// hist is the increase of a histogram family's count and sum.
func (d regDelta) hist(name string, want ...obs.Label) (count, sum float64) {
	c1, s1, _, _ := histSum(d.after, name, want)
	c0, s0, _, _ := histSum(d.before, name, want)
	return c1 - c0, s1 - s0
}

// histMedian estimates the median of the observations a histogram family
// gained, interpolating linearly inside the bucket that holds it.
func (d regDelta) histMedian(name string, want ...obs.Label) float64 {
	c1, _, bounds, cum1 := histSum(d.after, name, want)
	c0, _, _, cum0 := histSum(d.before, name, want)
	n := c1 - c0
	if n == 0 { //lint:allow floats counts are whole numbers; zero means no observations
		return 0
	}
	half := n / 2
	prevBound, prevCum := 0.0, 0.0
	for i, b := range bounds {
		c := cum1[i]
		if cum0 != nil {
			c -= cum0[i]
		}
		if c >= half {
			if math.IsInf(b, 1) {
				return prevBound
			}
			return prevBound + (b-prevBound)*ratio(half-prevCum, c-prevCum)
		}
		prevBound, prevCum = b, c
	}
	return prevBound
}

// A steady metric of a serve drive is the median over one-second slices
// of the drive, so a stall of the shared host that lasts a few seconds
// moves it less than a whole-run figure would. Fewer slices are used when
// a slice would hold too few samples.
const window = time.Second

// windows is how many slices of a drive of length elapsed a metric over
// n samples, of which each slice needs at least per, is measured over.
func windows(elapsed time.Duration, n, per int) int {
	return max(min(n/per, int(elapsed/window)), 1)
}

// rssInterval is how often the resident high-water mark is sampled;
// max_rss_mb is the median over samples.
const rssInterval = 2 * time.Second

// windowMedian splits a drive of length elapsed into w equal slices by
// sample completion time and returns the median over slices of f, which
// is given each slice's samples and its span.
func windowMedian(xs []sample, elapsed time.Duration, w int, f func(in []sample, lo, hi time.Duration) float64) float64 {
	sorted := append([]sample(nil), xs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].at < sorted[j].at })
	width := elapsed / time.Duration(w)
	vals := make([]float64, w)
	a := 0
	for i := range vals {
		lo, hi := time.Duration(i)*width, time.Duration(i+1)*width
		b := a
		for b < len(sorted) && (sorted[b].at < hi || i == w-1) {
			b++
		}
		vals[i] = f(sorted[a:b], lo, hi)
		a = b
	}
	return quantile(vals, 0.5)
}

// throughput is samples per second — or, with sum, summed sample values
// per second — at reference speed, as the median over windows of at
// least 100 samples each.
func throughput(xs []sample, elapsed time.Duration, sum bool, cals []calSample) float64 {
	w := windows(elapsed, len(xs), 100)
	return windowMedian(xs, elapsed, w, func(in []sample, lo, hi time.Duration) float64 {
		n := float64(len(in))
		if sum {
			n = 0
			for _, s := range in {
				n += s.val
			}
		}
		return ratio(n, (hi-lo).Seconds()) * slowdown(cals, lo, hi)
	})
}

// percentile is the q-quantile of the sample values at reference speed,
// as the median over windows that each keep at least ten samples beyond
// the quantile.
func percentile(xs []sample, elapsed time.Duration, q float64, cals []calSample) float64 {
	w := windows(elapsed, int(float64(len(xs))*(1-q)), 10)
	return windowMedian(xs, elapsed, w, func(in []sample, lo, hi time.Duration) float64 {
		vals := make([]float64, len(in))
		for i, s := range in {
			vals[i] = s.val
		}
		return quantile(vals, q) / slowdown(cals, lo, hi)
	})
}

// mixQuantile is the q-quantile of the sample values when each group's
// samples together carry the group's reference weight: the latency
// distribution the run would show at the reference mix of groups.
// Groups without samples drop out and the rest are renormalized.
func mixQuantile(xs []sample, ref []float64, q float64) float64 {
	count := make([]int, len(ref))
	for _, s := range xs {
		if s.group < len(ref) {
			count[s.group]++
		}
	}
	var total float64
	for g, n := range count {
		if n > 0 {
			total += ref[g]
		}
	}
	sorted := append([]sample(nil), xs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].val < sorted[j].val })
	var cum float64
	for _, s := range sorted {
		if s.group >= len(ref) {
			continue
		}
		cum += ref[s.group] / float64(count[s.group]) / total
		if cum >= q {
			return s.val
		}
	}
	if len(sorted) == 0 {
		return 0
	}
	return sorted[len(sorted)-1].val
}
