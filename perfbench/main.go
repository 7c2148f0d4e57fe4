// Command perfbench is the repository's benchmark of record. It drives
// the program only through its public surfaces — posterior.Spec and
// core.Session for surveillance campaigns, the sbgt-serve HTTP API for
// the service — on seeded closed-loop workloads, checks every output
// against the generated truth, and prints one JSON result line last.
//
//	bash perfbench/run.sh --workload campaign-dense --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh compare BASE_DIR NEW_DIR
//
// --trace 0 measures the end-to-end metrics; --trace 1 runs the workload
// untraced and then traced for half the time each and reports the
// per-layer metrics. Every run also writes its result, stamped with a
// host fingerprint, to .bench_out/, and a traced run its spans. README.md
// explains the workloads and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/posterior"
)

// workloadDef is one named input set and traffic mix.
type workloadDef struct {
	name string
	// subjects is the cohort size, which sets the posterior's size.
	subjects int
	// setupReps is how many times a run sets the workload up; setup_s is
	// the median.
	setupReps int
	setup     func(o *options, traced bool) (env, error)
	// primary is the throughput metric trace overhead is judged on.
	primary func(t *tally) float64
	// mix, when set, is the reference mix of request groups the latency
	// percentiles are read at (see mixQuantile).
	mix []float64
	// cal is the workload's calibration sweep (see calibrate.go).
	cal calibrator
}

// env is one set-up workload: its pool, executors or server, and inputs.
type env interface {
	// drive runs the closed loop until the deadline. full marks an
	// end-to-end run, which also completes and checks the seed-defined
	// quality sample.
	drive(until time.Time, full bool) *tally
	// layers computes the per-layer metrics of a traced drive.
	layers(t *tally) map[string]float64
	recorders() []*recorder
	close()
}

// sample is one timed event of a drive: when it completed, measured
// from the start of the drive (serve drives only; campaign samples are
// per cohort, over rounds), and its value — a latency in ms, or the
// number of subjects a finished cohort classified. A campaign request's
// group is the number of unclassified subjects its stage started on, or
// groupOpen for the request that opens the campaign; a serve request's
// is its route.
type sample struct {
	at    time.Duration
	val   float64
	group int
}

const groupOpen = 0

// tally is what one drive measured.
type tally struct {
	attempted, failed int
	elapsed           time.Duration
	cpu               cpuTimes
	// Subjects classified and checked, and requests, per second.
	subjectsPerS, reqPerS float64
	stages                []sample // ms: lab results in to next pools out
	reqs                  []sample // ms: every request a user waits on
	// How many stages and requests the drive ran.
	ranStages, ranReqs int
	// The calibration sweeps taken during the drive.
	cals []calSample
	// The quality sample: tests, subjects and correct calls.
	qTests, qSubjects, qCorrect int
}

// fail counts one failed operation and logs the first few.
func (t *tally) fail(err error) {
	t.failed++
	if t.failed <= maxLoggedErrors {
		logf("%v", err)
	}
}

func subjectsPerS(t *tally) float64 { return t.subjectsPerS }
func reqPerS(t *tally) float64      { return t.reqPerS }

var workloads = []workloadDef{
	{
		name: "campaign-dense", subjects: 20, setupReps: 25,
		setup:   campaignWorkload{kind: posterior.KindDense, n: 20, cohorts: stratBlock}.setup,
		primary: subjectsPerS, mix: denseMix,
	},
	{
		name: "campaign-cluster", subjects: 18, setupReps: 25,
		// Two blocks of cohorts: a cluster round is short, and at 64
		// cohorts tests_per_subject spread by 8% over ten seeds (4% at 128).
		setup:   campaignWorkload{kind: posterior.KindCluster, n: 18, cohorts: 2 * stratBlock}.setup,
		primary: subjectsPerS, mix: clusterMix,
	},
	{
		name: "serve-resident", subjects: serveSubjects, setupReps: 25,
		setup:   serveWorkload{cohorts: 128}.setup,
		primary: reqPerS,
		// The 512 KiB sweep takes about 4.5 ms on the reference host.
		cal: calibrator{bytes: 512 << 10, refMs: 4.5},
	},
}

func zeroLayers() map[string]float64 {
	v := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		v[d.name] = 0
	}
	return v
}

// options is one invocation's settings.
type options struct {
	seed    uint64
	seconds float64
	trace   bool
	runDir  string // scratch for checkpoint directories, removed at exit
	dirs    int
}

// watchdog is the hard limit on one run; a run that reaches it exits
// without a result.
const watchdog = 175 * time.Second

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	os.Exit(benchMain(os.Args[1:]))
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		logf("want --workload one of campaign-dense, campaign-cluster, serve-resident; --seconds > 0; --trace 0 or 1")
		return 2
	}
	time.AfterFunc(watchdog, func() {
		logf("run exceeded %v", watchdog)
		os.Exit(3)
	})

	root, err := os.Getwd()
	if err != nil {
		logf("%v", err)
		return 1
	}
	o := &options{seed: *seed, seconds: *seconds, trace: *trace == 1}
	o.runDir = filepath.Join(root, ".bench_run", fmt.Sprintf("%s-%d", w.name, os.Getpid()))
	if err := os.MkdirAll(o.runDir, 0o755); err != nil {
		logf("%v", err)
		return 1
	}
	fp := hostFingerprint(root, o.runDir)
	out, err := execute(w, o)
	if rmErr := os.RemoveAll(o.runDir); rmErr != nil {
		logf("remove run directory: %v", rmErr)
	}
	if err != nil {
		logf("%s: %v", w.name, err)
		return 1
	}
	if fp.CkptFS == "tmpfs" {
		logf("warning: checkpoints ran on tmpfs, so rename and write costs are not a disk's")
	}
	rec := resultFile{
		Workload: w.name, Seed: o.seed, Seconds: o.seconds, Trace: *trace,
		Fingerprint: fp, Regime: cacheRegime(w.subjects, fp.L2Bytes, fp.L3Bytes),
		Result: out.line, ErrorRate: ratio(float64(out.line.Failed), float64(out.line.Attempted)),
		CalibrationMs: out.calMs,
	}
	if err := writeResult(root, rec, out.spans); err != nil {
		logf("write result: %v", err)
		return 1
	}
	printSummary(rec)
	line, err := json.Marshal(out.line)
	if err != nil {
		logf("%v", err)
		return 1
	}
	fmt.Println(string(line))
	if !out.line.Correct {
		return 1
	}
	return 0
}

// resultLine is the last line a run prints.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type outcome struct {
	line  resultLine
	spans []*recorder
	calMs float64 // the drive's median calibration sweep
}

func execute(w *workloadDef, o *options) (*outcome, error) {
	hostCal = w.cal
	if !o.trace {
		return measure(w, o)
	}
	return traceRun(w, o)
}

// measure is an end-to-end run: set up setupReps times (keeping the last
// environment), drive it untraced for the whole run length, and report
// the end-to-end metrics.
func measure(w *workloadDef, o *options) (*outcome, error) {
	// Each set-up time is scaled to reference speed by the calibration
	// sweeps before and after it.
	var setups []float64
	var e env
	before := hostCal.measure()
	for i := 0; i < w.setupReps; i++ {
		start := time.Now()
		next, err := w.setup(o, false)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		took := time.Since(start).Seconds()
		after := hostCal.measure()
		setups = append(setups, took/((before+after)/2/hostCal.ref()))
		before = after
		if i < w.setupReps-1 {
			next.close()
			// Collect the torn-down environment now, so repeating set-up
			// leaves the process as if it had set up once.
			runtime.GC()
		}
		e = next
	}
	rss := watchRSS(rssInterval)
	t := e.drive(deadline(o.seconds), true)
	rssMB := rss.median()
	e.close()
	// Campaign latencies are read at the workload's reference mix of
	// lattice sizes; serve latencies as measured, median over windows.
	// Both are at reference speed.
	pct := func(xs []sample, q float64) float64 {
		if w.mix != nil {
			return mixQuantile(xs, w.mix, q)
		}
		return percentile(xs, t.elapsed, q, t.cals)
	}
	values := map[string]float64{
		"setup_s":           quantile(setups, 0.5),
		"max_rss_mb":        rssMB,
		"subjects_per_s":    subjectsPerS(t),
		"stage_p50_ms":      pct(t.stages, 0.5),
		"stage_p95_ms":      pct(t.stages, 0.95),
		"req_per_s":         reqPerS(t),
		"req_p50_ms":        pct(t.reqs, 0.5),
		"req_p95_ms":        pct(t.reqs, 0.95),
		"tests_per_subject": ratio(float64(t.qTests), float64(t.qSubjects)),
		"accuracy":          ratio(float64(t.qCorrect), float64(t.qSubjects)),
	}
	if t.qSubjects == 0 {
		t.fail(fmt.Errorf("no cohort finished, so quality was not measured"))
	}
	m, err := report(endToEnd, values)
	if err != nil {
		return nil, err
	}
	return &outcome{
		line:  resultLine{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m},
		calMs: calMedian(t.cals),
	}, nil
}

// traceRun drives a fresh untraced environment for the first half of the
// run, then a fresh traced one for the second half, and reports the
// per-layer metrics of the traced half. CPU counters come from the
// untraced half, and the two halves' primary metrics give the tracing
// overhead.
func traceRun(w *workloadDef, o *options) (*outcome, error) {
	half := o.seconds / 2
	phase := func(traced bool) (env, *tally, error) {
		e, err := w.setup(o, traced)
		if err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		return e, e.drive(deadline(half), false), nil
	}
	e, base, err := phase(false)
	if err != nil {
		return nil, err
	}
	e.close()
	e, traced, err := phase(true)
	if err != nil {
		return nil, err
	}
	values := e.layers(traced)
	values["host.calibration_ms"] = calMedian(traced.cals)
	recs := e.recorders()
	e.close()

	cpu := base.cpu.user + base.cpu.sys
	values["proc.cpu_ms_per_op"] = ratio(ms(cpu), float64(base.ranReqs))
	values["proc.sys_share"] = ratio(float64(base.cpu.sys), float64(cpu))
	values["obs.trace_overhead_pct"] = 100 * (1 - ratio(w.primary(traced), w.primary(base)))
	drops := dropped(recs)
	values["obs.spans_dropped"] = float64(drops)
	attempted, failed := base.attempted+traced.attempted, base.failed+traced.failed
	values["error_rate"] = ratio(float64(failed), float64(attempted))
	if drops > 0 {
		logf("%d spans dropped: the span buffer is too small for this run", drops)
	}
	m, err := report(perLayer, values)
	if err != nil {
		return nil, err
	}
	return &outcome{
		line:  resultLine{Correct: failed == 0 && drops == 0, Attempted: attempted, Failed: failed, Metrics: m},
		spans: recs,
		calMs: values["host.calibration_ms"],
	}, nil
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

func deadline(seconds float64) time.Time {
	return time.Now().Add(time.Duration(seconds * float64(time.Second)))
}

// resultFile is what a run leaves in .bench_out/ for the compare step.
type resultFile struct {
	Workload    string      `json:"workload"`
	Seed        uint64      `json:"seed"`
	Seconds     float64     `json:"seconds"`
	Trace       int         `json:"trace"`
	Fingerprint fingerprint `json:"fingerprint"`
	// Regime says where the workload's posterior sits in this host's
	// caches; ns_per_state is measured in that regime.
	Regime    string  `json:"ns_per_state_regime"`
	ErrorRate float64 `json:"error_rate"`
	// CalibrationMs is the median calibration sweep of the measured drive;
	// end-to-end times are scaled by the sweep's reference time over it.
	CalibrationMs float64    `json:"calibration_ms"`
	Result        resultLine `json:"result"`
}

func writeResult(root string, rec resultFile, spans []*recorder) error {
	dir := filepath.Join(root, ".bench_out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	stem := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d", rec.Workload, rec.Seed, rec.Trace))
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(stem+".json", append(b, '\n'), 0o644); err != nil {
		return err
	}
	if len(spans) == 0 {
		return nil
	}
	return writeSpans(stem+".spans.ndjson", spans)
}

// printSummary prints every metric by name with its unit, then the
// error rate and the fingerprint, ahead of the result line.
func printSummary(rec resultFile) {
	names := make([]string, 0, len(rec.Result.Metrics))
	for n := range rec.Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("# %s seed=%d seconds=%g trace=%d\n", rec.Workload, rec.Seed, rec.Seconds, rec.Trace)
	for _, n := range names {
		m := rec.Result.Metrics[n]
		fmt.Printf("%-36s %14.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Printf("# error rate %.6g: %d failed of %d attempted\n", rec.ErrorRate, rec.Result.Failed, rec.Result.Attempted)
	fmt.Printf("# ns_per_state regime: %s\n", rec.Regime)
	fmt.Printf("# calibration sweep: median %.4g ms; end-to-end times are scaled to the reference %.4g ms\n", rec.CalibrationMs, hostCal.ref())
	fp := rec.Fingerprint
	fmt.Printf("# host: %s, nproc=%d, GOMAXPROCS=%d, GOAMD64=%s, %s, checkpoints on %s; git %s, source %.12s\n",
		fp.CPUModel, fp.NProc, fp.GOMAXPROCS, fp.GOAMD64, fp.GoVersion, fp.CkptFS, fp.GitSHA, fp.SourceSHA)
}
