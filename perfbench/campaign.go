package main

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dilution"
	"repro/internal/engine"
	"repro/internal/halving"
	"repro/internal/obs"
	"repro/internal/posterior"
	"repro/internal/rng"
	"repro/internal/workload"
)

// binaryAssay is the campaigns' simulated lab: 97% sensitive, 99.5%
// specific, no dilution effect.
var binaryAssay = dilution.Binary{Sens: 0.97, Spec: 0.995}

// maxStages is core's default MaxStages. Only Session.Run enforces it;
// the propose/absorb loop a service runs does not, so the benchmark
// checks that every campaign classifies everyone within it.
const maxStages = 64

// campaign-cluster's executors: started once per set-up on loopback,
// one kernel worker each, dialed afresh by every campaign.
const (
	clusterExecutors = 2
	clusterWorkers   = 1
)

// Reference mixes for the campaign latency percentiles, per mille of
// requests by group: the request that opens a campaign, then stages by
// how many subjects are still unclassified when they start. They are the
// mixes six seeds of 20 s each showed when the benchmark was defined.
// Stage time doubles with every subject, and a run's own mix depends on
// the cohorts its seed draws; read at its own mix, the stage median moved
// by a third from seed to seed. At a fixed mix only the latencies count.
var (
	denseMix   = []float64{154, 20, 11, 10, 12, 14, 20, 25, 36, 32, 42, 43, 47, 44, 55, 63, 75, 69, 48, 23, 157}
	clusterMix = []float64{165, 21, 10, 9, 12, 18, 25, 26, 35, 37, 44, 54, 64, 65, 73, 76, 64, 30, 169}
)

// campaignWorkload runs seeded cohorts one after another from one
// goroutine, each driven to classification through ProposePools and
// AbsorbResults.
type campaignWorkload struct {
	kind posterior.Kind
	n    int
	// cohorts is how many seed-defined cohorts one round runs.
	cohorts int
}

type campaignEnv struct {
	w    campaignWorkload
	seed uint64
	pool *engine.Pool
	stop func()
	spec posterior.Spec
	tr   *campaignTrace // nil when untraced
}

// campaignTrace is the traced run's instrumentation: the registry the
// engine pool and cluster driver report into, the span recorder, and the
// decorators' counters.
type campaignTrace struct {
	reg    *obs.Registry
	before *obs.Snapshot
	rec    *recorder
	ops    opStats
	sel    *tracedStrategy
	open   time.Duration
	opens  int
	phases core.StageTiming // summed over stages
	stages int
}

func (w campaignWorkload) setup(o *options, traced bool) (env, error) {
	e := &campaignEnv{w: w, seed: o.seed, spec: posterior.Spec{Kind: w.kind}}
	var reg *obs.Registry
	if traced {
		reg = obs.NewRegistry()
		rec := newRecorder(time.Now())
		// The explicit strategy is core's default (halving, MaxPool 32),
		// wrapped so selection shows as its own span.
		e.tr = &campaignTrace{reg: reg, rec: rec, sel: &tracedStrategy{
			s: halving.Halving{Opts: halving.Options{MaxPool: 32}}, rec: rec,
		}}
	}
	if w.kind == posterior.KindCluster {
		addrs, stop, err := cluster.StartLocalObs(clusterExecutors, clusterWorkers, reg)
		if err != nil {
			return nil, fmt.Errorf("start executors: %w", err)
		}
		e.stop = stop
		e.spec.Addrs = addrs
		e.spec.Obs = reg
	} else {
		e.pool = engine.NewPool(0)
		e.pool.Instrument(reg)
	}
	// Warm-up: build one prior and propose its first pools, so first-touch
	// page faults and connection set-up are paid here, in setup_s, and not
	// by the first measured campaign.
	if err := e.warm(newCohortGen(o.seed+streamSetup, w.n).next()); err != nil {
		e.close()
		return nil, fmt.Errorf("warm-up campaign: %w", err)
	}
	if traced {
		e.tr.before = reg.Snapshot()
	}
	return e, nil
}

func (e *campaignEnv) warm(c cohort) error {
	model, err := e.spec.Open(e.pool, c.risks, binaryAssay)
	if err != nil {
		return err
	}
	sess, err := core.NewSessionOn(model, core.Config{})
	if err != nil {
		return errors.Join(err, model.Close())
	}
	defer sess.Close()
	_, err = sess.ProposePools()
	return err
}

func (e *campaignEnv) close() {
	if e.pool != nil {
		e.pool.Close()
	}
	if e.stop != nil {
		e.stop()
	}
}

func (e *campaignEnv) recorders() []*recorder {
	if e.tr == nil {
		return nil
	}
	return []*recorder{e.tr.rec}
}

// campaignOut is one finished campaign. Times are in ms.
type campaignOut struct {
	tests, correct int
	calls          []core.Classification
	total          float64  // open to the last stage
	first          float64  // open + first ProposePools
	stages         []sample // AbsorbResults + the following ProposePools
}

// run drives one cohort to classification; group tags its spans.
func (e *campaignEnv) run(c cohort, group int64) (*campaignOut, error) {
	var rec *recorder
	if e.tr != nil {
		rec = e.tr.rec
		rec.group = group
	}
	defer rec.end(rec.begin("campaign"))

	start := time.Now()
	mark := rec.begin("open")
	model, err := e.spec.Open(e.pool, c.risks, binaryAssay)
	if err != nil {
		return nil, fmt.Errorf("open prior: %w", err)
	}
	var cfg core.Config
	if e.tr != nil {
		model = &tracedModel{m: model, rec: rec, ops: &e.tr.ops}
		cfg.Strategy = e.tr.sel
	}
	sess, err := core.NewSessionOn(model, cfg)
	rec.end(mark)
	if err != nil {
		return nil, fmt.Errorf("new session: %w", errors.Join(err, model.Close()))
	}
	defer sess.Close()
	if e.tr != nil {
		e.tr.open += time.Since(start)
		e.tr.opens++
	}
	mark = rec.begin("propose")
	pools, err := sess.ProposePools()
	rec.end(mark)
	if err != nil {
		return nil, fmt.Errorf("first proposal: %w", err)
	}
	out := &campaignOut{first: ms(time.Since(start))}

	lab := workload.NewOracle(workload.Population{Risks: c.risks, Truth: c.truth}, binaryAssay, rng.New(c.lab))
	for pools != nil {
		if pools[0].Stage > maxStages {
			return nil, fmt.Errorf("subjects still unclassified after %d stages", maxStages)
		}
		results := make([]core.TestResult, len(pools))
		for i, p := range pools {
			results[i] = core.TestResult{Stage: p.Stage, Index: p.Index, Outcome: lab.Test(p.Pool)}
		}
		n := sess.Remaining()
		t0 := time.Now()
		stage := rec.begin("stage")
		mark := rec.begin("absorb")
		err := sess.AbsorbResults(results)
		rec.end(mark)
		if err == nil {
			rec.begin("propose")
			pools, err = sess.ProposePools()
		}
		rec.end(stage)
		out.stages = append(out.stages, sample{val: ms(time.Since(t0)), group: n})
		if err != nil {
			return nil, fmt.Errorf("stage %d: %w", len(out.stages), err)
		}
	}
	out.total = ms(time.Since(start))

	res := sess.Result()
	for _, cl := range res.Classifications {
		if cl.Status == core.StatusUnknown || cl.Forced {
			return nil, fmt.Errorf("subject %d left %s (forced=%v)", cl.Subject, cl.Status, cl.Forced)
		}
		if (cl.Status == core.StatusPositive) == c.truth.Has(cl.Subject) {
			out.correct++
		}
	}
	out.tests = res.Tests
	out.calls = res.Classifications
	if e.tr != nil {
		for _, st := range res.StageTimings {
			e.tr.phases.Select += st.Select
			e.tr.phases.Update += st.Update
			e.tr.phases.Classify += st.Classify
		}
		e.tr.stages += len(res.StageTimings)
	}
	return out, nil
}

// cohortRuns is every run of one cohort: the first, which later runs must
// repeat exactly, and each run's times in ms at reference speed.
type cohortRuns struct {
	first  *campaignOut
	total  []float64
	open   []float64
	stages [][]float64 // by stage, over runs
}

func (r *cohortRuns) check(out *campaignOut) error {
	if r.first == nil {
		r.first = out
		r.stages = make([][]float64, len(out.stages))
		return nil
	}
	if out.tests != r.first.tests || len(out.stages) != len(r.first.stages) || !slices.Equal(out.calls, r.first.calls) {
		return fmt.Errorf("repeat diverged: %d tests in %d stages, first run %d in %d",
			out.tests, len(out.stages), r.first.tests, len(r.first.stages))
	}
	return nil
}

// add records one run's times, divided by the host's slowdown while it ran.
func (r *cohortRuns) add(out *campaignOut, slow float64) {
	r.total = append(r.total, out.total/slow)
	r.open = append(r.open, out.first/slow)
	for j, s := range out.stages {
		r.stages[j] = append(r.stages[j], s.val/slow)
	}
}

// calPad widens the span a campaign's slowdown is read over, so it rests
// on the few calibration sweeps on either side of the campaign.
const calPad = 250 * time.Millisecond

// drive runs the seed's cohorts in rounds until the deadline; every round
// runs the same cohorts in the same order. A full run always completes the
// first round, which defines tests_per_subject and accuracy, so both are a
// pure function of the seed. Every later run of a cohort must repeat its
// first exactly: the same tests and the same calls.
//
// A calibration sweep runs before every campaign (see calibrate.go), and
// each campaign's times are scaled to reference speed by the sweeps around
// it. A cohort's campaign and stage times are then the minimum over its
// runs, which leaves out a stall of the host or of the scheduler that the
// sweeps missed.
func (e *campaignEnv) drive(until time.Time, full bool) *tally {
	gen := newCohortGen(e.seed+streamMeasured, e.w.n)
	cohorts := make([]cohort, e.w.cohorts)
	for i := range cohorts {
		cohorts[i] = gen.next()
	}
	type ran struct {
		i      int
		lo, hi time.Duration
		out    *campaignOut
	}
	var order []ran
	runs := make([]cohortRuns, len(cohorts))
	t := &tally{}
	cpu0 := processCPU()
	start := time.Now()
	t.cals = append(t.cals, calSample{0, hostCal.measure()})
rounds:
	for r := 0; ; r++ {
		for i, c := range cohorts {
			if (r > 0 || !full) && !time.Now().Before(until) {
				break rounds
			}
			t.attempted++
			lo := time.Since(start)
			out, err := e.run(c, int64(r*len(cohorts)+i))
			hi := time.Since(start)
			t.cals = append(t.cals, calSample{time.Since(start), hostCal.measure()})
			if err == nil {
				err = runs[i].check(out)
			}
			if err != nil {
				t.fail(fmt.Errorf("cohort %d, round %d: %w", i, r, err))
				continue
			}
			order = append(order, ran{i, lo, hi, out})
			t.ranStages += len(out.stages)
			t.ranReqs += 1 + len(out.stages)
			if r == 0 {
				t.qSubjects += len(c.risks)
				t.qTests += out.tests
				t.qCorrect += out.correct
			}
		}
	}
	t.elapsed = time.Since(start)
	t.cpu = processCPU().sub(cpu0)

	for _, o := range order {
		runs[o.i].add(o.out, slowdown(t.cals, o.lo-calPad, o.hi+calPad))
	}
	var subjects, reqs int
	var total float64
	for i, r := range runs {
		if r.first == nil {
			continue
		}
		subjects += len(cohorts[i].risks)
		reqs += 1 + len(r.stages)
		total += slices.Min(r.total)
		t.reqs = append(t.reqs, sample{val: slices.Min(r.open), group: groupOpen})
		for j, xs := range r.stages {
			s := sample{val: slices.Min(xs), group: r.first.stages[j].group}
			t.stages = append(t.stages, s)
			t.reqs = append(t.reqs, s)
		}
	}
	t.subjectsPerS = ratio(float64(subjects), total/1e3)
	t.reqPerS = ratio(float64(reqs), total/1e3)
	return t
}

func (e *campaignEnv) layers(t *tally) map[string]float64 {
	v := zeroLayers()
	tr := e.tr
	stages := float64(t.ranStages)
	var small time.Duration
	var smallCalls int
	for op, name := range opNames {
		st := tr.ops[op]
		p := "posterior." + name
		v[p+".calls"] = float64(st.calls)
		v[p+".busy_s"] = st.busy.Seconds()
		v[p+".ns_per_state"] = ratio(float64(st.bigBusy), st.bigStates)
		v[p+".fixed_us"] = ratio(float64(st.smallBusy)/1e3, float64(st.smallCalls))
		small += st.smallBusy
		smallCalls += st.smallCalls
	}
	v["posterior.open_ms"] = ratio(ms(tr.open), float64(tr.opens))

	spans := aggregate(e.recorders())
	if a := spans["halving.select"]; a != nil {
		v["halving.select.calls"] = float64(a.count)
		v["halving.select.self_ms"] = ratio(ms(a.self), float64(a.count))
	}
	v["core.kernel_share"] = kernelShare(e.recorders())
	v["core.select_ms"] = ratio(ms(tr.phases.Select), float64(tr.stages))
	v["core.update_ms"] = ratio(ms(tr.phases.Update), float64(tr.stages))
	v["core.classify_ms"] = ratio(ms(tr.phases.Classify), float64(tr.stages))

	d := regDelta{tr.before, tr.reg.Snapshot()}
	engineLayers(v, d, stages)
	if e.w.kind == posterior.KindCluster {
		calls, busy := d.hist("sbgt_cluster_rpc_seconds")
		v["cluster.rpc.calls_per_stage"] = ratio(calls, stages)
		v["cluster.rpc.busy_s"] = busy
		v["cluster.bytes_per_stage"] = ratio(d.counter("sbgt_cluster_bytes_sent_total")+d.counter("sbgt_cluster_bytes_recv_total"), stages)
		// On a lattice of at most 2^10 states the shards are tiny, so a
		// posterior call's wall time is the fan-out's fixed cost.
		v["cluster.rpc.fixed_us"] = ratio(float64(small)/1e3, float64(smallCalls))
	}
	return v
}

// engineLayers fills the engine pool's per-stage work and waiting from
// the registry Pool.Instrument reports into.
func engineLayers(v map[string]float64, d regDelta, stages float64) {
	v["engine.tasks_per_stage"] = ratio(d.counter("sbgt_engine_pool_tasks_total"), stages)
	waits, wait := d.hist("sbgt_engine_pool_submit_wait_seconds")
	v["engine.submit_wait_ms"] = ratio(wait*1e3, waits)
	_, busy := d.hist("sbgt_engine_pool_task_seconds")
	v["engine.task_busy_s"] = busy
}
