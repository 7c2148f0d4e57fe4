package main

import (
	"time"

	"repro/internal/bitvec"
	"repro/internal/dilution"
	"repro/internal/halving"
	"repro/internal/posterior"
)

// The posterior operations the benchmark attributes time to.
const (
	opUpdate = iota
	opSummary
	opPrefixNegMasses
	opNegMasses
	opMarginals
	opCondition
	numOps
)

var opNames = [numOps]string{"update", "summary", "prefix_neg_masses", "neg_masses", "marginals", "condition"}

// Lattice sizes (in subjects) that split calls into the two regimes the
// per-layer metrics report: ns_per_state over calls on at least 2^16
// states, where the sweep dominates, and fixed_us over calls on at most
// 2^10 states, where per-call overhead does.
const (
	bigLattice   = 16
	smallLattice = 10
)

// opStat accumulates one operation's calls across a traced phase.
type opStat struct {
	calls      int
	busy       time.Duration
	bigBusy    time.Duration
	bigStates  float64
	smallBusy  time.Duration
	smallCalls int
}

type opStats [numOps]opStat

func (s *opStats) add(op, n int, d time.Duration) {
	st := &s[op]
	st.calls++
	st.busy += d
	switch {
	case n >= bigLattice:
		st.bigBusy += d
		st.bigStates += float64(uint64(1) << n)
	case n <= smallLattice:
		st.smallBusy += d
		st.smallCalls++
	}
}

// tracedModel decorates the posterior.Model a campaign hands to
// core.NewSessionOn: each of the six operations records a span and its
// lattice size. Condition re-wraps the model it returns, so the decorator
// survives sequential collapse, and Unwrap keeps backend capability
// probes (posterior.Base) working through it.
type tracedModel struct {
	m   posterior.Model
	rec *recorder
	ops *opStats
}

func (t *tracedModel) observe(op int) func() {
	n := t.m.N()
	mark := t.rec.begin("posterior." + opNames[op])
	start := time.Now()
	return func() {
		d := time.Since(start)
		t.rec.end(mark)
		t.ops.add(op, n, d)
	}
}

func (t *tracedModel) Unwrap() posterior.Model                { return t.m }
func (t *tracedModel) N() int                                 { return t.m.N() }
func (t *tracedModel) Kind() posterior.Kind                   { return t.m.Kind() }
func (t *tracedModel) Risks() []float64                       { return t.m.Risks() }
func (t *tracedModel) Response() dilution.Response            { return t.m.Response() }
func (t *tracedModel) Tests() int                             { return t.m.Tests() }
func (t *tracedModel) Entropy() (float64, error)              { return t.m.Entropy() }
func (t *tracedModel) Snapshot() (*posterior.Snapshot, error) { return t.m.Snapshot() }
func (t *tracedModel) Close() error                           { return t.m.Close() }

func (t *tracedModel) Update(pool bitvec.Mask, y dilution.Outcome) error {
	defer t.observe(opUpdate)()
	return t.m.Update(pool, y)
}

func (t *tracedModel) Summary() (*posterior.Summary, error) {
	defer t.observe(opSummary)()
	return t.m.Summary()
}

func (t *tracedModel) PrefixNegMasses(order []int) ([]float64, error) {
	defer t.observe(opPrefixNegMasses)()
	return t.m.PrefixNegMasses(order)
}

func (t *tracedModel) NegMasses(cands []bitvec.Mask) ([]float64, error) {
	defer t.observe(opNegMasses)()
	return t.m.NegMasses(cands)
}

func (t *tracedModel) Marginals() ([]float64, error) {
	defer t.observe(opMarginals)()
	return t.m.Marginals()
}

func (t *tracedModel) Condition(subject int, positive bool) (posterior.Model, error) {
	done := t.observe(opCondition)
	next, err := t.m.Condition(subject, positive)
	done()
	if next == nil || err != nil {
		return nil, err
	}
	return &tracedModel{m: next, rec: t.rec, ops: t.ops}, nil
}

// tracedStrategy decorates the session's pool-selection strategy with a
// "halving.select" span; the posterior reads it makes are its children.
type tracedStrategy struct {
	s   halving.Strategy
	rec *recorder
}

func (t *tracedStrategy) Next(m halving.Posterior) (bitvec.Mask, error) {
	defer t.rec.end(t.rec.begin("halving.select"))
	return t.s.Next(m)
}

func (t *tracedStrategy) Name() string { return t.s.Name() }
