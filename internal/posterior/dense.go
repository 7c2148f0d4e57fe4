package posterior

import (
	"repro/internal/bitvec"
	"repro/internal/dilution"
	"repro/internal/engine"
	"repro/internal/lattice"
)

// Dense adapts the full in-process lattice model to the Model interface.
// Every fallible method simply never fails.
type Dense struct {
	m *lattice.Model
}

// NewDense builds the dense prior backend on the given pool.
func NewDense(pool *engine.Pool, cfg lattice.Config) (*Dense, error) {
	m, err := lattice.New(pool, cfg)
	if err != nil {
		return nil, err
	}
	return &Dense{m: m}, nil
}

// FromLattice wraps an existing dense model.
func FromLattice(m *lattice.Model) *Dense { return &Dense{m: m} }

// Lattice exposes the wrapped dense model for dense-only consumers (the
// look-ahead selector, ablation benches). Callers that need it should
// type-assert for `interface{ Lattice() *lattice.Model }`.
func (d *Dense) Lattice() *lattice.Model { return d.m }

// N returns the cohort size.
func (d *Dense) N() int { return d.m.N() }

// Kind returns KindDense.
func (d *Dense) Kind() Kind { return KindDense }

// Risks returns the prior risk vector (a copy).
func (d *Dense) Risks() []float64 { return d.m.Risks() }

// Response returns the assay model.
func (d *Dense) Response() dilution.Response { return d.m.Response() }

// Tests returns how many outcomes have been absorbed.
func (d *Dense) Tests() int { return d.m.Tests() }

// Update folds one pooled-test outcome into the posterior.
func (d *Dense) Update(pool bitvec.Mask, y dilution.Outcome) error {
	return d.m.Update(pool, y)
}

// Marginals returns each subject's posterior infection probability.
func (d *Dense) Marginals() ([]float64, error) { return d.m.Marginals(), nil }

// NegMasses scores every candidate pool.
func (d *Dense) NegMasses(cands []bitvec.Mask) ([]float64, error) {
	return d.m.NegMasses(cands), nil
}

// PrefixNegMasses returns the nested-prefix clean masses.
func (d *Dense) PrefixNegMasses(order []int) ([]float64, error) {
	return d.m.PrefixNegMasses(order), nil
}

// Entropy returns the posterior entropy in bits.
func (d *Dense) Entropy() (float64, error) { return d.m.Entropy(), nil }

// Summary returns the fused one-pass posterior digest.
func (d *Dense) Summary() (*Summary, error) {
	return d.m.Summary(), nil
}

// Condition collapses subject onto a known status; see Model.Condition.
// The interface transfers ownership on success, so the dense backend uses
// the in-place collapse: the lattice storage is reused rather than
// reallocated, and on rejection (nil, nil) the receiver is untouched.
func (d *Dense) Condition(subject int, positive bool) (Model, error) {
	out := d.m.ConditionInPlace(subject, positive)
	if out == nil {
		return nil, nil
	}
	return FromLattice(out), nil
}

// Snapshot captures the full posterior in state order.
func (d *Dense) Snapshot() (*Snapshot, error) {
	return &Snapshot{
		Kind:     KindDense,
		Risks:    d.m.Risks(),
		Response: d.m.Response(),
		Tests:    d.m.Tests(),
		Dense:    d.m.Posterior().Slice(),
	}, nil
}

// Close is a no-op: the engine pool belongs to the caller.
func (d *Dense) Close() error { return nil }
