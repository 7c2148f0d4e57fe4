// Package lattice implements the Bayesian lattice model for group testing.
//
// For a cohort of N subjects, the classification state space is the Boolean
// lattice 2^N: state S (a bitvec.Mask) means "exactly the subjects in S are
// infected". The model maintains a full posterior distribution over these
// 2^N states, stored as an engine.Vector partitioned across workers — the
// in-process analogue of SBGT's Spark RDD of lattice mass.
//
// The global index of a state in the vector is the state mask itself, so
// kernels recover the state from the partition offset with no lookup
// tables. The per-shard loops live in internal/kernel, shared with the
// cluster executors; this package runs them once per partition and merges
// the partials in partition order. The three SBGT computational kernels
// live here or directly on top:
//
//   - Update: multiply every state's mass by the dilution-aware likelihood
//     of an observed pooled-test outcome and renormalize (fused single pass
//     plus one scale pass),
//   - Marginals / NegMass / NegMasses: the reductions that drive
//     classification and the halving test-selection scan,
//   - Condition: collapse a classified subject out of the lattice, halving
//     the state space (how sequential surveillance keeps the model small).
package lattice

import (
	"fmt"
	"math"

	"repro/internal/bitvec"
	"repro/internal/dilution"
	"repro/internal/engine"
	"repro/internal/kernel"
	"repro/internal/prob"
)

// MaxSubjects bounds the cohort size of one lattice model. 2^30 states of
// float64 is 8 GiB; anything past that needs the cluster runtime, and the
// index arithmetic below assumes the full lattice fits a uint64 count.
const MaxSubjects = 30

// Config configures a lattice model.
type Config struct {
	// Risks holds each subject's prior infection probability. Its length
	// sets the cohort size N. Every entry must lie in (0, 1): risk 0 or 1
	// is a classified subject and should not enter the lattice.
	Risks []float64
	// Response is the test-response model used by Update. Required.
	Response dilution.Response
	// Parts is the partition count for the posterior vector; <= 0 selects
	// the engine default (4 per worker).
	Parts int
}

// Model is a Bayesian lattice model over 2^N infection states. Methods
// that read or write the posterior are not safe for concurrent use with
// each other; the parallelism is inside each operation.
type Model struct {
	n     int
	risks []float64
	resp  dilution.Response
	post  *engine.Vector
	tests int // pooled tests absorbed so far (diagnostics)
}

// New builds the prior lattice model on the given pool.
//
// The prior is the independent-risk product measure
//
//	π(S) = Π_{i∈S} p_i · Π_{i∉S} (1−p_i),
//
// evaluated per state as the odds product Π_{i∈S} p_i/(1−p_i) times the
// all-negative constant, which costs O(|S|) per state instead of O(N).
func New(pool *engine.Pool, cfg Config) (*Model, error) {
	n := len(cfg.Risks)
	if n == 0 {
		return nil, fmt.Errorf("lattice: empty cohort")
	}
	if n > MaxSubjects {
		return nil, fmt.Errorf("lattice: cohort size %d exceeds max %d (use the cluster runtime)", n, MaxSubjects)
	}
	if cfg.Response == nil {
		return nil, fmt.Errorf("lattice: nil response model")
	}
	odds, base, err := kernel.PriorOdds(cfg.Risks)
	if err != nil {
		return nil, fmt.Errorf("lattice: %w", err)
	}
	m := &Model{
		n:     n,
		risks: append([]float64(nil), cfg.Risks...),
		resp:  cfg.Response,
		post:  engine.NewVector(pool, uint64(1)<<uint(n), cfg.Parts),
	}
	m.post.ForPartitions(func(_ int, offset uint64, data []float64) {
		kernel.Prior(offset, data, odds, base)
	})
	// The product measure sums to 1 analytically; normalize anyway to wash
	// out rounding so downstream invariant checks can be strict.
	if total := m.post.Normalize(); !(total > 0) {
		return nil, fmt.Errorf("lattice: degenerate prior (total %v)", total)
	}
	return m, nil
}

// N returns the number of unclassified subjects in the lattice.
func (m *Model) N() int { return m.n }

// States returns the number of lattice states, 2^N.
func (m *Model) States() uint64 { return m.post.Len() }

// Tests returns how many pooled-test outcomes have been absorbed.
func (m *Model) Tests() int { return m.tests }

// Response returns the test-response model updates use.
func (m *Model) Response() dilution.Response { return m.resp }

// Risks returns the prior risk vector (a copy).
func (m *Model) Risks() []float64 { return append([]float64(nil), m.risks...) }

// Posterior exposes the partitioned posterior for engine-level consumers
// (the halving scan and the cluster runtime). Callers must not mutate it.
func (m *Model) Posterior() *engine.Vector { return m.post }

// StateMass returns the posterior mass of one lattice state.
func (m *Model) StateMass(s bitvec.Mask) float64 { return m.post.At(uint64(s)) }

// Update folds one observed pooled-test outcome into the posterior:
// every state S is reweighted by the likelihood of outcome y for a pool
// with k = |S ∩ pool| infected among |pool| specimens, then the lattice is
// renormalized. The likelihood depends on the state only through k, so it
// is precomputed into a (|pool|+1)-entry table and the reweighting is a
// single fused multiply-and-accumulate pass over every partition.
//
// Update returns an error if the pool is empty, references subjects outside
// the cohort, or the outcome has zero likelihood under every state (which
// would zero the lattice).
func (m *Model) Update(pool bitvec.Mask, y dilution.Outcome) error {
	if pool == 0 {
		return fmt.Errorf("lattice: empty pool")
	}
	if !pool.SubsetOf(bitvec.Full(m.n)) {
		return fmt.Errorf("lattice: pool %v outside cohort of %d", pool, m.n)
	}
	size := pool.Count()
	lik := make([]float64, size+1)
	for k := 0; k <= size; k++ {
		l := m.resp.Likelihood(y, k, size)
		if l < 0 || math.IsNaN(l) {
			return fmt.Errorf("lattice: response %q returned invalid likelihood %v at k=%d n=%d", m.resp.Name(), l, k, size)
		}
		lik[k] = l
	}
	total := m.post.ReduceSum(func(_ int, offset uint64, data []float64) prob.Accumulator {
		return kernel.UpdateMul(offset, data, uint64(pool), lik)
	})
	if !(total > 0) || math.IsInf(total, 0) {
		return fmt.Errorf("lattice: outcome %v on pool %v has zero total likelihood (total %v)", y, pool, total)
	}
	m.post.Scale(1 / total)
	m.tests++
	return nil
}

// Restore rebuilds a model from a previously captured posterior (state
// order, length 2^len(cfg.Risks)) and test counter — the checkpointing
// hook used by internal/latticeio. The posterior is renormalized on load
// so a checkpoint written mid-update cannot smuggle in an unnormalized
// lattice.
func Restore(pool *engine.Pool, cfg Config, posterior []float64, tests int) (*Model, error) {
	m, err := New(pool, cfg)
	if err != nil {
		return nil, err
	}
	if uint64(len(posterior)) != m.post.Len() {
		return nil, fmt.Errorf("lattice: posterior has %d states, cohort of %d needs %d",
			len(posterior), m.n, m.post.Len())
	}
	for _, w := range posterior {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("lattice: invalid posterior mass %v", w)
		}
	}
	m.post.ForPartitions(func(_ int, offset uint64, data []float64) {
		copy(data, posterior[offset:])
	})
	if total := m.post.Normalize(); !(total > 0) {
		return nil, fmt.Errorf("lattice: restored posterior has zero mass")
	}
	if tests < 0 {
		return nil, fmt.Errorf("lattice: negative test count %d", tests)
	}
	m.tests = tests
	return m, nil
}

// Clone returns an independent copy of the model (posterior deep-copied,
// same pool). Look-ahead selection evaluates hypothetical outcomes on
// clones.
func (m *Model) Clone() *Model {
	return &Model{
		n:     m.n,
		risks: append([]float64(nil), m.risks...),
		resp:  m.resp,
		post:  m.post.Clone(),
		tests: m.tests,
	}
}
