package lattice

import (
	"math"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/dilution"
	"repro/internal/kernel"
	"repro/internal/prob"
	"repro/internal/rng"
)

// randomPosterior builds a model with a non-trivial posterior: random
// risks, a few absorbed outcomes, and (optionally) exact zeros punched
// into the lattice to exercise the sparsity-skip paths.
func randomPosterior(t *testing.T, r *rng.Source, n int, zeros bool) *Model {
	t.Helper()
	pool := newTestPool(t)
	risks := make([]float64, n)
	for i := range risks {
		risks[i] = 0.02 + 0.5*r.Float64()
	}
	m := mustNew(t, pool, Config{Risks: risks, Response: dilution.Binary{Sens: 0.93, Spec: 0.98}, Parts: 1 + r.Intn(7)})
	for round := 0; round < 3; round++ {
		pm := bitvec.Mask(r.Uint64()) & bitvec.Full(n)
		if pm == 0 {
			pm = bitvec.FromIndices(r.Intn(n))
		}
		y := dilution.Negative
		if r.Bernoulli(0.5) {
			y = dilution.Positive
		}
		if err := m.Update(pm, y); err != nil {
			t.Fatal(err)
		}
	}
	if zeros {
		// Punch exact zeros into random states (and whole aligned blocks, so
		// the radix kernel's blockSum==0 skip is reached for n >= 9).
		post := m.Posterior()
		for k := 0; k < 1<<uint(n-2); k++ {
			post.Set(uint64(r.Intn(1<<uint(n))), 0)
		}
		if n > 8 {
			base := (uint64(r.Intn(1<<uint(n))) >> 8) << 8
			for s := base; s < base+256; s++ {
				post.Set(s, 0)
			}
		}
	}
	return m
}

// TestNegMassSubLatticeBitForBit: the masked sub-lattice walk must equal
// the dense filtered scan (kernel.SumWhere per partition) exactly — both
// enumerate the clean states in increasing index order through the same
// per-partition accumulators.
func TestNegMassSubLatticeBitForBit(t *testing.T) {
	r := rng.New(101)
	for trial := 0; trial < 30; trial++ {
		n := 5 + r.Intn(7)
		m := randomPosterior(t, r, n, trial%3 == 0)
		for probe := 0; probe < 8; probe++ {
			pm := bitvec.Mask(r.Uint64()) & bitvec.Full(n)
			if pm == 0 {
				continue
			}
			got := m.NegMass(pm)
			want := m.Posterior().ReduceSum(func(_ int, offset uint64, data []float64) prob.Accumulator {
				return kernel.SumWhere(offset, data, uint64(pm))
			})
			if got != want {
				t.Fatalf("trial %d pool %v: sub-lattice %v vs dense %v", trial, pm, got, want)
			}
		}
	}
}

// TestSummaryBitForBit: every Summary field must equal its standalone
// kernel exactly — the fused pass reuses the same per-partition loops,
// accumulators, and rank-ordered merges, so no tolerance is needed.
func TestSummaryBitForBit(t *testing.T) {
	r := rng.New(202)
	for trial := 0; trial < 20; trial++ {
		n := 5 + r.Intn(7)
		m := randomPosterior(t, r, n, trial%2 == 0)
		sum := m.Summary()
		marg := m.Marginals()
		for i := range marg {
			if sum.Marginals[i] != marg[i] {
				t.Fatalf("trial %d: fused marginal[%d] %v vs %v", trial, i, sum.Marginals[i], marg[i])
			}
		}
		if h := m.Entropy(); sum.EntropyBits != h {
			t.Fatalf("trial %d: fused entropy %v vs %v", trial, sum.EntropyBits, h)
		}
		if st, mass := m.MAP(); sum.MAPState != st || sum.MAPMass != mass {
			t.Fatalf("trial %d: fused MAP %v/%v vs %v/%v", trial, sum.MAPState, sum.MAPMass, st, mass)
		}
		if e := m.ExpectedInfected(); sum.ExpectedInfected != e {
			t.Fatalf("trial %d: fused E[|S|] %v vs %v", trial, sum.ExpectedInfected, e)
		}
		if tot := m.Mass(); sum.Mass != tot {
			t.Fatalf("trial %d: fused mass %v vs %v", trial, sum.Mass, tot)
		}
	}
}

// TestMarginalsRadixMatchesWalk: the radix decomposition regroups the
// high-bit additions (one blockSum add replaces up to 256 per-state
// adds), so results match the reference walk to accumulation-order
// rounding — each marginal is a sum of <= 2^12 non-negative terms <= 1
// here, bounding the drift far below 1e-12 — not bit-for-bit. Exact-zero
// states and whole zeroed blocks (the sparsity skips) are exercised.
func TestMarginalsRadixMatchesWalk(t *testing.T) {
	r := rng.New(303)
	for trial := 0; trial < 20; trial++ {
		n := 6 + r.Intn(6) // up to 4096 states; n > 8 crosses block alignment
		m := randomPosterior(t, r, n, true)
		radix := m.Marginals()
		walk := m.Posterior().ReduceVec(n, func(_ int, offset uint64, data []float64, out []float64) {
			kernel.MarginalsWalk(offset, data, out)
		})
		for i := range walk {
			if math.Abs(radix[i]-walk[i]) > 1e-12 {
				t.Fatalf("trial %d: radix marginal[%d] %v vs walk %v", trial, i, radix[i], walk[i])
			}
		}
	}
}

// untiledNegMasses is the pre-tiling candidate scan: the candidate loop is
// outermost and re-reads the whole partition with one plain sum per
// candidate.
func untiledNegMasses(offset uint64, data []float64, cands []bitvec.Mask, out []float64) {
	for c, pm := range cands {
		var acc float64
		for j := range data {
			if (offset+uint64(j))&uint64(pm) == 0 {
				acc += data[j]
			}
		}
		out[c] = acc
	}
}

// TestNegMassesTiledMatchesUntiled: tiling regroups each candidate's
// plain partition sum into per-tile partial sums, so results match to
// accumulation-order rounding (sums of non-negative terms totalling <= 1;
// drift bounded well below 1e-12), not bit-for-bit. Partitions both
// smaller and larger than the 4096-state tile are covered.
func TestNegMassesTiledMatchesUntiled(t *testing.T) {
	r := rng.New(404)
	for _, n := range []int{8, 13, 14} { // 14: a single partition spans > 2 tiles
		m := randomPosterior(t, r, n, false)
		cands := make([]bitvec.Mask, 0, 24)
		for i := 0; i < 24; i++ {
			pm := bitvec.Mask(r.Uint64()) & bitvec.Full(n)
			if pm == 0 {
				pm = bitvec.FromIndices(i % n)
			}
			cands = append(cands, pm)
		}
		tiled := m.NegMasses(cands)
		flat := m.Posterior().ReduceVec(len(cands), func(_ int, offset uint64, data []float64, out []float64) {
			untiledNegMasses(offset, data, cands, out)
		})
		for c := range cands {
			if math.Abs(tiled[c]-flat[c]) > 1e-12 {
				t.Fatalf("n=%d cand %d: tiled %v vs untiled %v", n, c, tiled[c], flat[c])
			}
		}
	}
}

// TestPredictiveMatchesDefinition checks both Predictive paths — the
// flat-tail sub-lattice shortcut (count-independent likelihood tables)
// and the fused general pass — against the direct IntersectDist dot
// product.
func TestPredictiveMatchesDefinition(t *testing.T) {
	r := rng.New(505)
	responses := []dilution.Response{
		dilution.Binary{Sens: 0.9, Spec: 0.97},                 // flat tail
		dilution.Ideal{},                                       // flat tail, exact 0/1
		dilution.Hyperbolic{MaxSens: 0.95, Spec: 0.99, D: 0.4}, // dilution-dependent
	}
	for trial := 0; trial < 18; trial++ {
		n := 5 + r.Intn(6)
		pool := newTestPool(t)
		resp := responses[trial%len(responses)]
		m := mustNew(t, pool, Config{Risks: uniformRisks(n, 0.05+0.2*r.Float64()), Response: resp})
		if err := m.Update(bitvec.Full(n), dilution.Positive); err != nil {
			t.Fatal(err)
		}
		for probe := 0; probe < 6; probe++ {
			pm := bitvec.Mask(r.Uint64()) & bitvec.Full(n)
			if pm == 0 {
				continue
			}
			for _, y := range []dilution.Outcome{dilution.Negative, dilution.Positive} {
				got := m.Predictive(pm, y)
				dist := m.IntersectDist(pm)
				want := 0.0
				for k, w := range dist {
					want += w * resp.Likelihood(y, k, pm.Count())
				}
				if math.Abs(got-want) > 1e-12 {
					t.Fatalf("trial %d pool %v y=%v: predictive %v vs dot %v", trial, pm, y, got, want)
				}
			}
		}
	}
}

// TestConditionInPlaceMatchesCondition: the in-place collapse must agree
// with the allocating path state-for-state, and a zero-mass rejection
// must leave the receiver untouched and usable.
func TestConditionInPlaceMatchesCondition(t *testing.T) {
	r := rng.New(606)
	for trial := 0; trial < 20; trial++ {
		n := 4 + r.Intn(7)
		m := randomPosterior(t, r, n, false)
		subject := r.Intn(n)
		positive := r.Bernoulli(0.5)
		want := m.Condition(subject, positive) // allocating reference; receiver unchanged
		got := m.ConditionInPlace(subject, positive)
		if (want == nil) != (got == nil) {
			t.Fatalf("trial %d: in-place nil=%v, reference nil=%v", trial, got == nil, want == nil)
		}
		if want == nil {
			continue
		}
		if got != m {
			t.Fatalf("trial %d: in-place did not return the receiver", trial)
		}
		if got.N() != want.N() || got.States() != want.States() {
			t.Fatalf("trial %d: shape %d/%d vs %d/%d", trial, got.N(), got.States(), want.N(), want.States())
		}
		for s := uint64(0); s < got.States(); s++ {
			if g, w := got.StateMass(bitvec.Mask(s)), want.StateMass(bitvec.Mask(s)); g != w {
				t.Fatalf("trial %d: state %d mass %v vs %v", trial, s, g, w)
			}
		}
		gr, wr := got.Risks(), want.Risks()
		for i := range wr {
			if gr[i] != wr[i] {
				t.Fatalf("trial %d: risk[%d] %v vs %v", trial, i, gr[i], wr[i])
			}
		}
	}
}

// TestConditionInPlaceZeroMassRejection: conditioning on an impossible
// event must return nil and leave the receiver intact (core.Session
// retries the complementary event on the same model).
func TestConditionInPlaceZeroMassRejection(t *testing.T) {
	pool := newTestPool(t)
	m := mustNew(t, pool, Config{Risks: uniformRisks(4, 0.2), Response: dilution.Ideal{}})
	// An ideal negative test on subject 0 makes "subject 0 infected" a
	// zero-mass event.
	if err := m.Update(bitvec.FromIndices(0), dilution.Negative); err != nil {
		t.Fatal(err)
	}
	before := m.Marginals()
	if got := m.ConditionInPlace(0, true); got != nil {
		t.Fatal("zero-mass event did not reject")
	}
	if m.N() != 4 || m.States() != 16 {
		t.Fatalf("receiver shape changed: N=%d states=%d", m.N(), m.States())
	}
	after := m.Marginals()
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("receiver marginal[%d] changed: %v vs %v", i, before[i], after[i])
		}
	}
	// The complementary event must still work on the same receiver.
	if got := m.ConditionInPlace(0, false); got == nil {
		t.Fatal("complementary event rejected")
	}
	if m.N() != 3 {
		t.Fatalf("N=%d after complementary collapse", m.N())
	}
}
