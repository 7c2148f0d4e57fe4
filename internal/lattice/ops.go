package lattice

import (
	"math"
	"math/bits"

	"repro/internal/bitvec"
	"repro/internal/dilution"
	"repro/internal/engine"
	"repro/internal/kernel"
	"repro/internal/prob"
)

// Marginals returns each subject's posterior infection probability,
// P(i infected | data) = Σ_{S ∋ i} π(S), computed for all N subjects in a
// single parallel ReduceVec pass with the radix-decomposed bit walk.
func (m *Model) Marginals() []float64 {
	return m.post.ReduceVec(m.n, func(_ int, offset uint64, data []float64, out []float64) {
		kernel.Marginals(offset, data, out)
	})
}

// NegMass returns P(S ∩ pool = ∅ | data): the posterior mass of the up-set
// of states in which the pool would contain no infected specimen. This is
// the quantity the Bayesian Halving Algorithm drives to ½.
//
// The clean states form the 2^(N−g) sub-lattice of subsets of ^pool, so
// the kernel enumerates only that sub-lattice via
// engine.Vector.ReduceSubset. The walk matches the dense sweep
// (kernel.SumWhere) bit for bit and is faster from g = 1 on; see
// BenchmarkNegMassCrossover.
func (m *Model) NegMass(pool bitvec.Mask) float64 {
	return m.post.ReduceSubset(0, uint64(bitvec.Full(m.n))&^uint64(pool))
}

// NegMasses evaluates NegMass for every candidate pool in one parallel
// sweep over the partitions — the SBGT test-selection scan. Within a
// partition the scan is tiled (see kernel.NegMasses): a 32 KiB tile stays
// L1-resident across all candidates, so a partition larger than L2 is no
// longer streamed from memory once per candidate — the batching win over
// the baseline's C full-vector passes, made cache-oblivious to the
// candidate count.
func (m *Model) NegMasses(cands []bitvec.Mask) []float64 {
	if len(cands) == 0 {
		return nil
	}
	masks := make([]uint64, len(cands))
	for i, c := range cands {
		masks[i] = uint64(c)
	}
	return m.post.ReduceVec(len(cands), func(_ int, offset uint64, data []float64, out []float64) {
		kernel.NegMasses(offset, data, masks, out)
	})
}

// PrefixNegMasses returns the clean-pool masses of every nested prefix of
// the given subject ordering: element i is P(S ∩ {order[0..i]} = ∅ | data).
//
// The prefixes are nested, so one lattice pass suffices: a state is clean
// for prefix i exactly when the minimum order-rank among its infected
// subjects exceeds i. The pass histograms posterior mass by that minimum
// rank; suffix sums of the histogram are the prefix masses. This replaces
// the len(order) separate scans a direct implementation needs and is the
// algorithmic core of SBGT's fast test selection. Subjects may appear in
// order at most once; duplicates panic.
func (m *Model) PrefixNegMasses(order []int) []float64 {
	if len(order) == 0 {
		return nil
	}
	rank, err := kernel.NewRanks(order, m.n)
	if err != nil {
		panic("lattice: " + err.Error())
	}
	return kernel.SuffixSums(m.post.ReduceVec(len(order)+1, func(_ int, offset uint64, data []float64, out []float64) {
		kernel.PrefixHist(offset, data, rank, out)
	}))
}

// IntersectDist returns the posterior distribution of k = |S ∩ pool|, the
// number of infected specimens the pool would capture: element k holds
// P(|S ∩ pool| = k | data) for k in [0, |pool|].
//
// Unlike NegMass, the distribution's support is the whole lattice (every
// state contributes to some slot), so there is no sub-lattice to restrict
// the pass to; it stays a single full sweep. Its dominant consumer,
// Predictive, no longer routes through it: flat-tail responses collapse
// to one clean-sub-lattice query and general responses fold the
// likelihood table inline (see Predictive), so this materialized form is
// for callers that need the full distribution.
func (m *Model) IntersectDist(pool bitvec.Mask) []float64 {
	return m.post.ReduceVec(pool.Count()+1, func(_ int, offset uint64, data []float64, out []float64) {
		kernel.IntersectDist(offset, data, uint64(pool), out)
	})
}

// Predictive returns the probability of observing outcome y on the given
// pool under the current posterior and the model's response:
// P(y | data) = Σ_k P(y | k, |pool|) · P(|S ∩ pool| = k | data).
//
// When the likelihood table is flat for k ≥ 1 — the response cannot tell
// one infected specimen from many, as with the Binary and Ideal assay
// models — the sum telescopes to lik₀·P(k=0) + lik₁·(1 − P(k=0)), and
// P(k=0) is a clean-sub-lattice query: the whole predictive costs one
// 2^(N−g) walk instead of a 2^N pass. Dilution-sensitive responses take
// a single fused pass that folds the likelihood table over the intersect
// count inline, replacing the former IntersectDist + dot-product pair.
func (m *Model) Predictive(pool bitvec.Mask, y dilution.Outcome) float64 {
	size := pool.Count()
	lik := make([]float64, size+1)
	for k := 0; k <= size; k++ {
		lik[k] = m.resp.Likelihood(y, k, size)
	}
	pm := uint64(pool)
	if size >= 1 { // lik[1] exists only for a non-empty pool
		flat := true
		for k := 2; k <= size; k++ {
			if lik[k] != lik[1] { //lint:allow floats detects an exactly count-independent likelihood table, not a numeric tolerance test
				flat = false
				break
			}
		}
		if flat {
			nm := m.NegMass(pool)
			return lik[0]*nm + lik[1]*(1-nm)
		}
	}
	return m.post.ReduceSum(func(_ int, offset uint64, data []float64) prob.Accumulator {
		var acc prob.Accumulator
		for j := range data {
			if w := data[j]; w != 0 { //lint:allow floats exact-zero sparsity skip; near-zero mass must still count
				acc.Add(w * lik[bits.OnesCount64((offset+uint64(j))&pm)])
			}
		}
		return acc
	})
}

// Entropy returns the Shannon entropy of the posterior in bits: the
// residual classification uncertainty. An ideal halving test removes one
// bit per update.
func (m *Model) Entropy() float64 {
	nats := m.post.ReduceSum(func(_ int, _ uint64, data []float64) prob.Accumulator {
		return kernel.Entropy(data)
	})
	return nats / math.Ln2
}

// MAP returns the maximum-a-posteriori lattice state and its mass. Ties
// resolve to the lowest state index, deterministically.
func (m *Model) MAP() (bitvec.Mask, float64) {
	type best struct {
		state uint64
		mass  float64
	}
	parts := make([]best, m.post.Parts())
	m.post.ForPartitions(func(p int, offset uint64, data []float64) {
		b := best{mass: math.Inf(-1)}
		for j := range data {
			if data[j] > b.mass {
				b = best{state: offset + uint64(j), mass: data[j]}
			}
		}
		parts[p] = b
	})
	top := best{mass: math.Inf(-1)}
	for _, b := range parts {
		if b.mass > top.mass || (b.mass == top.mass && b.state < top.state) { //lint:allow floats exact equality is the deterministic argmax tie-break
			top = b
		}
	}
	return bitvec.Mask(top.state), top.mass
}

// Mass returns the total posterior mass (≈1 between updates; exposed for
// invariant checks and tests).
func (m *Model) Mass() float64 { return m.post.Sum() }

// ExpectedInfected returns E[|S|], the posterior expected number of
// infected subjects, in one pass.
func (m *Model) ExpectedInfected() float64 {
	return m.post.ReduceSum(func(_ int, offset uint64, data []float64) prob.Accumulator {
		var acc prob.Accumulator
		for j := range data {
			if w := data[j]; w != 0 { //lint:allow floats exact-zero sparsity skip; near-zero mass must still count
				acc.Add(w * float64(bits.OnesCount64(offset+uint64(j))))
			}
		}
		return acc
	})
}

// Condition collapses subject onto a known status and returns the reduced
// model over the remaining N−1 subjects:
//
//	π'(S') ∝ π(embed(S'))  where embed re-inserts the subject's bit.
//
// Conditioning renormalizes, so the caller should have classified the
// subject at high posterior confidence first. The receiver is unchanged.
// It returns nil if the conditioning event has zero posterior mass or the
// model has only one subject left (conditioning would empty the lattice).
func (m *Model) Condition(subject int, positive bool) *Model {
	if subject < 0 || subject >= m.n || m.n <= 1 {
		return nil
	}
	nn := m.n - 1
	low := uint64(1)<<uint(subject) - 1 // bits below the removed subject
	bit := uint64(1) << uint(subject)
	out := &Model{
		n:     nn,
		risks: make([]float64, 0, nn),
		resp:  m.resp,
		post:  m.postLike(uint64(1) << uint(nn)),
		tests: m.tests,
	}
	out.risks = append(out.risks, m.risks[:subject]...)
	out.risks = append(out.risks, m.risks[subject+1:]...)
	src := m.post
	out.post.ForPartitions(func(_ int, offset uint64, data []float64) {
		for j := range data {
			sp := offset + uint64(j)
			old := (sp & low) | ((sp &^ low) << 1)
			if positive {
				old |= bit
			}
			data[j] = src.At(old)
		}
	})
	if total := out.post.Normalize(); !(total > 0) {
		return nil
	}
	return out
}

// ConditionInPlace is the zero-allocation form of Condition: it collapses
// subject onto a known status inside the receiver's own backing array and
// returns the receiver, now a model over the remaining N−1 subjects. The
// surviving states sit at indices old(s') ≥ s' (dropping a bit never
// decreases the packed index), so the collapse is a forward monotone
// gather and ShrinkGather can reuse the storage with no copy-out.
//
// Like Condition it returns nil when the event has zero posterior mass or
// only one subject remains — but because the gather destroys the old
// contents, the event mass is preflighted with an exact sub-lattice
// reduction first, so on nil the receiver is untouched and still usable
// (core.Session relies on that to retry the complementary event).
func (m *Model) ConditionInPlace(subject int, positive bool) *Model {
	if subject < 0 || subject >= m.n || m.n <= 1 {
		return nil
	}
	low := uint64(1)<<uint(subject) - 1 // bits below the removed subject
	bit := uint64(1) << uint(subject)
	var base uint64
	if positive {
		base = bit
	}
	// Preflight: the surviving states form the sub-lattice {base | f : f ⊆
	// ^bit}, so their mass is one ReduceSubset away. Rejecting here keeps
	// the receiver intact.
	if mass := m.post.ReduceSubset(base, uint64(bitvec.Full(m.n))&^bit); !(mass > 0) {
		return nil
	}
	nn := m.n - 1
	m.post.ShrinkGather(uint64(1)<<uint(nn), m.post.Parts(), func(dst, src []float64) {
		for sp := range dst {
			spp := uint64(sp)
			dst[sp] = src[(spp&low)|((spp&^low)<<1)|base]
		}
	})
	m.post.Normalize()
	m.risks = append(m.risks[:subject], m.risks[subject+1:]...)
	m.n = nn
	return m
}

// postLike allocates a posterior vector of the given length on the same
// pool, keeping the partition count roughly matched to the parent.
func (m *Model) postLike(n uint64) *engine.Vector {
	parts := m.post.Parts()
	if uint64(parts) > n {
		parts = int(n)
	}
	return engine.NewVector(m.post.Pool(), n, parts)
}
