package kernel

import (
	"math"
	"math/bits"

	"repro/internal/bitvec"
	"repro/internal/prob"
)

// Summary is the fused one-pass digest of the posterior: everything a
// session round reads between tests. Computing the statistics together
// costs one sweep of memory traffic instead of the four separate passes
// the individual kernels pay (marginals, entropy, MAP, expected-infected
// — mass rides along for invariant checks). Every backend returns this
// type.
type Summary struct {
	// Marginals is each subject's posterior infection probability.
	Marginals []float64
	// EntropyBits is the Shannon entropy of the posterior in bits.
	EntropyBits float64
	// MAPState is the maximum-a-posteriori state (ties break to the
	// lowest state index) and MAPMass its posterior mass.
	MAPState bitvec.Mask
	MAPMass  float64
	// ExpectedInfected is E[|S|], the expected number of infected.
	ExpectedInfected float64
	// Mass is the total posterior mass (≈1 between updates).
	Mass float64
}

// Partial is one shard's contribution to the fused Summary. The additive
// statistics keep their compensated accumulators so merging them loses
// nothing; entropy is in nats until Merge converts the total to bits.
type Partial struct {
	Marginals               []float64
	Entropy, Expected, Mass prob.Accumulator
	// MAPState/MAPMass is the shard-local argmax (lowest state on ties).
	// MAPOK is false for an empty shard, which has no argmax.
	MAPState uint64
	MAPMass  float64
	MAPOK    bool
}

// Summarize computes the shard's Partial in one pass. marg receives the
// marginal partials and must be zeroed, one entry per subject. The
// marginal component is the radix walk of Marginals; the scalar
// statistics fold into the same loops so the shard is read once.
func Summarize(offset uint64, data []float64, marg []float64) Partial {
	pt := Partial{Marginals: marg, MAPMass: math.Inf(-1), MAPOK: len(data) > 0}
	lo := offset
	head, tail := radixSplit(lo, offset+uint64(len(data)))
	if head >= tail {
		pt.walk(lo, data)
		return pt
	}
	pt.walk(lo, data[:head-lo])
	for b := head; b < tail; b += radixBlock {
		blk := data[b-lo : b-lo+radixBlock]
		highCount := float64(bits.OnesCount64(b >> radixBits))
		var blockSum float64
		for j := range blk {
			w := blk[j]
			pt.Mass.Add(w)
			if w > pt.MAPMass {
				pt.MAPState, pt.MAPMass = b+uint64(j), w
			}
			if w == 0 { //lint:allow floats exact-zero sparsity skip; near-zero mass must still count
				continue
			}
			blockSum += w
			if w > 0 {
				pt.Entropy.Add(-w * math.Log(w))
			}
			pt.Expected.Add(w * (highCount + float64(bits.OnesCount64(uint64(j)))))
			for v := uint64(j); v != 0; v &= v - 1 {
				marg[bits.TrailingZeros64(v)] += w
			}
		}
		if blockSum == 0 { //lint:allow floats exact-zero sparsity skip; near-zero mass must still count
			continue
		}
		for v := b >> radixBits; v != 0; v &= v - 1 {
			marg[radixBits+bits.TrailingZeros64(v)] += blockSum
		}
	}
	pt.walk(tail, data[tail-lo:])
	return pt
}

// walk folds a ragged (non-block-aligned) run of states into the partial
// with the full per-state bit walk.
func (pt *Partial) walk(offset uint64, data []float64) {
	for j := range data {
		w := data[j]
		s := offset + uint64(j)
		pt.Mass.Add(w)
		if w > pt.MAPMass {
			pt.MAPState, pt.MAPMass = s, w
		}
		if w == 0 { //lint:allow floats exact-zero sparsity skip; near-zero mass must still count
			continue
		}
		if w > 0 {
			pt.Entropy.Add(-w * math.Log(w))
		}
		pt.Expected.Add(w * float64(bits.OnesCount64(s)))
		for v := s; v != 0; v &= v - 1 {
			pt.Marginals[bits.TrailingZeros64(v)] += w
		}
	}
}

// Merge combines shard partials, in the given (state-range) order, into
// the digest of a cohort of n subjects: compensated merges for the
// additive statistics and a lowest-state tie-break for the argmax, so the
// result is deterministic. Shards without an argmax are skipped.
func Merge(n int, parts []Partial) *Summary {
	out := &Summary{Marginals: make([]float64, n), MAPMass: math.Inf(-1)}
	margAccs := make([]prob.Accumulator, n)
	var ent, exp, mass prob.Accumulator
	for _, pt := range parts {
		for j, x := range pt.Marginals {
			margAccs[j].Add(x)
		}
		ent.Merge(pt.Entropy)
		exp.Merge(pt.Expected)
		mass.Merge(pt.Mass)
		if pt.MAPOK && (pt.MAPMass > out.MAPMass || (pt.MAPMass == out.MAPMass && pt.MAPState < uint64(out.MAPState))) { //lint:allow floats exact equality is the deterministic argmax tie-break
			out.MAPState, out.MAPMass = bitvec.Mask(pt.MAPState), pt.MAPMass
		}
	}
	for j := range margAccs {
		out.Marginals[j] = margAccs[j].Value()
	}
	out.EntropyBits = ent.Value() / math.Ln2
	out.ExpectedInfected = exp.Value()
	out.Mass = mass.Value()
	return out
}
