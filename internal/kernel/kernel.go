// Package kernel holds the lattice kernels once, for every backend that
// stores a dense shard of the 2^N posterior.
//
// Each function works on one shard: a contiguous run of states starting
// at global index offset, whose masses are data. The state of data[j] is
// offset+j, so kernels recover states from the offset with no lookup
// tables. Scalar kernels return a compensated partial (prob.Accumulator)
// and vector kernels add into a caller-owned out slice; callers merge
// partials in a fixed order. internal/lattice calls the kernels once per
// engine partition and merges in partition order; internal/cluster
// executors call them once per shard (or per fixed-size chunk), and the
// driver merges in executor-rank order. Both backends therefore run the
// same arithmetic and differ only in where the shard boundaries fall.
//
// Apart from PriorOdds, NewRanks and SuffixSums, which run once per
// request on tiny inputs, the kernels do not allocate.
package kernel

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/prob"
)

// PriorOdds validates the per-subject prior risks and returns the odds
// p/(1−p) of each subject and the all-negative mass Π(1−p) — the two
// inputs of Prior. Every risk must lie in (0, 1).
func PriorOdds(risks []float64) (odds []float64, base float64, err error) {
	odds = make([]float64, len(risks))
	logBase := 0.0
	for i, p := range risks {
		if !(p > 0 && p < 1) {
			return nil, 0, fmt.Errorf("risk[%d] = %v outside (0,1)", i, p)
		}
		odds[i] = p / (1 - p)
		logBase += math.Log1p(-p)
	}
	return odds, math.Exp(logBase), nil
}

// Prior fills the shard with the independent-risk product measure
//
//	π(S) = Π_{i∈S} p_i · Π_{i∉S} (1−p_i),
//
// evaluated per state as the odds product Π_{i∈S} odds_i times the
// all-negative mass base (see PriorOdds), at O(|S|) per state.
func Prior(offset uint64, data []float64, odds []float64, base float64) {
	for j := range data {
		w := base
		for v := offset + uint64(j); v != 0; v &= v - 1 {
			w *= odds[bits.TrailingZeros64(v)]
		}
		data[j] = w
	}
}

// UpdateMul reweights every state by lik[|S ∩ pool|] in place and returns
// the partial sum of the new masses — the fused half of a posterior
// update. lik must have popcount(pool)+1 entries.
func UpdateMul(offset uint64, data []float64, pool uint64, lik []float64) prob.Accumulator {
	var acc prob.Accumulator
	for j := range data {
		w := data[j] * lik[bits.OnesCount64((offset+uint64(j))&pool)]
		data[j] = w
		acc.Add(w)
	}
	return acc
}

// Scale multiplies every mass by c.
func Scale(data []float64, c float64) {
	for j := range data {
		data[j] *= c
	}
}

// Mass returns the partial total mass of the shard.
func Mass(data []float64) prob.Accumulator {
	var acc prob.Accumulator
	for _, w := range data {
		acc.Add(w)
	}
	return acc
}

// SumWhere returns the partial mass of the states disjoint from pool: the
// shard's share of P(S ∩ pool = ∅). It sweeps the whole shard; the
// sub-lattice walk (engine.Vector.ReduceSubset) visits only the clean
// states, in the same order, and matches it bit for bit.
func SumWhere(offset uint64, data []float64, pool uint64) prob.Accumulator {
	var acc prob.Accumulator
	for j := range data {
		if (offset+uint64(j))&pool == 0 {
			acc.Add(data[j])
		}
	}
	return acc
}

// Entropy returns the shard's partial Shannon entropy Σ −p·ln p, in nats.
func Entropy(data []float64) prob.Accumulator {
	var acc prob.Accumulator
	for _, p := range data {
		if p > 0 {
			acc.Add(-p * math.Log(p))
		}
	}
	return acc
}

// IntersectDist adds each state's mass to out[|S ∩ pool|]: the shard's
// share of the distribution of infected specimens a pool would capture.
// out must have popcount(pool)+1 entries.
func IntersectDist(offset uint64, data []float64, pool uint64, out []float64) {
	for j, w := range data {
		if w == 0 { //lint:allow floats exact-zero sparsity skip; near-zero mass must still count
			continue
		}
		out[bits.OnesCount64((offset+uint64(j))&pool)] += w
	}
}
