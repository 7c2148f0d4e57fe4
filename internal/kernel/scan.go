package kernel

import (
	"fmt"
	"math/bits"

	"repro/internal/prob"
)

// radixBits is the split point of the radix-decomposed marginal walk:
// within one aligned block of 2^radixBits states every state shares its
// high bits, so the block's total mass is added to each shared high bit
// once per block instead of once per state. Per-state bit-walk work drops
// from popcount(s) to popcount(s mod 2^radixBits) ≤ radixBits.
const radixBits = 8

// radixBlock is the aligned block length of the radix marginal walk.
const radixBlock = 1 << radixBits

// negMassesTile is the candidate-scan tile length in states: 4096
// float64s = 32 KiB, sized so one tile stays L1-resident while every
// candidate re-reads it.
const negMassesTile = 1 << 12

// radixSplit returns the aligned block range [head, tail) inside the
// shard's state range [lo, hi); head >= tail when no whole block fits.
func radixSplit(lo, hi uint64) (head, tail uint64) {
	return (lo + radixBlock - 1) &^ uint64(radixBlock-1), hi &^ uint64(radixBlock-1)
}

// MarginalsWalk adds each state's mass onto its set bits, out[i] += π(S)
// for every i ∈ S, with the per-state bit walk. It is the ragged-edge
// helper of Marginals and the reference the radix form is checked against.
func MarginalsWalk(offset uint64, data []float64, out []float64) {
	for j := range data {
		w := data[j]
		if w == 0 { //lint:allow floats exact-zero sparsity skip; near-zero mass must still count
			continue
		}
		for v := offset + uint64(j); v != 0; v &= v - 1 {
			out[bits.TrailingZeros64(v)] += w
		}
	}
}

// Marginals adds the shard's marginal partials into out (one entry per
// subject) with the radix-decomposed walk: aligned 2^radixBits blocks walk
// only each state's low bits and add the block total to the shared high
// bits once per block. Ragged edges (shard boundaries need not be
// block-aligned) take MarginalsWalk. The accumulation order is fixed, so
// results are deterministic; they match MarginalsWalk up to the
// regrouping of the high-bit additions.
func Marginals(offset uint64, data []float64, out []float64) {
	lo := offset
	head, tail := radixSplit(lo, offset+uint64(len(data)))
	if head >= tail {
		MarginalsWalk(offset, data, out)
		return
	}
	MarginalsWalk(lo, data[:head-lo], out)
	for b := head; b < tail; b += radixBlock {
		blk := data[b-lo : b-lo+radixBlock]
		var blockSum float64
		for j := range blk {
			w := blk[j]
			if w == 0 { //lint:allow floats exact-zero sparsity skip; near-zero mass must still count
				continue
			}
			blockSum += w
			for v := uint64(j); v != 0; v &= v - 1 {
				out[bits.TrailingZeros64(v)] += w
			}
		}
		if blockSum == 0 { //lint:allow floats exact-zero sparsity skip; near-zero mass must still count
			continue
		}
		for v := b >> radixBits; v != 0; v &= v - 1 {
			out[radixBits+bits.TrailingZeros64(v)] += blockSum
		}
	}
	MarginalsWalk(tail, data[tail-lo:], out)
}

// NegMasses adds, for every candidate pool masks[c], the shard's clean
// mass P(S ∩ masks[c] = ∅) into out[c] — the halving candidate scan. The
// scan is tiled: the tile loop is outermost and the candidate loop
// re-reads the L1-resident tile, so the shard's memory traffic is paid
// once per tile rather than once per candidate. Each out[c] accumulates
// per-tile partials in fixed tile order, so splitting masks across
// workers leaves every result unchanged.
func NegMasses(offset uint64, data []float64, masks []uint64, out []float64) {
	for t0 := 0; t0 < len(data); t0 += negMassesTile {
		t1 := t0 + negMassesTile
		if t1 > len(data) {
			t1 = len(data)
		}
		tile := data[t0:t1]
		toff := offset + uint64(t0)
		for c, pm := range masks {
			var acc float64
			for j := range tile {
				if (toff+uint64(j))&pm == 0 {
					acc += tile[j]
				}
			}
			out[c] += acc
		}
	}
}

// Ranks maps each subject to its position in a halving order; subjects
// outside the order map to the order length.
type Ranks [64]uint8

// NewRanks validates order against a cohort of n subjects and returns its
// rank table. The order must be non-empty, name each subject at most once
// and stay inside the cohort.
func NewRanks(order []int, n int) (*Ranks, error) {
	k := len(order)
	if k == 0 || k > n {
		return nil, fmt.Errorf("order has %d subjects for cohort of %d", k, n)
	}
	var rank Ranks
	for i := range rank {
		rank[i] = uint8(k)
	}
	for r, subj := range order {
		if subj < 0 || subj >= n {
			return nil, fmt.Errorf("order subject %d outside cohort of %d", subj, n)
		}
		if rank[subj] != uint8(k) {
			return nil, fmt.Errorf("duplicate subject %d in order", subj)
		}
		rank[subj] = uint8(r)
	}
	return &rank, nil
}

// PrefixHist histograms the shard's mass by minimum rank: out[r] gains the
// mass of every state whose lowest-ranked infected subject has rank r, and
// out[k] (k = len(out)−1, the order length) the mass of states disjoint
// from the whole order. SuffixSums turns the merged histogram into the
// clean masses of every nested prefix in one pass over the lattice.
func PrefixHist(offset uint64, data []float64, rank *Ranks, out []float64) {
	k := uint8(len(out) - 1)
	for j, w := range data {
		if w == 0 { //lint:allow floats exact-zero sparsity skip; near-zero mass must still count
			continue
		}
		rmin := k
		for v := offset + uint64(j); v != 0; v &= v - 1 {
			if r := rank[bits.TrailingZeros64(v)]; r < rmin {
				rmin = r
				if rmin == 0 {
					break // rank 0 is the floor; the rest of the walk cannot lower it
				}
			}
		}
		out[rmin] += w
	}
}

// SuffixSums turns a merged min-rank histogram of k+1 slots into the k
// prefix clean masses: neg[i] = Σ_{r > i} hist[r], the mass whose first
// ranked infected subject lies beyond prefix i.
func SuffixSums(hist []float64) []float64 {
	neg := make([]float64, len(hist)-1)
	var acc prob.Accumulator
	for i := len(neg) - 1; i >= 0; i-- {
		acc.Add(hist[i+1])
		neg[i] = acc.Value()
	}
	return neg
}
