package kernel

import (
	"math"
	"math/bits"
	"testing"

	"repro/internal/baseline"
	"repro/internal/bitvec"
	"repro/internal/dilution"
	"repro/internal/prob"
	"repro/internal/rng"
)

// testN is the cohort size of the test lattice: 16384 states, so shards
// cross radix blocks (256 states) and candidate-scan tiles (4096).
const testN = 14

// testResp is dilution-sensitive, so update likelihoods depend on the
// intersect count and not just on whether it is zero.
var testResp = dilution.Hyperbolic{MaxSens: 0.95, Spec: 0.99, D: 0.4}

// shard is one (offset, length) window of the test lattice.
type shard struct{ off, n uint64 }

// edgeShards returns windows whose offsets sit at 0, 1 and 255 modulo the
// radix block and whose lengths straddle the block and tile edges,
// including the empty shard executors hold after conditioning.
func edgeShards() []shard {
	var out []shard
	for _, off := range []uint64{0, 1, 255, 2048, 2049, 2303, 8447} {
		for _, n := range []uint64{0, 1, 255, 256, 257, 4097} {
			out = append(out, shard{off, n})
		}
	}
	return out
}

// coverCuts splits the whole lattice into consecutive shards, ragged and
// empty ones included, the way partitions or executors split it.
var coverCuts = []uint64{0, 0, 1, 256, 257, 513, 768, 769, 4866, 4866, 8963, 1 << testN}

// reference returns the serial baseline model after a few informative
// updates, and a flat copy of its posterior.
func reference(t *testing.T) (*baseline.Model, []float64) {
	t.Helper()
	r := rng.New(77)
	risks := make([]float64, testN)
	for i := range risks {
		risks[i] = 0.03 + 0.4*r.Float64()
	}
	m, err := baseline.New(risks, testResp)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		pm := bitvec.Mask(r.Uint64())&bitvec.Full(testN) | 1
		if err := m.Update(pm, dilution.Positive); err != nil {
			t.Fatal(err)
		}
	}
	return m, flat(m)
}

// sparsePosterior is the reference posterior with every state holding
// subject 2 (scattered exact zeros) or subject 9 (whole aligned zero
// blocks) zeroed, which reaches every sparsity skip.
func sparsePosterior(t *testing.T) []float64 {
	_, post := reference(t)
	for s := range post {
		if s&(1<<2|1<<9) != 0 {
			post[s] = 0
		}
	}
	return post
}

func flat(m *baseline.Model) []float64 {
	post := make([]float64, 1<<testN)
	for s := range post {
		post[s] = m.StateMass(bitvec.Mask(s))
	}
	return post
}

func nearAll(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("%s[%d] = %v, want %v", what, i, got[i], want[i])
		}
	}
}

// forCover runs body on every shard of the cover, in state order.
func forCover(post []float64, body func(off uint64, data []float64)) {
	for i := 1; i < len(coverCuts); i++ {
		body(coverCuts[i-1], post[coverCuts[i-1]:coverCuts[i]])
	}
}

func TestPriorMatchesBaseline(t *testing.T) {
	risks := []float64{0.05, 0.2, 0.1, 0.3, 0.15, 0.08, 0.12, 0.07, 0.4, 0.01, 0.25, 0.33, 0.02, 0.5}
	odds, base, err := PriorOdds(risks)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := baseline.New(risks, testResp)
	if err != nil {
		t.Fatal(err)
	}
	want := flat(ref)
	for _, sh := range edgeShards() {
		data := make([]float64, sh.n)
		Prior(sh.off, data, odds, base)
		for j, w := range data {
			if x := want[sh.off+uint64(j)]; math.Abs(w-x) > 1e-12*x {
				t.Fatalf("shard %+v state %d: prior %v, baseline %v", sh, sh.off+uint64(j), w, x)
			}
		}
	}
	for _, bad := range [][]float64{{0.1, 0}, {1, 0.2}, {math.NaN()}} {
		if _, _, err := PriorOdds(bad); err == nil {
			t.Errorf("PriorOdds(%v) accepted", bad)
		}
	}
}

func TestUpdateMulMatchesBaseline(t *testing.T) {
	m, post := reference(t)
	pool := bitvec.FromIndices(0, 3, 8, 11)
	lik := make([]float64, pool.Count()+1)
	for k := range lik {
		lik[k] = testResp.Likelihood(dilution.Negative, k, pool.Count())
	}
	for _, sh := range edgeShards() {
		data := append([]float64(nil), post[sh.off:sh.off+sh.n]...)
		var want prob.Accumulator
		for j := range data {
			want.Add(data[j] * lik[bits.OnesCount64((sh.off+uint64(j))&uint64(pool))])
		}
		if got := UpdateMul(sh.off, data, uint64(pool), lik); got != want {
			t.Fatalf("shard %+v: partial %v, want %v", sh, got.Value(), want.Value())
		}
		if got := Mass(data); got != want {
			t.Fatalf("shard %+v: mass after update %v, want %v", sh, got.Value(), want.Value())
		}
	}
	// Merged over a cover and normalized, the update is baseline's.
	var total prob.Accumulator
	forCover(post, func(off uint64, data []float64) { total.Merge(UpdateMul(off, data, uint64(pool), lik)) })
	Scale(post, 1/total.Value())
	if err := m.Update(pool, dilution.Negative); err != nil {
		t.Fatal(err)
	}
	nearAll(t, "updated posterior", post, flat(m))
}

func TestCleanMassAndEntropyMatchBaseline(t *testing.T) {
	m, post := reference(t)
	pool := bitvec.FromIndices(1, 4, 9, 13)
	var clean, ent, mass prob.Accumulator
	forCover(post, func(off uint64, data []float64) {
		clean.Merge(SumWhere(off, data, uint64(pool)))
		ent.Merge(Entropy(data))
		mass.Merge(Mass(data))
	})
	nearAll(t, "clean mass", []float64{clean.Value()}, []float64{m.NegMass(pool)})
	nearAll(t, "entropy", []float64{ent.Value() / math.Ln2}, []float64{m.Entropy()})
	nearAll(t, "mass", []float64{mass.Value()}, []float64{1})
}

// TestMarginalsRadixMatchesWalk: the radix decomposition regroups the
// high-bit additions (one blockSum add replaces up to 256 per-state adds),
// so it matches the reference walk to accumulation-order rounding, not bit
// for bit. Every edge shard of the sparse posterior reaches the ragged
// head and tail, the exact-zero skips and the all-zero block skip.
func TestMarginalsRadixMatchesWalk(t *testing.T) {
	post := sparsePosterior(t)
	for _, sh := range edgeShards() {
		data := post[sh.off : sh.off+sh.n]
		radix := make([]float64, testN)
		walk := make([]float64, testN)
		Marginals(sh.off, data, radix)
		MarginalsWalk(sh.off, data, walk)
		nearAll(t, "radix marginal", radix, walk)
	}
	m, post := reference(t)
	marg := make([]float64, testN)
	forCover(post, func(off uint64, data []float64) { Marginals(off, data, marg) })
	nearAll(t, "merged marginals", marg, m.Marginals())
}

// untiledNegMasses is the pre-tiling candidate scan: one full plain sum
// over the shard per candidate.
func untiledNegMasses(offset uint64, data []float64, masks []uint64, out []float64) {
	for c, pm := range masks {
		for j, w := range data {
			if (offset+uint64(j))&pm == 0 {
				out[c] += w
			}
		}
	}
}

// TestNegMassesTiledMatchesUntiled: tiling regroups each candidate's plain
// sum into per-tile partial sums, so it matches the untiled scan to
// accumulation-order rounding. A 4097-state shard spans two tiles plus one
// state; splitting the candidates (as executor workers do) must not change
// any result.
func TestNegMassesTiledMatchesUntiled(t *testing.T) {
	post := sparsePosterior(t)
	r := rng.New(404)
	masks := make([]uint64, 24)
	for i := range masks {
		masks[i] = r.Uint64() & uint64(bitvec.Full(testN))
	}
	masks[0] = 0 // the empty pool is clean everywhere
	for _, sh := range edgeShards() {
		data := post[sh.off : sh.off+sh.n]
		tiled := make([]float64, len(masks))
		untiled := make([]float64, len(masks))
		NegMasses(sh.off, data, masks, tiled)
		untiledNegMasses(sh.off, data, masks, untiled)
		nearAll(t, "tiled clean mass", tiled, untiled)
		split := make([]float64, len(masks))
		NegMasses(sh.off, data, masks[:7], split[:7])
		NegMasses(sh.off, data, masks[7:], split[7:])
		for c := range tiled {
			if split[c] != tiled[c] {
				t.Fatalf("shard %+v cand %d: split scan %v vs %v", sh, c, split[c], tiled[c])
			}
		}
	}
	m, post := reference(t)
	cands := make([]bitvec.Mask, len(masks))
	for i, pm := range masks {
		cands[i] = bitvec.Mask(pm)
	}
	merged := make([]float64, len(masks))
	forCover(post, func(off uint64, data []float64) { NegMasses(off, data, masks, merged) })
	nearAll(t, "merged clean masses", merged, m.NegMasses(cands))
}

func TestPrefixHistMatchesBaseline(t *testing.T) {
	order := []int{9, 3, 12, 0, 5, 7}
	rank, err := NewRanks(order, testN)
	if err != nil {
		t.Fatal(err)
	}
	m, post := reference(t)
	hist := make([]float64, len(order)+1)
	forCover(post, func(off uint64, data []float64) { PrefixHist(off, data, rank, hist) })
	got := SuffixSums(hist)
	want := make([]float64, len(order))
	var prefix bitvec.Mask
	for i, subj := range order {
		prefix = prefix.With(subj)
		want[i] = m.NegMass(prefix)
	}
	nearAll(t, "prefix clean masses", got, want)

	// Per shard, the histogram is the direct min-rank definition.
	post = sparsePosterior(t)
	for _, sh := range edgeShards() {
		data := post[sh.off : sh.off+sh.n]
		got := make([]float64, len(order)+1)
		PrefixHist(sh.off, data, rank, got)
		want := make([]float64, len(order)+1)
		for j, w := range data {
			r := len(order)
			for i, subj := range order {
				if (sh.off+uint64(j))&(1<<uint(subj)) != 0 {
					r = i
					break
				}
			}
			want[r] += w
		}
		nearAll(t, "min-rank histogram", got, want)
	}
}

func TestNewRanksValidation(t *testing.T) {
	for _, bad := range [][]int{nil, {0, 0}, {5}, {-1}, {0, 1, 2, 3, 4}} {
		if _, err := NewRanks(bad, 4); err == nil {
			t.Errorf("NewRanks(%v, 4) accepted", bad)
		}
	}
	rank, err := NewRanks([]int{2, 0}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if want := (Ranks{1, 2, 0, 2}); [4]uint8(rank[:4]) != [4]uint8(want[:4]) {
		t.Fatalf("ranks %v, want %v", rank[:4], want[:4])
	}
}

func TestIntersectDistMatchesDefinition(t *testing.T) {
	post := sparsePosterior(t)
	pool := uint64(bitvec.FromIndices(0, 2, 9, 10, 13))
	for _, sh := range edgeShards() {
		data := post[sh.off : sh.off+sh.n]
		got := make([]float64, bits.OnesCount64(pool)+1)
		IntersectDist(sh.off, data, pool, got)
		want := make([]float64, len(got))
		for j, w := range data {
			want[bits.OnesCount64((sh.off+uint64(j))&pool)] += w
		}
		nearAll(t, "intersect distribution", got, want)
	}
}

// TestSummarizeMatchesKernels: every field of a shard's fused partial
// equals its standalone kernel or direct definition bit for bit, and an
// empty shard has no argmax.
func TestSummarizeMatchesKernels(t *testing.T) {
	post := sparsePosterior(t)
	for _, sh := range edgeShards() {
		data := post[sh.off : sh.off+sh.n]
		pt := Summarize(sh.off, data, make([]float64, testN))
		marg := make([]float64, testN)
		Marginals(sh.off, data, marg)
		for i := range marg {
			if pt.Marginals[i] != marg[i] {
				t.Fatalf("shard %+v: fused marginal[%d] %v vs %v", sh, i, pt.Marginals[i], marg[i])
			}
		}
		if pt.Mass != Mass(data) || pt.Entropy != Entropy(data) {
			t.Fatalf("shard %+v: fused mass/entropy differ from the kernels", sh)
		}
		var exp prob.Accumulator
		state, best := uint64(0), math.Inf(-1)
		for j, w := range data {
			s := sh.off + uint64(j)
			if w != 0 {
				exp.Add(w * float64(bits.OnesCount64(s)))
			}
			if w > best {
				state, best = s, w
			}
		}
		if pt.Expected != exp {
			t.Fatalf("shard %+v: fused E[|S|] %v vs %v", sh, pt.Expected.Value(), exp.Value())
		}
		if pt.MAPOK != (sh.n > 0) {
			t.Fatalf("shard %+v: MAPOK = %v", sh, pt.MAPOK)
		}
		if pt.MAPOK && (pt.MAPState != state || pt.MAPMass != best) {
			t.Fatalf("shard %+v: MAP %d/%v, want %d/%v", sh, pt.MAPState, pt.MAPMass, state, best)
		}
	}
}

// TestMergeMatchesBaseline: merging the partials of a cover that includes
// empty shards gives the whole-lattice digest.
func TestMergeMatchesBaseline(t *testing.T) {
	m, post := reference(t)
	var parts []Partial
	forCover(post, func(off uint64, data []float64) {
		parts = append(parts, Summarize(off, data, make([]float64, testN)))
	})
	sum := Merge(testN, parts)
	nearAll(t, "merged marginals", sum.Marginals, m.Marginals())
	nearAll(t, "merged scalars", []float64{sum.EntropyBits, sum.Mass}, []float64{m.Entropy(), 1})
	state, best := 0, math.Inf(-1)
	for s, w := range post {
		if w > best {
			state, best = s, w
		}
	}
	if sum.MAPState != bitvec.Mask(state) || sum.MAPMass != best {
		t.Fatalf("merged MAP %v/%v, want %v/%v", sum.MAPState, sum.MAPMass, state, best)
	}
	if empty := Merge(testN, []Partial{Summarize(0, nil, make([]float64, testN))}); !math.IsInf(empty.MAPMass, -1) {
		t.Fatalf("merge of an empty shard found an argmax %v", empty.MAPMass)
	}
}
