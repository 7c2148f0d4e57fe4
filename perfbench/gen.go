package main

import (
	"math"

	"repro/internal/bitvec"
	"repro/internal/rng"
)

// Every generated subject's prior risk is a draw from Beta(1, riskB):
// mean 1/(1+riskB) = 5%, with a long right tail — the heterogeneous-risk
// setting of the paper. Risks are clamped into [1e-4, 1−1e-4] so no
// subject enters the lattice already classified.
const riskB = 19

// stratBlock is how many consecutive cohorts share one stratified draw.
const stratBlock = 64

// cohort is one generated input: per-subject prior risks, the infection
// truth realized from them, and the seed of the simulated lab's noise.
// The program only ever sees the risks and the lab's answers.
type cohort struct {
	risks []float64
	truth bitvec.Mask
	lab   uint64
}

// cohortGen yields a deterministic sequence of cohorts from one seed.
// It stratifies each block of stratBlock cohorts: per subject position
// the block's risks cover every stratum of the prior once, and the
// block's cohorts take their number of infected at stratified quantiles
// of each cohort's own count distribution, who is infected then being
// drawn given that number. Every cohort is still an exact draw from
// independent Beta risks and Bernoulli infections, but a run's mix of
// risks and infections — which sets how much work its campaigns are —
// varies far less from seed to seed than with independent draws.
type cohortGen struct {
	src     *rng.Source
	n       int
	pending []cohort
}

func newCohortGen(seed uint64, n int) *cohortGen {
	return &cohortGen{src: rng.New(seed), n: n}
}

func (g *cohortGen) next() cohort {
	if len(g.pending) == 0 {
		g.pending = g.block()
	}
	c := g.pending[0]
	g.pending = g.pending[1:]
	return c
}

// stratum draws uniformly from the perm[i]-th of stratBlock equal
// slices of [0, 1).
func (g *cohortGen) stratum(perm []int, i int) float64 {
	return (float64(perm[i]) + g.src.Float64()) / stratBlock
}

func (g *cohortGen) block() []cohort {
	cs := make([]cohort, stratBlock)
	for i := range cs {
		cs[i] = cohort{risks: make([]float64, g.n), lab: g.src.Uint64()}
	}
	for j := 0; j < g.n; j++ {
		perm := g.src.Perm(stratBlock)
		for i := range cs {
			// Inverse CDF of Beta(1, b): 1 − (1 − u)^(1/b).
			r := 1 - math.Pow(1-g.stratum(perm, i), 1.0/riskB)
			cs[i].risks[j] = math.Min(math.Max(r, 1e-4), 1-1e-4)
		}
	}
	perm := g.src.Perm(stratBlock)
	for i := range cs {
		cs[i].truth = g.infect(cs[i].risks, g.stratum(perm, i))
	}
	return cs
}

// infect draws independent Bernoulli(risks[j]) infections through their
// count: the number infected is the u-quantile of its distribution, and
// who is infected is drawn given that number.
func (g *cohortGen) infect(risks []float64, u float64) bitvec.Mask {
	n := len(risks)
	// tail[j][s] = P(subjects j..n-1 hold exactly s infections).
	tail := make([][]float64, n+1)
	tail[n] = []float64{1}
	for j := n - 1; j >= 0; j-- {
		next := tail[j+1]
		tail[j] = make([]float64, len(next)+1)
		for s, p := range next {
			tail[j][s] += p * (1 - risks[j])
			tail[j][s+1] += p * risks[j]
		}
	}
	k, cum := 0, tail[0][0]
	for cum < u && k < n {
		k++
		cum += tail[0][k]
	}
	var truth bitvec.Mask
	for j := 0; j < n && k > 0; j++ {
		if k >= len(tail[j+1]) || g.src.Float64()*tail[j][k] < risks[j]*tail[j+1][k-1] {
			truth = truth.With(j)
			k--
		}
	}
	return truth
}

// Stream offsets derive independent generators from the run's seed, so
// the measured inputs do not depend on how many set-up repetitions ran.
const (
	streamMeasured = 0
	streamSetup    = 0x9e3779b97f4a7c15
)
