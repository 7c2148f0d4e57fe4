package main

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/bench"
	"repro/internal/bitvec"
	"repro/internal/dilution"
	"repro/internal/halving"
	"repro/internal/kernel"
	"repro/internal/lattice"
	"repro/internal/prob"
	"repro/internal/workload"
)

// runA1 sweeps partition granularity: too few partitions starve dynamic
// load balancing, too many drown in scheduling.
func runA1(c *ctx) error {
	n := 20
	if c.quick {
		n = 16
	}
	pool := c.newPool(c.workers)
	defer pool.Close()
	risks := workload.UniformRisks(n, 0.05)
	pm := updatePool(n)
	tab := bench.NewTable(fmt.Sprintf("A1: partition granularity, N=%d, %d workers", n, c.workers),
		"parts/worker", "partitions", "update", "vs-default")
	var def float64
	for _, ppw := range []int{1, 2, 4, 8, 16} {
		m, err := lattice.New(pool, lattice.Config{Risks: risks, Response: benchResponse, Parts: c.workers * ppw})
		if err != nil {
			return err
		}
		outcomes := []dilution.Outcome{dilution.Negative, dilution.Positive}
		i := 0
		t := bench.Measure(c.reps(), 1, func() {
			if err := m.Update(pm, outcomes[i%2]); err != nil {
				panic(err)
			}
			i++
		})
		if ppw == 4 { // engine default
			def = float64(t.Mean)
		}
		ratio := "-"
		if def > 0 {
			ratio = fmt.Sprintf("%.2fx", float64(t.Mean)/def)
		}
		tab.AddRow(ppw, c.workers*ppw, t.Mean, ratio)
	}
	return c.emit(tab)
}

// runA2 compares the fused update (multiply+sum one pass, scale pass) with
// the unfused two-pass variant (multiply pass, then sum+scale), which
// runs on a clone so the two arms do not share a posterior.
func runA2(c *ctx) error {
	pool := c.newPool(c.workers)
	defer pool.Close()
	tab := bench.NewTable("A2: kernel fusion in the posterior update",
		"N", "two-pass", "fused", "speedup")
	for _, n := range c.sizes() {
		risks := workload.UniformRisks(n, 0.05)
		m, err := lattice.New(pool, lattice.Config{Risks: risks, Response: benchResponse})
		if err != nil {
			return err
		}
		pm := updatePool(n)
		outcomes := []dilution.Outcome{dilution.Negative, dilution.Positive}
		i := 0
		tFused := bench.Measure(c.reps(), 1, func() {
			if err := m.Update(pm, outcomes[i%2]); err != nil {
				panic(err)
			}
			i++
		})
		two := m.Clone()
		j := 0
		tTwo := bench.Measure(c.reps(), 1, func() {
			updateTwoPass(two, pm, outcomes[j%2])
			j++
		})
		tab.AddRow(n, tTwo.Mean, tFused.Mean, bench.Speedup(tTwo.Mean, tFused.Mean))
	}
	return c.emit(tab)
}

// updateTwoPass is A2's unfused reference arm: a multiply-only pass over
// the partitions, then the engine's separate sum and scale passes.
func updateTwoPass(m *lattice.Model, pool bitvec.Mask, y dilution.Outcome) {
	size := pool.Count()
	lik := make([]float64, size+1)
	for k := range lik {
		lik[k] = m.Response().Likelihood(y, k, size)
	}
	post := m.Posterior()
	post.ForPartitions(func(_ int, offset uint64, data []float64) {
		for j := range data {
			data[j] *= lik[bits.OnesCount64((offset+uint64(j))&uint64(pool))]
		}
	})
	if total := post.Normalize(); !(total > 0) {
		panic(fmt.Sprintf("A2: zero-likelihood outcome (total %v)", total))
	}
}

// runA3 compares halving candidate sets: prefix-only vs prefix plus
// local search, reporting both cost and split quality on a correlated
// posterior.
func runA3(c *ctx) error {
	n := 16
	if c.quick {
		n = 12
	}
	pool := c.newPool(c.workers)
	defer pool.Close()
	risks := workload.UniformRisks(n, 0.08)
	m, err := lattice.New(pool, lattice.Config{Risks: risks, Response: benchResponse})
	if err != nil {
		return err
	}
	// Correlate the posterior with a few pooled outcomes.
	for i, y := range []dilution.Outcome{dilution.Positive, dilution.Negative, dilution.Positive} {
		pm := updatePool(n - i*3)
		if err := m.Update(pm, y); err != nil {
			return err
		}
	}
	tab := bench.NewTable(fmt.Sprintf("A3: halving candidate set, N=%d", n),
		"candidates", "time", "scanned", "|negmass-0.5|")
	for _, arm := range []struct {
		name string
		opts halving.Options
	}{
		{"prefix", halving.Options{MaxPool: 32}},
		{"prefix+local-search", halving.Options{MaxPool: 32, LocalSearch: true}},
	} {
		var sel halving.Selection
		t := bench.Measure(c.reps(), 1, func() {
			sel = halving.Select(m, arm.opts)
		})
		tab.AddRow(arm.name, t.Mean, sel.Scanned, math.Abs(sel.NegMass-0.5))
	}
	return c.emit(tab)
}

// spreadPool returns a g-subject pool whose members are spread evenly
// across the cohort — the representative case for the sub-lattice walk
// (neither the contiguous-prefix best case nor the low-bits worst case).
func spreadPool(n, g int) bitvec.Mask {
	var pm bitvec.Mask
	for i := 0; i < g; i++ {
		pm = pm.With(i * n / g)
	}
	return pm
}

// candidatePools returns k distinct candidate pools of mixed sizes, the
// shape of a halving local-search scan.
func candidatePools(n, k int) []bitvec.Mask {
	out := make([]bitvec.Mask, 0, k)
	for i := 0; i < k; i++ {
		g := 2 + i%7
		if g > n {
			g = n
		}
		pm := spreadPool(n, g)
		// Rotate so candidates differ; stay inside the cohort.
		out = append(out, bitvec.Mask(uint64(pm)<<uint(i%3)|uint64(pm)>>uint(n-i%3))&bitvec.Full(n))
	}
	return out
}

// runA5 ablates the structure-aware kernels: each row pits a reference
// form, built from internal/kernel functions over the model's partitions,
// against the shipped kernel on the same posterior. NegMass compares the
// dense filtered scan (kernel.SumWhere) with the masked sub-lattice walk;
// Marginals compares the per-state bit walk (kernel.MarginalsWalk) with
// the radix-decomposed blocks; NegMasses compares a candidate-outer full
// rescan (kernel.NegMasses one candidate at a time) with the cache-tiled
// scan of all candidates; Summary compares the four separate
// full-lattice passes a session round used to make with the fused digest.
func runA5(c *ctx) error {
	pool := c.newPool(c.workers)
	defer pool.Close()
	sizes := []int{14, 20, 24}
	if c.quick {
		sizes = []int{12, 14, 16}
	}
	tab := bench.NewTable("A5: structure-aware kernels (reference vs shipped)",
		"kernel", "N", "pool", "old", "new", "speedup")
	for _, n := range sizes {
		risks := workload.UniformRisks(n, 0.05)
		m, err := lattice.New(pool, lattice.Config{Risks: risks, Response: benchResponse})
		if err != nil {
			return err
		}
		if err := m.Update(updatePool(n), dilution.Positive); err != nil {
			return err
		}
		post := m.Posterior()
		for _, g := range []int{2, 4, 8} {
			pm := uint64(spreadPool(n, g))
			tOld := bench.Measure(c.reps(), 1, func() {
				post.ReduceSum(func(_ int, offset uint64, data []float64) prob.Accumulator {
					return kernel.SumWhere(offset, data, pm)
				})
			})
			tNew := bench.Measure(c.reps(), 1, func() { m.NegMass(bitvec.Mask(pm)) })
			tab.AddRow("NegMass", n, g, tOld.Mean, tNew.Mean, bench.Speedup(tOld.Mean, tNew.Mean))
		}
		tOld := bench.Measure(c.reps(), 1, func() {
			post.ReduceVec(n, func(_ int, offset uint64, data []float64, out []float64) {
				kernel.MarginalsWalk(offset, data, out)
			})
		})
		tNew := bench.Measure(c.reps(), 1, func() { m.Marginals() })
		tab.AddRow("Marginals", n, "-", tOld.Mean, tNew.Mean, bench.Speedup(tOld.Mean, tNew.Mean))
		cands := candidatePools(n, 32)
		masks := make([]uint64, len(cands))
		for i, cand := range cands {
			masks[i] = uint64(cand)
		}
		tOld = bench.Measure(c.reps(), 1, func() {
			post.ReduceVec(len(masks), func(_ int, offset uint64, data []float64, out []float64) {
				for i := range masks {
					kernel.NegMasses(offset, data, masks[i:i+1], out[i:i+1])
				}
			})
		})
		tNew = bench.Measure(c.reps(), 1, func() { m.NegMasses(cands) })
		tab.AddRow("NegMasses", n, len(cands), tOld.Mean, tNew.Mean, bench.Speedup(tOld.Mean, tNew.Mean))
		tOld = bench.Measure(c.reps(), 1, func() {
			m.Marginals()
			m.Entropy()
			m.MAP()
			m.ExpectedInfected()
			m.Mass()
		})
		tNew = bench.Measure(c.reps(), 1, func() { m.Summary() })
		tab.AddRow("Summary", n, "-", tOld.Mean, tNew.Mean, bench.Speedup(tOld.Mean, tNew.Mean))
	}
	return c.emit(tab)
}
