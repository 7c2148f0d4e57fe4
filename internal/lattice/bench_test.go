package lattice

import (
	"fmt"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/dilution"
	"repro/internal/engine"
	"repro/internal/kernel"
	"repro/internal/prob"
)

// flatResp has likelihood ½ everywhere, keeping the posterior a fixed
// point across thousands of benchmark updates (an informative response
// would concentrate it into denormal-range tails and measure denormal
// arithmetic instead of the kernel).
var flatResp = dilution.Binary{Sens: 0.5, Spec: 0.5}

func benchLattice(b *testing.B, n int, resp dilution.Response) *Model {
	b.Helper()
	pool := engine.NewPool(0)
	b.Cleanup(pool.Close)
	risks := make([]float64, n)
	for i := range risks {
		risks[i] = 0.05
	}
	m, err := New(pool, Config{Risks: risks, Response: resp})
	if err != nil {
		b.Fatal(err)
	}
	return m
}

func BenchmarkUpdateBySize(b *testing.B) {
	for _, n := range []int{12, 16, 20} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			m := benchLattice(b, n, flatResp)
			pm := bitvec.Full(min(n, 16))
			ys := []dilution.Outcome{dilution.Negative, dilution.Positive}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := m.Update(pm, ys[i%2]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkMarginals(b *testing.B) {
	m := benchLattice(b, 18, flatResp)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Marginals()
	}
}

// BenchmarkSelectionScan compares the one-pass prefix scan against the
// equivalent batched per-candidate scan — the per-core heart of the T2
// speedup.
func BenchmarkSelectionScan(b *testing.B) {
	m := benchLattice(b, 18, flatResp)
	order := make([]int, 18)
	for i := range order {
		order[i] = i
	}
	cands := make([]bitvec.Mask, 18)
	var prefix bitvec.Mask
	for i := range cands {
		prefix = prefix.With(i)
		cands[i] = prefix
	}
	b.Run("prefix-histogram", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m.PrefixNegMasses(order)
		}
	})
	b.Run("per-candidate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m.NegMasses(cands)
		}
	})
}

func BenchmarkIntersectDist(b *testing.B) {
	m := benchLattice(b, 18, flatResp)
	pm := bitvec.Full(12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.IntersectDist(pm)
	}
}

func BenchmarkCondition(b *testing.B) {
	m := benchLattice(b, 16, flatResp)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c := m.Condition(3, false); c == nil {
			b.Fatal("condition failed")
		}
	}
}

// BenchmarkConditionInPlace measures the reuse path against the
// allocating Condition above: the collapse gathers inside the receiver's
// own backing array, so the 2^N vector (and model) allocation disappears.
// Each collapse shrinks the model, so rebuild when it runs out.
func BenchmarkConditionInPlace(b *testing.B) {
	m := benchLattice(b, 16, flatResp)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m.N() <= 2 {
			b.StopTimer()
			m = benchLattice(b, 16, flatResp)
			b.StartTimer()
		}
		if c := m.ConditionInPlace(0, false); c == nil {
			b.Fatal("condition failed")
		}
	}
}

// BenchmarkNegMassCrossover sweeps pool size × N for the dense filtered
// scan (kernel.SumWhere per partition) and the sub-lattice walk NegMass
// takes. The walk visits 2^(N−g) states but strided, the dense sweep
// visits 2^N contiguously; on the reference hardware the walk wins from
// g = 1, which is why NegMass has no dense fallback.
func BenchmarkNegMassCrossover(b *testing.B) {
	for _, n := range []int{14, 18, 20} {
		m := benchLattice(b, n, flatResp)
		for _, g := range []int{1, 2, 3, 4, 6, 8} {
			// Spread pool: representative stride pattern (neither the
			// contiguous high-bits best case nor the unit-stride worst).
			var pm bitvec.Mask
			for i := 0; i < g; i++ {
				pm = pm.With(i * n / g)
			}
			b.Run(fmt.Sprintf("N=%d/pool=%d/dense", n, g), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					m.Posterior().ReduceSum(func(_ int, offset uint64, data []float64) prob.Accumulator {
						return kernel.SumWhere(offset, data, uint64(pm))
					})
				}
			})
			b.Run(fmt.Sprintf("N=%d/pool=%d/sublattice", n, g), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					m.NegMass(pm)
				}
			})
		}
	}
}

// BenchmarkNegMassesTiling sweeps candidate-count × N for the untiled
// reference scan (untiledNegMasses per partition) and the tiled NegMasses.
func BenchmarkNegMassesTiling(b *testing.B) {
	for _, n := range []int{14, 18, 20} {
		m := benchLattice(b, n, flatResp)
		for _, k := range []int{2, 8, 32} {
			cands := make([]bitvec.Mask, k)
			var prefix bitvec.Mask
			for i := range cands {
				prefix = prefix.With(i % n)
				cands[i] = prefix | bitvec.FromIndices((i*7)%n)
			}
			b.Run(fmt.Sprintf("N=%d/cands=%d/untiled", n, k), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					m.Posterior().ReduceVec(k, func(_ int, offset uint64, data []float64, out []float64) {
						untiledNegMasses(offset, data, cands, out)
					})
				}
			})
			b.Run(fmt.Sprintf("N=%d/cands=%d/tiled", n, k), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					m.NegMasses(cands)
				}
			})
		}
	}
}

// BenchmarkSummary compares the fused digest with the four separate
// passes it replaces per session round.
func BenchmarkSummary(b *testing.B) {
	m := benchLattice(b, 18, flatResp)
	b.Run("separate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m.Marginals()
			m.Entropy()
			m.MAP()
			m.ExpectedInfected()
			m.Mass()
		}
	})
	b.Run("fused", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m.Summary()
		}
	})
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
