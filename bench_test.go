// Benchmarks: one testing.B target per evaluation artifact (micro form).
// The full sweeps with printed tables live in cmd/sbgt-bench; these
// targets track the same kernels so `go test -bench=. -benchmem` gives a
// one-command regression check. Mapping (see DESIGN.md §4):
//
//	T1 -> BenchmarkLatticeUpdate{SBGT,Baseline}, BenchmarkMarginals*
//	T2 -> BenchmarkHalvingSelect{SBGT,Baseline}
//	T3 -> BenchmarkStudy{Parallel,Serial}
//	F1 -> BenchmarkStrongScalingW{1,2,4}
//	F3 -> BenchmarkSurveillanceSession
//	F6 -> BenchmarkClusterUpdate
//	A1 -> BenchmarkPartitionGrain{1,16}
//	A2 -> BenchmarkFusionFused (the two-pass arm is `sbgt-bench -exp A2`)
package sbgt_test

import (
	"net"
	"testing"
	"time"

	sbgt "repro"
	"repro/internal/baseline"
	"repro/internal/bitvec"
	"repro/internal/cluster"
	"repro/internal/dilution"
	"repro/internal/engine"
	"repro/internal/halving"
	"repro/internal/lattice"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/workload"
)

// benchN is the lattice size for kernel benchmarks: large enough to
// dominate scheduling overhead, small enough for -bench to stay snappy.
const benchN = 16

var benchResp = dilution.Hyperbolic{MaxSens: 0.97, Spec: 0.99, D: 0.3}

// flatResp is likelihood ½ for every pool composition, so the posterior
// is a fixed point of Update. Long-running update benchmarks must use it:
// with an informative response, thousands of repeated updates concentrate
// the posterior until tail masses go subnormal and denormal arithmetic
// (not the kernel) dominates ns/op.
var flatResp = dilution.Binary{Sens: 0.5, Spec: 0.5}

func benchModel(b *testing.B, workers, parts int, resp dilution.Response) *lattice.Model {
	b.Helper()
	pool := engine.NewPool(workers)
	b.Cleanup(pool.Close)
	m, err := lattice.New(pool, lattice.Config{
		Risks:    workload.UniformRisks(benchN, 0.05),
		Response: resp,
		Parts:    parts,
	})
	if err != nil {
		b.Fatal(err)
	}
	return m
}

func benchBaseline(b *testing.B, resp dilution.Response) *baseline.Model {
	b.Helper()
	m, err := baseline.New(workload.UniformRisks(benchN, 0.05), resp)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

var outcomes = []dilution.Outcome{dilution.Negative, dilution.Positive}

// --- T1: lattice-model manipulation ---------------------------------------

func BenchmarkLatticeUpdateSBGT(b *testing.B) {
	m := benchModel(b, 0, 0, flatResp)
	pm := bitvec.Full(benchN)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Update(pm, outcomes[i%2]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLatticeUpdateBaseline(b *testing.B) {
	m := benchBaseline(b, flatResp)
	pm := bitvec.Full(benchN)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Update(pm, outcomes[i%2]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMarginalsSBGT(b *testing.B) {
	m := benchModel(b, 0, 0, benchResp)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Marginals()
	}
}

func BenchmarkMarginalsBaseline(b *testing.B) {
	m := benchBaseline(b, benchResp)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Marginals()
	}
}

// --- T2: test selection -----------------------------------------------------

func BenchmarkHalvingSelectSBGT(b *testing.B) {
	m := benchModel(b, 0, 0, benchResp)
	if err := m.Update(bitvec.Full(8), dilution.Positive); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		halving.Select(m, halving.Options{MaxPool: 32})
	}
}

func BenchmarkHalvingSelectBaseline(b *testing.B) {
	m := benchBaseline(b, benchResp)
	if err := m.Update(bitvec.Full(8), dilution.Positive); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.SelectHalving(32)
	}
}

// --- T3: statistical analyses ------------------------------------------------

func studyCfg() stats.StudyConfig {
	return stats.StudyConfig{
		RiskGen:    func(*rng.Source) []float64 { return workload.UniformRisks(10, 0.05) },
		Response:   benchResp,
		Replicates: 16,
		Seed:       1,
	}
}

func BenchmarkStudyParallel(b *testing.B) {
	pool := engine.NewPool(0)
	defer pool.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stats.Run(pool, studyCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStudySerial(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := stats.RunSerial(studyCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- F1: strong scaling -------------------------------------------------------

func benchStrongScaling(b *testing.B, workers int) {
	m := benchModel(b, workers, 0, flatResp)
	pm := bitvec.Full(benchN)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Update(pm, outcomes[i%2]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStrongScalingW1(b *testing.B) { benchStrongScaling(b, 1) }
func BenchmarkStrongScalingW2(b *testing.B) { benchStrongScaling(b, 2) }
func BenchmarkStrongScalingW4(b *testing.B) { benchStrongScaling(b, 4) }

// --- F3: one full surveillance session ----------------------------------------

func BenchmarkSurveillanceSession(b *testing.B) {
	eng := sbgt.NewEngine(0)
	defer eng.Close()
	risks := sbgt.UniformRisks(12, 0.05)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := sbgt.NewRand(uint64(i))
		popu := sbgt.DrawPopulation(risks, r)
		oracle := sbgt.NewOracle(popu, benchResp, r)
		sess, err := eng.NewSession(sbgt.Config{Risks: risks, Response: benchResp})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sess.Run(oracle.Test); err != nil {
			b.Fatal(err)
		}
	}
}

// --- F6: distributed kernels ----------------------------------------------------

func BenchmarkClusterUpdate(b *testing.B) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	exec := cluster.NewExecutor(0)
	go func() { _ = exec.Serve(l) }()
	defer func() { l.Close(); exec.Close() }()
	m, err := cluster.Dial([]string{l.Addr().String()},
		workload.UniformRisks(benchN, 0.05), flatResp, 2*time.Second)
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	pm := bitvec.Full(benchN)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Update(pm, outcomes[i%2]); err != nil {
			b.Fatal(err)
		}
	}
}

// --- A1: partition granularity ----------------------------------------------------

func benchPartitionGrain(b *testing.B, partsPerWorker int) {
	pool := engine.NewPool(0)
	defer pool.Close()
	m, err := lattice.New(pool, lattice.Config{
		Risks:    workload.UniformRisks(benchN, 0.05),
		Response: flatResp,
		Parts:    pool.Workers() * partsPerWorker,
	})
	if err != nil {
		b.Fatal(err)
	}
	pm := bitvec.Full(benchN)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Update(pm, outcomes[i%2]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPartitionGrain1(b *testing.B)  { benchPartitionGrain(b, 1) }
func BenchmarkPartitionGrain16(b *testing.B) { benchPartitionGrain(b, 16) }

// --- A2: kernel fusion -----------------------------------------------------------

func BenchmarkFusionFused(b *testing.B) {
	m := benchModel(b, 0, 0, flatResp)
	pm := bitvec.Full(benchN)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Update(pm, outcomes[i%2]); err != nil {
			b.Fatal(err)
		}
	}
}
