package posterior_test

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/bitvec"
	"repro/internal/cluster"
	"repro/internal/dilution"
	"repro/internal/engine"
	"repro/internal/lattice"
	"repro/internal/posterior"
	"repro/internal/rng"
	"repro/internal/sparse"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/")

// goldenPath pins the exact bits every kernel produced when the golden
// file was generated. Any change to a loop shape, accumulator, or merge
// order shows up here as a changed line, so refactors of the kernels must
// leave this file untouched.
const goldenPath = "testdata/kernels.golden"

// goldenN is the cohort size of the pinned script: 8192 states cross the
// 256-state radix blocks and the 4096-state candidate-scan tile, and
// neither 5 partitions nor 3 executors split the lattice on a block edge.
const goldenN = 13

// goldenStep is one pre-drawn step of the pinned script. The whole script
// is drawn up front from one seed so every backend replays the same calls.
type goldenStep struct {
	condition bool // collapse subject onto positive before the update
	subject   int
	positive  bool
	pool      bitvec.Mask
	y         dilution.Outcome
	cands     []bitvec.Mask
	order     []int
}

func goldenScript() ([]float64, []goldenStep) {
	r := rng.New(20231017)
	risks := make([]float64, goldenN)
	for i := range risks {
		risks[i] = 0.03 + 0.3*r.Float64()
	}
	randPool := func(n int) bitvec.Mask {
		pm := bitvec.Mask(r.Uint64()) & bitvec.Full(n)
		if pm == 0 {
			pm = bitvec.FromIndices(r.Intn(n))
		}
		return pm
	}
	var steps []goldenStep
	n := goldenN
	for i := 0; n >= 1; i++ {
		st := goldenStep{}
		// Six updates on the full lattice, then collapse one subject per
		// step down to a single subject: on three executors the last
		// lattices leave shards empty.
		if i >= 6 {
			if n == 1 {
				break
			}
			st.condition = true
			st.subject = r.Intn(n)
			st.positive = r.Bernoulli(0.3)
			n--
		}
		st.pool = randPool(n)
		st.y = dilution.Negative
		if r.Bernoulli(0.5) {
			st.y = dilution.Positive
		}
		for c := 0; c < 5; c++ {
			st.cands = append(st.cands, randPool(n))
		}
		st.cands = append(st.cands, bitvec.Full(n))
		st.order = r.Perm(n)[:n/2+1]
		steps = append(steps, st)
	}
	return risks, steps
}

// goldenRecorder renders one line per recorded quantity.
type goldenRecorder struct{ lines []string }

func (g *goldenRecorder) add(key string, xs ...float64) {
	var b strings.Builder
	b.WriteString(key)
	for _, x := range xs {
		fmt.Fprintf(&b, " %016x", math.Float64bits(x))
	}
	g.lines = append(g.lines, b.String())
}

// goldenBackend opens one pinned backend configuration.
type goldenBackend struct {
	name string
	open func(t *testing.T, risks []float64, resp dilution.Response) posterior.Model
}

func goldenBackends(t *testing.T) []goldenBackend {
	pool := engine.NewPool(2)
	t.Cleanup(pool.Close)
	dense := func(parts int) func(*testing.T, []float64, dilution.Response) posterior.Model {
		return func(t *testing.T, risks []float64, resp dilution.Response) posterior.Model {
			m, err := posterior.NewDense(pool, lattice.Config{Risks: risks, Response: resp, Parts: parts})
			if err != nil {
				t.Fatal(err)
			}
			return m
		}
	}
	cl := func(k int) func(*testing.T, []float64, dilution.Response) posterior.Model {
		return func(t *testing.T, risks []float64, resp dilution.Response) posterior.Model {
			addrs, stop, err := cluster.StartLocal(k, 1)
			if err != nil {
				t.Fatal(err)
			}
			cm, err := cluster.Dial(addrs, risks, resp, 5*time.Second)
			if err != nil {
				stop()
				t.Fatal(err)
			}
			return posterior.FromCluster(cm, stop)
		}
	}
	return []goldenBackend{
		{"dense-p1", dense(1)},
		{"dense-p5", dense(5)},
		{"cluster-x2", cl(2)},
		{"cluster-x3", cl(3)},
		{"sparse-eps0", func(t *testing.T, risks []float64, resp dilution.Response) posterior.Model {
			m, err := posterior.NewSparse(sparse.Config{Risks: risks, Response: resp})
			if err != nil {
				t.Fatal(err)
			}
			return m
		}},
	}
}

// runGolden replays the pinned script on one backend and records the bits
// of every kernel result after each step.
func runGolden(t *testing.T, g *goldenRecorder, prefix string, m posterior.Model, steps []goldenStep) {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	for i, st := range steps {
		key := fmt.Sprintf("%s/%02d", prefix, i)
		if st.condition {
			next, err := m.Condition(st.subject, st.positive)
			must(err)
			if next == nil {
				t.Fatalf("%s: condition(%d, %v) rejected", key, st.subject, st.positive)
			}
			m = next
		}
		must(m.Update(st.pool, st.y))

		sum, err := m.Summary()
		must(err)
		g.add(key+" summary.mass", sum.Mass)
		g.add(key+" summary.entropy", sum.EntropyBits)
		g.add(key+" summary.expected", sum.ExpectedInfected)
		g.add(key+" summary.map", math.Float64frombits(uint64(sum.MAPState)), sum.MAPMass)
		g.add(key+" summary.marginals", sum.Marginals...)

		marg, err := m.Marginals()
		must(err)
		g.add(key+" marginals", marg...)
		ent, err := m.Entropy()
		must(err)
		g.add(key+" entropy", ent)
		neg, err := m.NegMasses(st.cands)
		must(err)
		g.add(key+" negmasses", neg...)
		pre, err := m.PrefixNegMasses(st.order)
		must(err)
		g.add(key+" prefix", pre...)

		switch b := m.(type) {
		case *posterior.Dense:
			lm := b.Lattice()
			g.add(key+" intersect", lm.IntersectDist(st.pool)...)
			pools := append([]bitvec.Mask{0}, st.cands...)
			for _, pm := range pools {
				g.add(fmt.Sprintf("%s negmass[%x]", key, uint64(pm)), lm.NegMass(pm))
				g.add(fmt.Sprintf("%s predictive[%x]", key, uint64(pm)),
					lm.Predictive(pm, dilution.Negative), lm.Predictive(pm, dilution.Positive))
			}
		case *posterior.Cluster:
			dist, err := b.Driver().IntersectDist(st.pool)
			must(err)
			g.add(key+" intersect", dist...)
		}
	}
	must(m.Close())
}

// TestKernelsGolden pins the bits of every posterior kernel on a seeded
// script across dense (1 and 5 partitions), cluster (2 and 3 executors)
// and sparse backends, under a flat-tail and a dilution-sensitive
// response. Regenerate with `go test ./internal/posterior -run
// KernelsGolden -update` only when a numeric change is intended.
func TestKernelsGolden(t *testing.T) {
	risks, steps := goldenScript()
	responses := []struct {
		name string
		resp dilution.Response
	}{
		{"binary", dilution.Binary{Sens: 0.93, Spec: 0.98}},
		{"hyperbolic", dilution.Hyperbolic{MaxSens: 0.95, Spec: 0.99, D: 0.4}},
	}
	var g goldenRecorder
	for _, rc := range responses {
		for _, b := range goldenBackends(t) {
			runGolden(t, &g, rc.name+"/"+b.name, b.open(t, risks, rc.resp), steps)
		}
	}
	got := strings.Join(g.lines, "\n") + "\n"
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	i := 0
	for sc.Scan() {
		if i >= len(g.lines) {
			t.Fatalf("golden has more lines than the run (%d)", len(g.lines))
		}
		if want := sc.Text(); want != g.lines[i] {
			t.Fatalf("line %d differs:\n got  %s\n want %s", i+1, g.lines[i], want)
		}
		i++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if i != len(g.lines) {
		t.Fatalf("run has %d lines, golden %d", len(g.lines), i)
	}
}
