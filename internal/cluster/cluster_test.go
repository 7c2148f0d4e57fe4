package cluster

import (
	"math"
	"net"
	"testing"
	"time"

	"repro/internal/bitvec"
	"repro/internal/dilution"
	"repro/internal/engine"
	"repro/internal/lattice"
	"repro/internal/rng"
)

// startExecutors launches k in-process executors on loopback and returns
// their addresses. Cleanup shuts everything down.
func startExecutors(t *testing.T, k int) []string {
	t.Helper()
	addrs := make([]string, k)
	for i := 0; i < k; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		e := NewExecutor(2)
		go func() { _ = e.Serve(l) }()
		t.Cleanup(func() {
			l.Close()
			e.Close()
		})
		addrs[i] = l.Addr().String()
	}
	return addrs
}

func dialTest(t *testing.T, addrs []string, risks []float64, resp dilution.Response) *Model {
	t.Helper()
	m, err := Dial(addrs, risks, resp, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m
}

func uniform(n int, p float64) []float64 {
	rs := make([]float64, n)
	for i := range rs {
		rs[i] = p
	}
	return rs
}

func TestDialValidation(t *testing.T) {
	addrs := startExecutors(t, 1)
	if _, err := Dial(nil, uniform(4, 0.1), dilution.Ideal{}, time.Second); err == nil {
		t.Error("no executors accepted")
	}
	if _, err := Dial(addrs, nil, dilution.Ideal{}, time.Second); err == nil {
		t.Error("empty cohort accepted")
	}
	if _, err := Dial(addrs, uniform(4, 0.1), nil, time.Second); err == nil {
		t.Error("nil response accepted")
	}
	if _, err := Dial([]string{"127.0.0.1:1"}, uniform(4, 0.1), dilution.Ideal{}, 200*time.Millisecond); err == nil {
		t.Error("unreachable executor accepted")
	}
	if _, err := Dial(addrs, []float64{0.1, 1.5}, dilution.Ideal{}, time.Second); err == nil {
		t.Error("invalid risk accepted")
	}
}

func TestPingAndShards(t *testing.T) {
	addrs := startExecutors(t, 3)
	m := dialTest(t, addrs, uniform(8, 0.1), dilution.Ideal{})
	if err := m.Ping(); err != nil {
		t.Fatal(err)
	}
	if m.Executors() != 3 || m.N() != 8 {
		t.Fatalf("executors=%d n=%d", m.Executors(), m.N())
	}
	// Shards must partition [0, 2^8).
	var covered uint64
	for _, c := range m.conns {
		if c.lo != covered {
			t.Fatalf("shard gap at %d", covered)
		}
		covered = c.hi
	}
	if covered != 256 {
		t.Fatalf("shards cover %d states", covered)
	}
}

func TestDistributedMatchesLocal(t *testing.T) {
	// The load-bearing test: the distributed model must agree with the
	// local engine-backed model on every quantity after a realistic
	// update sequence, for 1..4 executors.
	risks := []float64{0.05, 0.2, 0.1, 0.3, 0.15, 0.08, 0.25, 0.12}
	resp := dilution.Hyperbolic{MaxSens: 0.96, Spec: 0.99, D: 0.3}
	pool := engine.NewPool(2)
	defer pool.Close()

	for _, execs := range []int{1, 2, 3, 4} {
		local, err := lattice.New(pool, lattice.Config{Risks: risks, Response: resp})
		if err != nil {
			t.Fatal(err)
		}
		addrs := startExecutors(t, execs)
		dist := dialTest(t, addrs, risks, resp)

		r := rng.New(uint64(execs))
		for round := 0; round < 5; round++ {
			pm := bitvec.Mask(r.Uint64() & 0xff)
			if pm == 0 {
				pm = bitvec.FromIndices(round % 8)
			}
			y := dilution.Negative
			if r.Bool() {
				y = dilution.Positive
			}
			errL := local.Update(pm, y)
			errD := dist.Update(pm, y)
			if (errL == nil) != (errD == nil) {
				t.Fatalf("execs=%d round %d: error divergence %v vs %v", execs, round, errL, errD)
			}
			if errL != nil {
				break
			}
		}

		lm := local.Marginals()
		dm, err := dist.Marginals()
		if err != nil {
			t.Fatal(err)
		}
		for i := range lm {
			if math.Abs(lm[i]-dm[i]) > 1e-10 {
				t.Fatalf("execs=%d: marginal[%d] %v vs %v", execs, i, lm[i], dm[i])
			}
		}
		le := local.Entropy()
		de, err := dist.Entropy()
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(le-de) > 1e-9 {
			t.Fatalf("execs=%d: entropy %v vs %v", execs, le, de)
		}
		probe := bitvec.FromIndices(1, 3, 5)
		ln := local.NegMass(probe)
		dn, err := dist.NegMass(probe)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(ln-dn) > 1e-12 {
			t.Fatalf("execs=%d: negmass %v vs %v", execs, ln, dn)
		}
		cands := []bitvec.Mask{bitvec.FromIndices(0), bitvec.FromIndices(0, 1), bitvec.FromIndices(2, 4, 6)}
		lnm := local.NegMasses(cands)
		dnm, err := dist.NegMasses(cands)
		if err != nil {
			t.Fatal(err)
		}
		for i := range cands {
			if math.Abs(lnm[i]-dnm[i]) > 1e-12 {
				t.Fatalf("execs=%d: negmasses[%d] %v vs %v", execs, i, lnm[i], dnm[i])
			}
		}
		ld := local.IntersectDist(probe)
		dd, err := dist.IntersectDist(probe)
		if err != nil {
			t.Fatal(err)
		}
		for k := range ld {
			if math.Abs(ld[k]-dd[k]) > 1e-12 {
				t.Fatalf("execs=%d: intersect[%d] %v vs %v", execs, k, ld[k], dd[k])
			}
		}
		dmass, err := dist.Mass()
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(dmass-1) > 1e-9 {
			t.Fatalf("execs=%d: mass %v", execs, dmass)
		}
		// Full posterior agreement via Fetch.
		post, err := dist.Fetch()
		if err != nil {
			t.Fatal(err)
		}
		if len(post) != 256 {
			t.Fatalf("Fetch returned %d states", len(post))
		}
		for s := range post {
			want := local.StateMass(bitvec.Mask(s))
			if math.Abs(post[s]-want) > 1e-12*math.Max(1, want) {
				t.Fatalf("execs=%d: state %d %v vs %v", execs, s, post[s], want)
			}
		}
	}
}

func TestUpdateErrorsRemote(t *testing.T) {
	addrs := startExecutors(t, 2)
	m := dialTest(t, addrs, uniform(5, 0.2), dilution.Ideal{})
	if err := m.Update(0, dilution.Positive); err == nil {
		t.Error("empty pool accepted")
	}
	if err := m.Update(bitvec.FromIndices(7), dilution.Positive); err == nil {
		t.Error("out-of-cohort pool accepted")
	}
	pm := bitvec.Full(5)
	if err := m.Update(pm, dilution.Negative); err != nil {
		t.Fatal(err)
	}
	if err := m.Update(pm, dilution.Positive); err == nil {
		t.Error("impossible outcome accepted")
	}
	if m.Tests() != 1 {
		t.Errorf("Tests = %d", m.Tests())
	}
}

func TestKernelBeforeBuildFails(t *testing.T) {
	// Direct executor-level check: ops on an unbuilt shard must error,
	// not crash.
	e := NewExecutor(1)
	defer e.Close()
	for _, op := range []Op{OpUpdateMul, OpSumWhere, OpMarginals, OpEntropy, OpMass, OpFetch} {
		resp := e.dispatch(Request{Op: op, Pool: 1, Lik: []float64{1, 1}})
		if resp.Err == "" {
			t.Errorf("op %s on unbuilt shard did not error", op)
		}
	}
}

func TestDispatchValidation(t *testing.T) {
	e := NewExecutor(1)
	defer e.Close()
	if resp := e.dispatch(Request{Op: OpBuildPrior, Risks: uniform(4, 0.1), Lo: 10, Hi: 5}); resp.Err == "" {
		t.Error("inverted shard range accepted")
	}
	if resp := e.dispatch(Request{Op: OpBuildPrior, Risks: uniform(4, 0.1), Lo: 0, Hi: 17}); resp.Err == "" {
		t.Error("oversized shard range accepted")
	}
	ok := e.dispatch(Request{Op: OpBuildPrior, Risks: uniform(4, 0.1), Lo: 0, Hi: 16})
	if ok.Err != "" {
		t.Fatalf("valid build failed: %s", ok.Err)
	}
	if resp := e.dispatch(Request{Op: OpUpdateMul, Pool: 0b11, Lik: []float64{1}}); resp.Err == "" {
		t.Error("short likelihood table accepted")
	}
	if resp := e.dispatch(Request{Op: OpUpdateMul, Pool: 0b11, Lik: []float64{1, math.NaN(), 0.5}}); resp.Err == "" {
		t.Error("NaN likelihood accepted")
	}
	if resp := e.dispatch(Request{Op: OpUpdateMul, Pool: 0b11, Lik: []float64{1, -0.5, 0.5}}); resp.Err == "" {
		t.Error("negative likelihood accepted")
	}
	if resp := e.dispatch(Request{Op: OpUpdateMul, Pool: 1 << 4, Lik: []float64{1, 0.5}}); resp.Err == "" {
		t.Error("pool outside the 4-subject cohort accepted")
	}
	// The rejected updates must leave the shard untouched.
	if mass := e.dispatch(Request{Op: OpMass}); mass.Err != "" || mass.Sum != ok.Sum {
		t.Errorf("shard mass %v (err %q) after rejected updates, want %v", mass.Sum, mass.Err, ok.Sum)
	}
	if resp := e.dispatch(Request{Op: OpScale, Factor: math.NaN()}); resp.Err == "" {
		t.Error("NaN scale accepted")
	}
	if resp := e.dispatch(Request{Op: OpNegMasses}); resp.Err == "" {
		t.Error("empty candidate scan accepted")
	}
	if resp := e.dispatch(Request{Op: Op(200)}); resp.Err == "" {
		t.Error("unknown op accepted")
	}
}

func TestDriverReconnectAfterClose(t *testing.T) {
	// Executors survive a driver disconnect: a second Dial must succeed
	// and rebuild the shard.
	addrs := startExecutors(t, 2)
	m1 := dialTest(t, addrs, uniform(6, 0.1), dilution.Ideal{})
	if err := m1.Update(bitvec.FromIndices(0, 1), dilution.Negative); err != nil {
		t.Fatal(err)
	}
	m1.Close()
	m2 := dialTest(t, addrs, uniform(6, 0.1), dilution.Ideal{})
	mass, err := m2.Mass()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mass-1) > 1e-9 {
		t.Fatalf("rebuilt prior mass = %v", mass)
	}
	// Fresh prior, not the conditioned posterior from m1.
	marg, err := m2.Marginals()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(marg[0]-0.1) > 1e-9 {
		t.Fatalf("marginal after reconnect = %v, want prior 0.1", marg[0])
	}
}

func TestShutdownTerminatesServe(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	e := NewExecutor(1)
	defer e.Close()
	done := make(chan error, 1)
	go func() { done <- e.Serve(l) }()
	m, err := Dial([]string{l.Addr().String()}, uniform(4, 0.1), dilution.Ideal{}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	m.Shutdown()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve returned %v", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("Serve did not return after shutdown")
	}
	l.Close()
}

func TestOpStrings(t *testing.T) {
	for op := OpPing; op <= OpShutdown; op++ {
		if op.String() == "" {
			t.Errorf("op %d has empty name", op)
		}
	}
	if got := Op(250).String(); got != "op(250)" {
		t.Errorf("unknown op string = %q", got)
	}
}
