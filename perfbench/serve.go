package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/bitvec"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/serve"
)

// serveSubjects is the cohort size of both serve workloads.
const serveSubjects = 12

// Classification thresholds the serve cohorts ask for. With the ideal
// assay a call at these thresholds is a certainty, so every call can be
// checked against the drawn truth; at the defaults (0.01/0.99) a subject
// with a low prior is called negative untested.
const (
	negCertain = 1e-9
	posCertain = 1 - 1e-9
)

// The API routes the clients call, by index.
var routeNames = [...]string{"create", "pools", "results", "status", "delete"}

const (
	routeCreate = iota
	routePools
	routeResults
	routeStatus
	routeDelete
)

// serveWorkload keeps a constant population of open cohorts on an
// in-process sbgt-serve, driven over loopback HTTP by GOMAXPROCS closed-
// loop clients.
type serveWorkload struct {
	cohorts int
}

type serveEnv struct {
	pool    *engine.Pool
	mgr     *serve.Manager
	hs      *http.Server
	served  chan error
	dir     string
	reg     *obs.Registry
	before  *obs.Snapshot
	clients []*client
}

func (w serveWorkload) setup(o *options, traced bool) (env, error) {
	dir, err := o.ckptDir()
	if err != nil {
		return nil, err
	}
	e := &serveEnv{dir: dir, pool: engine.NewPool(0), served: make(chan error, 1)}
	if traced {
		e.reg = obs.NewRegistry()
		e.pool.Instrument(e.reg)
	}
	e.mgr, err = serve.NewManager(serve.ManagerConfig{Pool: e.pool, Dir: dir, Obs: e.reg})
	if err != nil {
		e.pool.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		err = errors.Join(err, e.mgr.Close())
		e.pool.Close()
		return nil, err
	}
	e.hs = &http.Server{Handler: serve.NewServer(serve.ServerConfig{Manager: e.mgr, Obs: e.reg})}
	//lint:allow concurrency the HTTP server under test; close() shuts it down and waits for Serve to return
	go func() { e.served <- e.hs.Serve(ln) }() //lint:allow goroutineleak served has room for the one send, so it never blocks

	// Each client owns an interleaved share of the population and its own
	// generator for replacements, so the inputs depend on the seed alone.
	nc := runtime.GOMAXPROCS(0)
	root := rng.New(o.seed + streamMeasured)
	epoch := time.Now()
	for i := 0; i < nc; i++ {
		c := &client{
			id:    int64(i),
			base:  "http://" + ln.Addr().String(),
			tr:    &http.Transport{MaxIdleConnsPerHost: 1},
			gen:   newCohortGen(root.Uint64(), serveSubjects),
			order: root.Split(),
		}
		c.hc = &http.Client{Transport: c.tr, Timeout: time.Minute}
		if traced {
			c.rec = newRecorder(epoch)
		}
		e.clients = append(e.clients, c)
	}
	for k := 0; k < w.cohorts; k++ {
		c := e.clients[k%nc]
		c.slots = append(c.slots, &slot{c: c.gen.next()})
	}
	errs := make([]error, nc)
	e.each(func(i int, c *client) {
		for _, s := range c.slots {
			if err := c.create(s); err != nil {
				errs[i] = fmt.Errorf("initial population: %w", err)
				return
			}
		}
	})
	if err := errors.Join(errs...); err != nil {
		e.close()
		return nil, err
	}
	if traced {
		e.before = e.reg.Snapshot()
	}
	return e, nil
}

// each runs fn on every client concurrently and waits for all of them.
func (e *serveEnv) each(fn func(i int, c *client)) {
	var wg sync.WaitGroup
	for i, c := range e.clients {
		wg.Add(1)
		//lint:allow concurrency each closed-loop client is one goroutine by definition of the workload; each waits for all
		go func() {
			defer wg.Done()
			fn(i, c)
		}()
	}
	wg.Wait()
}

func (e *serveEnv) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := e.hs.Shutdown(ctx); err != nil {
		logf("server shutdown: %v", err)
	}
	if err := <-e.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		logf("server: %v", err)
	}
	for _, c := range e.clients {
		c.tr.CloseIdleConnections()
	}
	if err := e.mgr.Close(); err != nil {
		logf("manager close: %v", err)
	}
	e.pool.Close()
	if err := os.RemoveAll(e.dir); err != nil {
		logf("remove checkpoints: %v", err)
	}
}

func (e *serveEnv) recorders() []*recorder {
	var out []*recorder
	for _, c := range e.clients {
		if c.rec != nil {
			out = append(out, c.rec)
		}
	}
	return out
}

// calEvery is how often a serve drive pauses its clients for a
// calibration sweep (see calibrate.go).
const calEvery = 250 * time.Millisecond

func (e *serveEnv) drive(until time.Time, _ bool) *tally {
	cpu0 := processCPU()
	start := time.Now()
	var gate sync.RWMutex
	for _, c := range e.clients {
		c.reset(start, &gate)
	}
	// The sweep takes the gate's write lock, so it runs between requests,
	// with the clients held back and the server idle.
	cals := []calSample{{0, hostCal.measure()}}
	stop, swept := make(chan struct{}), make(chan struct{})
	//lint:allow concurrency a timer loop pausing the clients for calibration, not lattice work; drive stops it and waits for it
	go func() {
		defer close(swept)
		tick := time.NewTicker(calEvery)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				gate.Lock()
				cals = append(cals, calSample{time.Since(start), hostCal.measure()})
				gate.Unlock()
			case <-stop:
				return
			}
		}
	}()
	e.each(func(_ int, c *client) { c.run(until) })
	close(stop)
	<-swept
	t := &tally{elapsed: time.Since(start), cpu: processCPU().sub(cpu0)}
	t.cals = append(cals, calSample{t.elapsed, hostCal.measure()})
	var done []sample
	for _, c := range e.clients {
		t.attempted += c.attempted
		t.failed += c.failed
		t.qSubjects += c.subjects
		t.qTests += c.tests
		t.qCorrect += c.correct
		done = append(done, c.done...)
		t.reqs = append(t.reqs, c.reqs...)
		for _, err := range c.errs {
			logf("%v", err)
		}
	}
	for _, r := range t.reqs {
		if r.group == routeResults {
			t.stages = append(t.stages, r)
		}
	}
	t.ranStages, t.ranReqs = len(t.stages), len(t.reqs)
	t.subjectsPerS = throughput(done, t.elapsed, true, t.cals)
	t.reqPerS = throughput(t.reqs, t.elapsed, false, t.cals)
	return t
}

func (e *serveEnv) layers(t *tally) map[string]float64 {
	v := zeroLayers()
	d := regDelta{e.before, e.reg.Snapshot()}
	// Sessions restored from a checkpoint run unobserved (the manager
	// restores them with no registry), so under residency pressure the
	// posterior and session series below would cover only work done
	// before a cohort's first eviction. serve-resident never restores.
	for _, op := range opNames {
		p := "posterior." + op
		calls, busy := d.hist("sbgt_posterior_op_seconds", obs.L("op", op))
		v[p+".calls"] = calls
		v[p+".busy_s"] = busy
		// Serve lattices hold at most 2^12 states, so the mean call is
		// the per-call cost.
		v[p+".fixed_us"] = ratio(busy*1e6, calls)
	}
	for _, phase := range []string{"select", "update", "classify"} {
		n, sum := d.hist("sbgt_session_stage_seconds", obs.L("phase", phase))
		v["core."+phase+"_ms"] = ratio(sum*1e3, n)
	}
	engineLayers(v, d, float64(t.ranStages))
	var byRoute [len(routeNames)][]float64
	for _, s := range t.reqs {
		byRoute[s.group] = append(byRoute[s.group], s.val)
	}
	for r, name := range routeNames {
		v["serve."+name+".p50_ms"] = quantile(byRoute[r], 0.5)
	}
	reqs := d.counter("sbgt_serve_requests_total")
	restores := d.counter("sbgt_serve_restores_total")
	v["serve.restores_per_req"] = ratio(restores, reqs)
	v["serve.evictions_per_req"] = ratio(d.counter("sbgt_serve_evictions_total"), reqs)
	v["serve.resident_hit_ratio"] = ratio(reqs-restores, reqs)
	v["serve.ckpt_bytes_per_evict"] = meanCheckpointBytes(e.dir)
	v["serve.server_p50_ms"] = d.histMedian("sbgt_serve_request_seconds") * 1e3
	return v
}

// meanCheckpointBytes is the mean size of the checkpoint files in dir —
// what one eviction writes.
func meanCheckpointBytes(dir string) float64 {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var total, n float64
	for _, ent := range ents {
		if !strings.HasSuffix(ent.Name(), ".ckpt") {
			continue
		}
		if info, err := ent.Info(); err == nil {
			total += float64(info.Size())
			n++
		}
	}
	return ratio(total, n)
}

// slot is one place in a client's population, holding one open cohort at
// a time.
type slot struct {
	c     cohort
	id    string // "" until created
	fresh bool   // created, pools not fetched yet
	done  bool
	pools []serve.PoolJSON
	sent  int // results the server acknowledged
}

// client is one closed-loop API client with its own keep-alive
// connection. It visits its slots in a seeded shuffled rotation.
type client struct {
	id    int64
	base  string
	tr    *http.Transport
	hc    *http.Client
	gen   *cohortGen
	order *rng.Source
	slots []*slot
	rec   *recorder
	seq   int64
	// gate is held for reading across every request of a drive.
	gate *sync.RWMutex

	// What the current drive measured, sample times counted from start.
	start                    time.Time
	attempted, failed        int
	subjects, tests, correct int
	reqs, done               []sample
	errs                     []error
}

// maxLoggedErrors bounds how many failures one client keeps for the log.
const maxLoggedErrors = 5

func (c *client) reset(start time.Time, gate *sync.RWMutex) {
	c.start, c.gate = start, gate
	c.attempted, c.failed = 0, 0
	c.subjects, c.tests, c.correct = 0, 0, 0
	c.reqs, c.done, c.errs = nil, nil, nil
}

func (c *client) fail(err error) {
	c.failed++
	if len(c.errs) < maxLoggedErrors {
		c.errs = append(c.errs, err)
	}
}

func (c *client) run(until time.Time) {
	for {
		for _, i := range c.order.Perm(len(c.slots)) {
			if !time.Now().Before(until) {
				return
			}
			c.visit(c.slots[i])
		}
	}
}

// visit advances one cohort by one step: fetch the first pools of a new
// cohort, post the results of the outstanding pools (the reply carries
// the next ones), or check, delete and replace a finished cohort.
func (c *client) visit(s *slot) {
	var err error
	switch {
	case s.id == "":
		err = c.create(s)
	case s.fresh:
		var out serve.PoolsResponse
		if err = c.call(routePools, http.MethodGet, "/v1/cohorts/"+s.id+"/pools", nil, &out, http.StatusOK); err == nil {
			s.fresh, s.done, s.pools = false, out.Done, out.Pools
		}
	case !s.done:
		in := serve.SubmitResultsRequest{Results: make([]serve.ResultJSON, len(s.pools))}
		for i, p := range s.pools {
			in.Results[i] = serve.ResultJSON{
				Stage: p.Stage, Index: p.Index,
				Positive: s.c.truth.IntersectCount(bitvec.FromIndices(p.Subjects...)) > 0,
			}
		}
		var out serve.PoolsResponse
		if err = c.call(routeResults, http.MethodPost, "/v1/cohorts/"+s.id+"/results", in, &out, http.StatusOK); err == nil {
			s.sent += len(in.Results)
			s.done, s.pools = out.Done, out.Pools
		}
	default:
		err = c.finish(s)
	}
	if err != nil {
		// Re-read the outstanding pools on the next visit.
		s.fresh = s.id != ""
	}
}

func (c *client) create(s *slot) error {
	in := serve.CreateCohortRequest{
		Tenant:       "bench",
		Risks:        s.c.risks,
		Response:     serve.ResponseSpec{Kind: "ideal"},
		PosThreshold: posCertain,
		NegThreshold: negCertain,
	}
	var out serve.CreateCohortResponse
	if err := c.call(routeCreate, http.MethodPost, "/v1/cohorts", in, &out, http.StatusCreated); err != nil {
		return err
	}
	s.id, s.fresh = out.ID, true
	return nil
}

// finish checks a finished cohort against its truth, deletes it, and
// opens the next generated cohort in its place.
func (c *client) finish(s *slot) error {
	var st serve.StatusResponse
	if err := c.call(routeStatus, http.MethodGet, "/v1/cohorts/"+s.id, nil, &st, http.StatusOK); err != nil {
		return err
	}
	c.subjects += len(s.c.risks)
	c.tests += st.Tests
	c.done = append(c.done, sample{time.Since(c.start), float64(len(s.c.risks)), 0})
	if err := c.check(s, &st); err != nil {
		c.fail(fmt.Errorf("cohort %s: %w", s.id, err))
	}
	if err := c.call(routeDelete, http.MethodDelete, "/v1/cohorts/"+s.id, nil, nil, http.StatusNoContent); err != nil {
		return err
	}
	*s = slot{c: c.gen.next()}
	return c.create(s)
}

// check verifies a finished cohort: done, every posted result counted as
// one test, and every call equal to the drawn truth.
func (c *client) check(s *slot, st *serve.StatusResponse) error {
	if !st.Done {
		return fmt.Errorf("status not done after the server reported done")
	}
	if st.Tests != s.sent {
		return fmt.Errorf("server counts %d tests, client posted %d results", st.Tests, s.sent)
	}
	if len(st.Classifications) != len(s.c.risks) {
		return fmt.Errorf("%d classifications for %d subjects", len(st.Classifications), len(s.c.risks))
	}
	wrong := 0
	for _, cl := range st.Classifications {
		want := "negative"
		if s.c.truth.Has(cl.Subject) {
			want = "positive"
		}
		if cl.Status != want {
			wrong++
		}
	}
	c.correct += len(s.c.risks) - wrong
	if wrong > 0 {
		return fmt.Errorf("%d of %d subjects misclassified", wrong, len(s.c.risks))
	}
	return nil
}

// call makes one API request, timing it client-side. A transport error
// or an unexpected status counts as a failed request.
func (c *client) call(route int, method, path string, in, out any, want int) error {
	c.attempted++
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.base+path, body)
	if err != nil {
		return err
	}
	if c.rec != nil {
		c.rec.group = c.id<<40 | c.seq
		c.seq++
	}
	if c.gate != nil {
		c.gate.RLock()
		defer c.gate.RUnlock()
	}
	mark := c.rec.begin("serve." + routeNames[route])
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err == nil {
		if resp.StatusCode != want {
			msg, rerr := io.ReadAll(io.LimitReader(resp.Body, 512))
			err = errors.Join(fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(msg)), rerr)
		} else if out != nil {
			err = json.NewDecoder(resp.Body).Decode(out)
		}
		// Drain so the keep-alive connection is reused.
		_, cerr := io.Copy(io.Discard, resp.Body)
		err = errors.Join(err, cerr, resp.Body.Close())
	}
	d := time.Since(start)
	c.rec.end(mark)
	if err != nil {
		c.fail(err)
		return err
	}
	c.reqs = append(c.reqs, sample{time.Since(c.start), ms(d), route})
	return nil
}

// ckptDir makes a fresh checkpoint directory under the run's scratch
// directory, on the checkout's own disk.
func (o *options) ckptDir() (string, error) {
	o.dirs++
	dir := filepath.Join(o.runDir, fmt.Sprintf("ckpt-%d", o.dirs))
	return dir, os.MkdirAll(dir, 0o755)
}
