package cluster

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/bits"
	"net"
	"time"

	"repro/internal/engine"
	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/prob"
)

// Executor serves lattice-shard kernels to one driver connection at a
// time. It owns a contiguous state range [lo, hi) and evaluates kernels
// over it with a local engine pool.
type Executor struct {
	pool   *engine.Pool
	log    *slog.Logger
	met    *executorMetrics // nil when uninstrumented
	tracer *obs.Tracer      // always non-nil; records traced dispatches
	idle   time.Duration    // per-round read/write bound; 0 disables

	// Shard state, valid after OpBuildPrior.
	n    int
	lo   uint64
	data []float64
}

// NewExecutor returns an executor whose kernels run on workers local
// goroutines (<= 0 selects GOMAXPROCS). Transport hiccups log through
// slog.Default; redirect with SetLogger. The executor owns a span tracer
// (replaceable with SetTracer) so traced RPCs can ship their spans back
// even when no introspection endpoint was configured.
func NewExecutor(workers int) *Executor {
	return &Executor{pool: engine.NewPool(workers), log: slog.Default(), tracer: obs.NewTracer(0)}
}

// SetLogger redirects the executor's transport logging. A nil logger
// silences it.
func (e *Executor) SetLogger(l *slog.Logger) { e.log = obs.OrNop(l) }

// SetTracer redirects span recording — pass the runtime tracer served on
// /spans so a standalone sbgt-exec exposes its side of every trace. A
// nil tracer is replaced with a detached one: dispatch spans then still
// get IDs and ship in response trailers, they just aren't retained.
func (e *Executor) SetTracer(t *obs.Tracer) {
	if t == nil {
		t = obs.NewTracer(0)
	}
	e.tracer = t
}

// SetIdleTimeout bounds how long one driver connection may sit silent (or
// refuse to accept a response) before the executor drops it and returns to
// accepting. Serve handles connections serially, so without a bound a
// wedged driver — half-open TCP, a stalled process holding the socket —
// starves every future driver forever. d <= 0 disables the bound.
func (e *Executor) SetIdleTimeout(d time.Duration) {
	if d < 0 {
		d = 0
	}
	e.idle = d
}

// Close releases the local worker pool.
func (e *Executor) Close() { e.pool.Close() }

// Serve accepts driver connections on l until l is closed or a Shutdown
// request arrives. Each connection is handled serially — the protocol has
// a single driver — and a dropped connection returns the executor to
// accepting, so a restarted driver can reclaim a live executor (the
// re-sent BuildPrior re-materializes the shard).
func (e *Executor) Serve(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		shutdown := e.handle(conn)
		if err := conn.Close(); err != nil {
			e.log.Warn("cluster executor: close conn", "err", err)
		}
		if shutdown {
			return nil
		}
	}
}

// handle runs one connection's request loop. It reports whether a
// shutdown was requested.
func (e *Executor) handle(conn net.Conn) bool {
	dec := gob.NewDecoder(conn)
	enc := gob.NewEncoder(conn)
	for {
		if e.idle > 0 {
			// Bound the wait for the next request: a silent or half-open
			// driver releases the (serial) accept loop instead of holding it.
			if err := conn.SetReadDeadline(time.Now().Add(e.idle)); err != nil {
				e.log.Warn("cluster executor: arm read deadline", "err", err)
				return false
			}
		}
		var req Request
		if err := dec.Decode(&req); err != nil {
			if !errors.Is(err, io.EOF) {
				e.log.Warn("cluster executor: decode", "err", err)
			}
			return false
		}
		if e.idle > 0 {
			// A fresh write window per response: the read deadline above may
			// be nearly spent by the time a long kernel finishes.
			if err := conn.SetWriteDeadline(time.Now().Add(e.idle)); err != nil {
				e.log.Warn("cluster executor: arm write deadline", "err", err)
				return false
			}
		}
		if req.Op == OpShutdown {
			//lint:allow errcheck best-effort shutdown ack; the driver may already have hung up
			_ = enc.Encode(Response{Op: OpShutdown})
			return true
		}
		resp := e.serve(req)
		if err := enc.Encode(resp); err != nil {
			e.log.Warn("cluster executor: encode", "err", err)
			return false
		}
	}
}

// serve evaluates one request, opening executor-side spans under the
// propagated trace context when the request carries one: an exec:<op>
// span for the whole dispatch with a kernel child for the shard
// computation itself. Completed spans ride back in the response trailer
// (and stay in the executor's own tracer for its /spans endpoint).
func (e *Executor) serve(req Request) Response {
	if req.Trace == "" {
		return e.dispatch(req)
	}
	parent, err := obs.ParseTraceContext(req.Trace)
	if err != nil {
		// Tracing is advisory: a malformed context degrades the call to
		// untraced rather than failing real work.
		e.log.Warn("cluster executor: bad trace context", "err", err)
		return e.dispatch(req)
	}
	span := e.tracer.StartUnder("exec:"+req.Op.String(), parent, obs.A("states", len(e.data)))
	kernel := span.Child("kernel")
	resp := e.dispatch(req)
	kernel.End()
	span.End()
	resp.Spans = make([]WireSpan, 0, 2)
	if rec, ok := span.Record(); ok {
		resp.Spans = append(resp.Spans, wireFromRecord(rec))
	}
	if rec, ok := kernel.Record(); ok {
		resp.Spans = append(resp.Spans, wireFromRecord(rec))
	}
	return resp
}

// dispatch evaluates one request against the shard.
func (e *Executor) dispatch(req Request) Response {
	if e.met != nil {
		if c, ok := e.met.requests[req.Op]; ok {
			c.Inc()
		}
	}
	switch req.Op {
	case OpPing:
		return Response{Op: OpPing}
	case OpBuildPrior:
		return e.buildPrior(req)
	case OpLoadShard:
		return e.loadShard(req)
	case OpFetch:
		if e.data == nil {
			return errorf(req.Op, "no shard built")
		}
		return Response{Op: req.Op, Vec: append([]float64(nil), e.data...)}
	}
	// Every remaining op needs a built shard.
	if e.data == nil {
		return errorf(req.Op, "no shard built")
	}
	switch req.Op {
	case OpUpdateMul:
		return e.updateMul(req)
	case OpScale:
		return e.scale(req)
	case OpSumWhere:
		return e.sumWhere(req)
	case OpMarginals:
		return e.marginals(req)
	case OpNegMasses:
		return e.negMasses(req)
	case OpEntropy:
		return e.entropy(req)
	case OpIntersect:
		return e.intersect(req)
	case OpMass:
		return e.mass(req)
	case OpPrefix:
		return e.prefixScan(req)
	case OpSummary:
		return e.summary(req)
	default:
		return errorf(req.Op, "unknown op")
	}
}

// forRange runs body over local index chunks of the shard in parallel.
func (e *Executor) forRange(body func(lo, hi int)) {
	e.pool.For(len(e.data), 0, body)
}

// reduceChunks evaluates a compensated partial sum per fixed-size chunk
// and merges the chunk partials in order, mirroring engine.Vector's
// deterministic reduction shape. body receives the chunk's global offset
// and data, the shape every scalar kernel takes.
func (e *Executor) reduceChunks(body func(offset uint64, data []float64) prob.Accumulator) float64 {
	const chunk = 1 << 14
	n := len(e.data)
	parts := (n + chunk - 1) / chunk
	partials := make([]prob.Accumulator, parts)
	e.pool.For(parts, 1, func(plo, phi int) {
		for p := plo; p < phi; p++ {
			lo := p * chunk
			hi := min(lo+chunk, n)
			partials[p] = body(e.lo+uint64(lo), e.data[lo:hi])
		}
	})
	var total prob.Accumulator
	for _, acc := range partials {
		total.Merge(acc)
	}
	return total.Value()
}

// shardMass is the reduceChunks body of OpMass (and the prior build).
func shardMass(_ uint64, data []float64) prob.Accumulator { return kernel.Mass(data) }

func (e *Executor) buildPrior(req Request) Response {
	n := len(req.Risks)
	if n == 0 || n > MaxSubjects {
		return errorf(req.Op, "invalid cohort size %d", n)
	}
	total := uint64(1) << uint(n)
	if req.Lo >= req.Hi || req.Hi > total {
		return errorf(req.Op, "invalid shard range [%d,%d) of %d", req.Lo, req.Hi, total)
	}
	odds, base, err := kernel.PriorOdds(req.Risks)
	if err != nil {
		return errorf(req.Op, "%v", err)
	}
	e.n = n
	e.lo = req.Lo
	e.data = make([]float64, req.Hi-req.Lo)
	e.noteShard()
	e.forRange(func(lo, hi int) {
		kernel.Prior(e.lo+uint64(lo), e.data[lo:hi], odds, base)
	})
	return Response{Op: req.Op, Sum: e.reduceChunks(shardMass)}
}

// loadShard installs a driver-supplied shard verbatim: the scatter half of
// driver-side conditioning (and of checkpoint restores). Unlike BuildPrior
// it accepts an empty range, so a lattice that has shrunk below the
// executor count still keeps every connection assigned.
func (e *Executor) loadShard(req Request) Response {
	n := len(req.Risks)
	if n == 0 || n > MaxSubjects {
		return errorf(req.Op, "invalid cohort size %d", n)
	}
	total := uint64(1) << uint(n)
	if req.Lo > req.Hi || req.Hi > total {
		return errorf(req.Op, "invalid shard range [%d,%d) of %d", req.Lo, req.Hi, total)
	}
	if uint64(len(req.Data)) != req.Hi-req.Lo {
		return errorf(req.Op, "shard payload has %d states, range holds %d", len(req.Data), req.Hi-req.Lo)
	}
	for _, w := range req.Data {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return errorf(req.Op, "invalid shard mass %v", w)
		}
	}
	e.n = n
	e.lo = req.Lo
	// make (not append) so an empty shard is non-nil: nil means "no shard
	// built" to dispatch, and an empty shard is a built shard.
	e.data = make([]float64, req.Hi-req.Lo)
	copy(e.data, req.Data)
	e.noteShard()
	return Response{Op: req.Op}
}

// updateMul rejects what lattice.Update and the driver reject — a pool
// reaching outside the cohort, a likelihood table of the wrong length or
// with a negative or NaN entry — so a bad request fails instead of
// poisoning the shard.
func (e *Executor) updateMul(req Request) Response {
	if req.Pool>>uint(e.n) != 0 {
		return errorf(req.Op, "pool %#x outside cohort of %d", req.Pool, e.n)
	}
	if want := bits.OnesCount64(req.Pool) + 1; len(req.Lik) != want {
		return errorf(req.Op, "likelihood table has %d entries, want %d", len(req.Lik), want)
	}
	for k, l := range req.Lik {
		if l < 0 || math.IsNaN(l) {
			return errorf(req.Op, "invalid likelihood %v at k=%d", l, k)
		}
	}
	return Response{Op: req.Op, Sum: e.reduceChunks(func(offset uint64, data []float64) prob.Accumulator {
		return kernel.UpdateMul(offset, data, req.Pool, req.Lik)
	})}
}

func (e *Executor) scale(req Request) Response {
	if math.IsNaN(req.Factor) || math.IsInf(req.Factor, 0) {
		return errorf(req.Op, "invalid factor %v", req.Factor)
	}
	e.forRange(func(lo, hi int) {
		kernel.Scale(e.data[lo:hi], req.Factor)
	})
	return Response{Op: req.Op}
}

func (e *Executor) sumWhere(req Request) Response {
	return Response{Op: req.Op, Sum: e.reduceChunks(func(offset uint64, data []float64) prob.Accumulator {
		return kernel.SumWhere(offset, data, req.Pool)
	})}
}

// marginals runs the radix marginal kernel single-threaded over the whole
// shard: it stays allocation-free, and shards are the unit of parallelism
// for vector-valued reductions on the wire.
func (e *Executor) marginals(req Request) Response {
	out := make([]float64, e.n)
	kernel.Marginals(e.lo, e.data, out)
	return Response{Op: req.Op, Vec: out}
}

// negMasses splits the candidate list across workers; each worker runs
// the tiled scan over the whole shard for its slice, so every out[c] has
// a single writer and the result does not depend on the split.
func (e *Executor) negMasses(req Request) Response {
	if len(req.Cands) == 0 {
		return errorf(req.Op, "no candidates")
	}
	out := make([]float64, len(req.Cands))
	e.pool.For(len(req.Cands), 1, func(clo, chi int) {
		kernel.NegMasses(e.lo, e.data, req.Cands[clo:chi], out[clo:chi])
	})
	return Response{Op: req.Op, Vec: out}
}

func (e *Executor) entropy(req Request) Response {
	return Response{Op: req.Op, Sum: e.reduceChunks(func(_ uint64, data []float64) prob.Accumulator {
		return kernel.Entropy(data)
	})}
}

func (e *Executor) intersect(req Request) Response {
	out := make([]float64, bits.OnesCount64(req.Pool)+1)
	kernel.IntersectDist(e.lo, e.data, req.Pool, out)
	return Response{Op: req.Op, Vec: out}
}

// prefixScan returns the shard's min-rank histogram for the halving
// prefix candidates (kernel.PrefixHist). The driver merges histograms and
// suffix-sums them into prefix clean masses.
func (e *Executor) prefixScan(req Request) Response {
	rank, err := kernel.NewRanks(req.Order, e.n)
	if err != nil {
		return errorf(req.Op, "%v", err)
	}
	out := make([]float64, len(req.Order)+1)
	kernel.PrefixHist(e.lo, e.data, rank, out)
	return Response{Op: req.Op, Vec: out}
}

// summary computes the shard's fused partial digest in one pass. Entropy
// ships in nats; the driver merges executor partials in rank order and
// converts to bits once.
func (e *Executor) summary(req Request) Response {
	pt := kernel.Summarize(e.lo, e.data, make([]float64, e.n))
	ws := &WireSummary{
		Marginals: pt.Marginals,
		Entropy:   pt.Entropy.Value(),
		Expected:  pt.Expected.Value(),
		Mass:      pt.Mass.Value(),
		MAPState:  pt.MAPState,
		MAPMass:   pt.MAPMass,
		MAPOK:     pt.MAPOK,
	}
	if !ws.MAPOK {
		ws.MAPMass = 0 // keep the wire form finite; MAPOK marks the argmax absent
	}
	return Response{Op: req.Op, Summary: ws}
}

func (e *Executor) mass(req Request) Response {
	return Response{Op: req.Op, Sum: e.reduceChunks(shardMass)}
}

// ListenAndServe runs an executor on addr until shutdown. It is the body
// of cmd/sbgt-exec.
func ListenAndServe(addr string, workers int) error {
	return ListenAndServeObs(addr, workers, nil, nil)
}

// ListenAndServeObs is ListenAndServe with the executor instrumented into
// reg (nil disables metrics) and logging through log (nil selects
// slog.Default).
func ListenAndServeObs(addr string, workers int, reg *obs.Registry, log *slog.Logger) error {
	return ListenAndServeTraced(addr, workers, reg, nil, log)
}

// ListenAndServeTraced is ListenAndServeObs with the executor's dispatch
// spans recorded into tracer — pass the runtime tracer backing the
// process's /spans endpoint so the executor side of every distributed
// trace is scrapeable in place as well as shipped back to the driver. A
// nil tracer keeps the executor's private one.
func ListenAndServeTraced(addr string, workers int, reg *obs.Registry, tracer *obs.Tracer, log *slog.Logger) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("cluster: listen %s: %w", addr, err)
	}
	defer l.Close()
	e := NewExecutor(workers)
	defer e.Close()
	if log != nil {
		e.SetLogger(log)
	}
	if tracer != nil {
		e.SetTracer(tracer)
	}
	e.Instrument(reg, "")
	e.log.Info("cluster executor: serving", "addr", l.Addr().String())
	return e.Serve(l)
}
