package main

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	edmac "github.com/edmac-project/edmac"
	"github.com/edmac-project/edmac/internal/core"
	"github.com/edmac-project/edmac/internal/jsonwire"
	"github.com/edmac-project/edmac/internal/macmodel"
	"github.com/edmac-project/edmac/internal/nbs"
	"github.com/edmac-project/edmac/internal/par"
	"github.com/edmac-project/edmac/internal/radio"
	"github.com/edmac-project/edmac/internal/serve"
	"github.com/edmac-project/edmac/internal/topology"
)

// --- deterministic request generation ---------------------------------

// draw is a splitmix64 stream: cheap enough to derive every request from
// (seed, index) without a per-request math/rand source.
type draw struct{ s uint64 }

func newDraw(seed int64, stream string, i int64) *draw {
	h := fnv.New64a()
	h.Write([]byte(stream))
	return &draw{s: uint64(seed)*0x9E3779B97F4A7C15 ^ h.Sum64() ^ uint64(i)*0xBF58476D1CE4E5B9}
}

func (d *draw) next() uint64 {
	d.s += 0x9E3779B97F4A7C15
	z := d.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (d *draw) intn(n int) int            { return int(d.next() % uint64(n)) }
func (d *draw) float() float64            { return float64(d.next()>>11) / (1 << 53) }
func (d *draw) pick(xs []float64) float64 { return xs[d.intn(len(xs))] }

// optimizeRequest is request i of a seeded /v1/optimize stream. It spans
// all five protocols, ring depth and density, sample intervals from
// minutes to a day, two radios, perfect and lossy links, the paper's
// requirements grid, and relaxed and strict solves, so both 200 and
// 422-infeasible answers occur.
func optimizeRequest(seed int64, stream string, i int64) edmac.OptimizeRequest {
	d := newDraw(seed, stream, i)
	protos := edmac.Protocols()
	s := edmac.DefaultScenario()
	s.Depth = 2 + d.intn(6)
	s.Density = 3 + d.intn(7)
	s.SampleInterval = math.Round(math.Pow(10, 2.5+2.4*d.float()))
	if d.intn(5) == 0 {
		s.Radio = "cc1101"
	}
	if d.intn(10) < 3 {
		s.LinkPRR = d.pick([]float64{0.8, 0.9, 0.95})
	}
	return edmac.OptimizeRequest{
		Protocol: protos[d.intn(len(protos))],
		Scenario: &s,
		Requirements: edmac.Requirements{
			EnergyBudget: d.pick(edmac.PaperBudgets()),
			MaxDelay:     d.pick(edmac.PaperDelays()),
		},
		Relaxed: d.intn(2) == 0,
	}
}

// --- the HTTP tier -----------------------------------------------------

// server is edserve's handler, called in process by the serving
// workloads and also served on a loopback listener.
type server struct {
	srv    *serve.Server
	cli    *edmac.Client
	h      http.Handler
	hs     *http.Server
	base   string
	served chan struct{}
}

func startServer(o serve.Options) (*server, error) {
	cli, err := edmac.NewClient(edmac.WithCache(edmac.DefaultCacheSize))
	if err != nil {
		return nil, err
	}
	o.Client = cli
	srv, err := serve.New(o)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	s := &server{srv: srv, cli: cli, h: srv.Handler(), base: "http://" + ln.Addr().String(), served: make(chan struct{})}
	s.hs = &http.Server{Handler: s.h}
	go func() {
		defer close(s.served)
		s.hs.Serve(ln)
	}()
	return s, nil
}

// close stops the listener, waits for the serve loop to exit and stops
// the job workers.
func (s *server) close() {
	s.hs.Close()
	<-s.served
	s.srv.Close()
}

// liveHeapAfterExpiry waits, at most wait, until the server holds no
// jobs (finished jobs expire after the job TTL), then returns the live
// heap. Measuring once the store is empty keeps the figure independent
// of where the janitor's tick fell; what stays is what the tier keeps
// for good.
func (s *server) liveHeapAfterExpiry(wait time.Duration) float64 {
	s.waitJobsExpired(wait)
	return liveHeapMB()
}

// waitJobsExpired waits, at most wait, until the server holds no jobs.
func (s *server) waitJobsExpired(wait time.Duration) {
	deadline := time.Now().Add(wait)
	for time.Now().Before(deadline) {
		rec := inProcess(s.h, http.MethodGet, "/healthz", nil)
		var hz struct {
			Jobs map[string]int `json:"jobs"`
		}
		if json.Unmarshal(rec.body, &hz) != nil {
			break
		}
		held := 0
		for _, n := range hz.Jobs {
			held += n
		}
		if held == 0 {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// newHTTPClient returns a client holding at most conns connections.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true,
	}, Timeout: time.Minute}
}

// reply is one HTTP exchange as the benchmark saw it.
type reply struct {
	status int
	cache  string
	body   []byte
	took   time.Duration
}

func do(c *http.Client, method, url string, body []byte) (reply, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return reply{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	t0 := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		return reply{}, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return reply{}, err
	}
	return reply{status: resp.StatusCode, cache: resp.Header.Get("X-Cache"), body: data, took: time.Since(t0)}, nil
}

// inProcess serves one request through the handler without a network,
// into a minimal in-memory response writer.
func inProcess(h http.Handler, method, url string, body []byte) reply {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		panic(err) // the benchmark's own paths always parse
	}
	w := &memWriter{h: http.Header{}}
	t0 := time.Now()
	h.ServeHTTP(w, req)
	took := time.Since(t0)
	return reply{status: w.status, cache: w.h.Get("X-Cache"), body: w.body.Bytes(), took: took}
}

// memWriter is the response writer of an in-process request.
type memWriter struct {
	h      http.Header
	status int
	body   bytes.Buffer
}

func (w *memWriter) Header() http.Header { return w.h }

func (w *memWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}

func (w *memWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.body.Write(p)
}

// loopStats is what one closed loop measured.
type loopStats struct {
	ops     int64
	latMS   []float64 // per operation
	at      []int64   // completion times, Unix ns
	start   time.Time
	cpuS    float64   // process CPU time over the loop
	instr   float64   // instructions retired over the loop
	jobMS   []float64 // job round trips
	tallies map[string]int64
	rt0     rtSample
	rt1     rtSample
	hits0   edmac.CacheStats
	hits1   edmac.CacheStats
}

// worker is one closed-loop client's view of the stats.
type worker struct {
	latMS, jobMS []float64
	at           []int64 // completion time of each latMS entry, Unix ns
	tallies      map[string]int64
}

// record notes one completed operation.
func (w *worker) record(took time.Duration) {
	w.latMS = append(w.latMS, float64(took)/float64(time.Millisecond))
	w.at = append(w.at, time.Now().UnixNano())
}

// closedLoop runs workers clients, each issuing one operation after
// another until the budget is spent. op receives a globally unique
// index, from which the request is generated.
func closedLoop(workers int, budget time.Duration, next *atomic.Int64, s *server,
	op func(w *worker, i int64)) *loopStats {
	st := &loopStats{tallies: map[string]int64{}, rt0: readRuntime(), hits0: s.cli.CacheStats()}
	ws := make([]*worker, workers)
	var wg sync.WaitGroup
	t0, cpu0, in0 := time.Now(), cpuSeconds(), instr.read()
	deadline := t0.Add(budget)
	for k := range ws {
		w := &worker{tallies: map[string]int64{}}
		ws[k] = w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				op(w, next.Add(1)-1)
			}
		}()
	}
	wg.Wait()
	st.cpuS, st.instr = cpuSeconds()-cpu0, instr.read()-in0
	st.start = t0
	st.rt1, st.hits1 = readRuntime(), s.cli.CacheStats()
	for _, w := range ws {
		st.latMS = append(st.latMS, w.latMS...)
		st.at = append(st.at, w.at...)
		st.jobMS = append(st.jobMS, w.jobMS...)
		for k, v := range w.tallies {
			st.tallies[k] += v
		}
	}
	st.ops = int64(len(st.latMS))
	return st
}

// medians returns the per-window medians of throughput and latency.
func (st *loopStats) medians() (rate, p50, p90 float64) {
	return windowMedians(windows(st.start, st.at, st.latMS, time.Second))
}

// instrPerOp is the instructions the process retired over the loop per
// completed operation.
func (st *loopStats) instrPerOp() float64 {
	return st.instr / float64(max(st.ops, 1))
}

// report fills the figures. instr_per_op and cpu.ms_per_op are the
// whole loop's instructions and CPU time per operation. The wall-clock figures are each the median over the
// run's windows of about a second of that window's throughput, median
// and 90th-percentile latency, so a few seconds of interference from
// outside the process move none of them.
func (st *loopStats) report(out *outcome, prefix string) {
	opsPerS, p50, p90 := st.medians()
	out.setOps(st.instrPerOp(), st.cpuS*1000/float64(max(st.ops, 1)), opsPerS, p50, p90)
	out.detail[prefix+"_per_s"] = metric{opsPerS, "1/s"}
	out.detail[prefix+"_p50_ms"] = metric{p50, "ms"}
	out.detail[prefix+"_p90_ms"] = metric{p90, "ms"}
	out.detail[prefix+"_p99_ms"] = metric{percentile(append([]float64(nil), st.latMS...), 0.99), "ms"}
	out.detail[prefix+"_samples"] = metric{float64(len(st.latMS)), "count"}
	if len(st.jobMS) > 0 {
		out.detail["job_share"] = metric{float64(len(st.jobMS)) / float64(max(st.ops, 1)), "ratio"}
		out.detail["job_rt_p50_ms"] = metric{median(st.jobMS), "ms"}
		out.detail["job_rt_p99_ms"] = metric{percentile(append([]float64(nil), st.jobMS...), 0.99), "ms"}
	}
	out.layer["runtime.gc_cpu_share"] = gcShare(st.rt0, st.rt1)
	out.layer["runtime.alloc_bytes_per_op"] = allocPerOp(st.rt0, st.rt1, st.ops)
	lookups := (st.hits1.Hits - st.hits0.Hits) + (st.hits1.Misses - st.hits0.Misses)
	if lookups > 0 {
		out.layer["client.cache_hit_ratio"] = float64(st.hits1.Hits-st.hits0.Hits) / float64(lookups)
	}
	if n := st.tallies["HIT"] + st.tallies["MISS"] + st.tallies["COALESCED"]; n > 0 {
		out.layer["lru.hit_ratio"] = float64(st.tallies["HIT"]) / float64(n)
	}
	out.layer["serve.coalesced"] = float64(st.tallies["COALESCED"])
}

// --- optimize-cold ----------------------------------------------------

// expectedOptimize is the response the serve tier must give for req:
// Client.Optimize from a fresh client, marshalled the way the handler
// marshals it. Infeasible games answer the 422 error envelope.
func expectedOptimize(cli *edmac.Client, req edmac.OptimizeRequest) (int, []byte, error) {
	rep, err := cli.Optimize(context.Background(), req)
	status, v := http.StatusOK, any(rep)
	if err != nil {
		if !errors.Is(err, edmac.ErrInfeasible) {
			return 0, nil, fmt.Errorf("optimize: %w", err)
		}
		type payload struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		}
		status, v = http.StatusUnprocessableEntity, struct {
			Error payload `json:"error"`
		}{payload{"infeasible", err.Error()}}
	}
	data, err := json.Marshal(v)
	return status, append(data, '\n'), err
}

func bodyHash(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// coldRecord is what the timed loop keeps of one cold request for the
// check that follows it.
type coldRecord struct {
	i      int64
	status int
	hash   uint64
}

func runOptimizeCold(ctx context.Context, env *runEnv) (*outcome, error) {
	out := newOutcome()
	const stream = "optimize-cold"
	// Set-up fills both 256-entry caches with a warm-up stream, so the
	// timed requests all miss and evict, as in steady state. Like
	// serve-hot, the loop calls the handler in process and loopback is
	// measured apart: over loopback the cold figures swung with the
	// host's load through cross-CPU wake-ups.
	s, setup, err := measureSetup(9, func() (*server, error) {
		s, err := startServer(serve.Options{})
		if err != nil {
			return nil, err
		}
		return s, warmOptimize(s.h, env.seed, env.workers, 2*edmac.DefaultCacheSize)
	}, (*server).close)
	if err != nil {
		return nil, err
	}
	defer s.close()
	out.setSetup(setup)
	var next atomic.Int64
	var recMu sync.Mutex
	var records []coldRecord
	coldOp := func(tr *tracer) func(w *worker, i int64) {
		return func(w *worker, i int64) {
			body, err := json.Marshal(optimizeRequest(env.seed, stream, i))
			if err != nil {
				panic(err) // a request struct always marshals
			}
			id := -1
			if tr != nil {
				id = tr.begin("serve.handler.optimize_miss", -1, i)
			}
			r := inProcess(s.h, http.MethodPost, "/v1/optimize", body)
			if tr != nil {
				tr.end(id)
			}
			w.record(r.took)
			w.tallies[r.cache]++
			recMu.Lock()
			records = append(records, coldRecord{i: i, status: r.status, hash: bodyHash(r.body)})
			recMu.Unlock()
		}
	}
	budget := time.Duration(env.seconds * float64(time.Second))
	if env.trace {
		budget = budget * 2 / 5
	}
	st := closedLoop(env.workers, budget, &next, s, coldOp(nil))
	st.report(out, "req")
	instrPerOp, p50, opsPerS := out.e2e["instr_per_op"], out.layer["wall.op_p50_ms"], out.layer["wall.ops_per_s"]

	// The check runs after the timed window: every answer must equal a
	// fresh client's, 422s included.
	if err := checkCold(env, stream, records, out); err != nil {
		return nil, err
	}
	records, st = nil, nil
	out.e2e["live_heap_mb"] = liveHeapMB()
	if !env.trace {
		return out, nil
	}

	tr := newTracer()
	out.tracer = tr
	traced := closedLoop(env.workers, budget, &next, s, coldOp(tr))
	tracedRate, tracedP50, _ := traced.medians()
	out.layer["trace.delta.instr_per_op"] = traced.instrPerOp() - instrPerOp
	out.layer["trace.delta.ops_per_s"] = tracedRate - opsPerS
	out.layer["trace.delta.op_p50_ms"] = tracedP50 - p50
	if err := checkCold(env, stream, records, out); err != nil {
		return nil, err
	}
	// The in-process replay is a fixed slice of its own stream, so its
	// counts (model evaluations above all) repeat exactly for a seed.
	replay := &serveReplay{tr: tr, h: s.h}
	acc := &layerAcc{}
	fresh, err := edmac.NewClient()
	if err != nil {
		return nil, err
	}
	for i := int64(0); i < replayOps/100; i++ {
		req := optimizeRequest(env.seed, "replay", i)
		root := tr.begin("request", -1, i)
		replay.cacheKey(root, i, "optimize", req)
		body, _ := json.Marshal(req)
		rec := replay.serve(root, i, "optimize_miss", http.MethodPost, "/v1/optimize", body)
		t0 := time.Now()
		_, cerr := fresh.Optimize(ctx, req)
		tr.record("client.optimize", root, i, t0, time.Since(t0))
		if err := countedSolve(req, tr, root, i, acc); err != nil {
			return nil, err
		}
		tr.end(root)
		if want := statusOf(cerr); rec.status != want {
			out.fail("in-process optimize %d: status %d, library says %d", i, rec.status, want)
		}
	}
	probe := optimizeRequest(env.seed, "probe", 0)
	for k := int64(1); ; k++ {
		probe.Relaxed = true
		if _, err := fresh.Optimize(ctx, probe); err == nil {
			break
		}
		probe = optimizeRequest(env.seed, "probe", k)
	}
	hc := newHTTPClient(1)
	defer hc.CloseIdleConnections()
	if err := replay.transport(hc, s.base, probe); err != nil {
		return nil, err
	}
	replay.fill(out)
	l := out.layer
	l["analytic.solve_s"] = time.Duration(acc.solveNS / max(acc.solves, 1)).Seconds()
	l["analytic.model_evals"] = float64(acc.evals) / float64(max(acc.solves, 1))
	l["analytic.model_s"] = time.Duration(acc.modelNS / max(acc.solves, 1)).Seconds()
	l["analytic.solver_self_s"] = l["analytic.solve_s"] - l["analytic.model_s"]
	l["analytic.infeasible_ratio"] = float64(acc.infeasible) / float64(max(acc.solves, 1))
	l["analytic.allocs_per_solve"] = float64(acc.solveAllocs) / float64(max(acc.solveAllocRuns, 1))
	return out, nil
}

// warmOptimize sends n requests of a warm-up stream, distinct from the
// timed one, on the given number of goroutines.
func warmOptimize(h http.Handler, seed int64, workers, n int) error {
	errs := make([]error, n)
	par.ForEach(context.Background(), n, workers, func(i int) {
		body, err := json.Marshal(optimizeRequest(seed, "warm-up", int64(i)))
		if err != nil {
			errs[i] = err
			return
		}
		if r := inProcess(h, http.MethodPost, "/v1/optimize", body); r.status != http.StatusOK && r.status != http.StatusUnprocessableEntity {
			errs[i] = fmt.Errorf("warm-up optimize %d: status %d", i, r.status)
		}
	})
	return errors.Join(errs...)
}

func statusOf(err error) int {
	switch {
	case err == nil:
		return http.StatusOK
	case errors.Is(err, edmac.ErrInfeasible):
		return http.StatusUnprocessableEntity
	}
	return http.StatusBadRequest
}

// checkCold recomputes every recorded answer on a fresh client, on the
// benchmark's worker count, and counts mismatches as failures.
func checkCold(env *runEnv, stream string, records []coldRecord, out *outcome) error {
	cli, err := edmac.NewClient()
	if err != nil {
		return err
	}
	errs := make([]error, len(records))
	par.ForEach(context.Background(), len(records), env.workers, func(n int) {
		r := records[n]
		status, want, err := expectedOptimize(cli, optimizeRequest(env.seed, stream, r.i))
		switch {
		case err != nil:
			errs[n] = fmt.Errorf("request %d: %w", r.i, err)
		case status != r.status || bodyHash(want) != r.hash:
			errs[n] = fmt.Errorf("request %d: status %d, library says %d, or the body differs", r.i, r.status, status)
		}
	})
	out.attempted += int64(len(records))
	infeasible := 0
	for n, r := range records {
		if r.status == http.StatusUnprocessableEntity {
			infeasible++
		}
		if errs[n] != nil {
			out.fail("optimize-cold: %v", errs[n])
		}
	}
	out.detail["infeasible_share"] = metric{float64(infeasible) / float64(max(len(records), 1)), "ratio"}
	return nil
}

// countedSolve plays req's game through core with a counting model,
// exactly as the client builds it, and accumulates the analytic layer's
// figures. It runs on one goroutine of an otherwise idle process, so the
// allocation counter is the solve's own.
func countedSolve(req edmac.OptimizeRequest, tr *tracer, parent int, op int64, acc *layerAcc) error {
	s := req.Scenario
	prof, err := radio.Profile(s.Radio)
	if err != nil {
		return err
	}
	env := macmodel.Env{Radio: prof, Rings: topology.RingModel{Depth: s.Depth, Density: s.Density},
		SampleRate: 1 / s.SampleInterval, Window: s.Window, Payload: s.Payload, LinkPRR: s.LinkPRR}
	m, err := macmodel.New(string(req.Protocol), env)
	if err != nil {
		return err
	}
	cm := &countingModel{Model: m}
	r := core.Requirements{EnergyBudget: req.Requirements.EnergyBudget, MaxDelay: req.Requirements.MaxDelay}
	a0 := mallocs()
	t0 := time.Now()
	if req.Relaxed {
		_, err = core.OptimizeRelaxed(cm, r)
	} else {
		_, err = core.Optimize(cm, r)
	}
	d := time.Since(t0)
	a1 := mallocs()
	tr.record("analytic.solve", parent, op, t0, d)
	acc.solves++
	acc.solveNS += int64(d)
	acc.modelNS += cm.ns.Load()
	acc.evals += cm.evals.Load()
	acc.solveAllocs += a1 - a0
	acc.solveAllocRuns++
	if errors.Is(err, nbs.ErrInfeasible) {
		acc.infeasible++
	} else if err != nil {
		return err
	}
	return nil
}

// replayOps is the number of operations a serving workload's traced
// run replays in process (optimize-cold replays a hundredth of it, each
// a full solve).
const replayOps = 30000

// serveReplay replays requests in-process through the handler on one
// goroutine, timing each layer call the benchmark can make from
// outside: the canonical cache key and the whole handler.
type serveReplay struct {
	tr       *tracer
	h        http.Handler
	handler  map[string][]float64 // µs by request kind
	keyUS    []float64
	allocs   []float64
	bornDone []float64
	transUS  float64
}

func (r *serveReplay) cacheKey(parent int, op int64, kind string, v any) {
	t0 := time.Now()
	jsonwire.CacheKey(kind, v)
	d := time.Since(t0)
	r.tr.record("serve.cachekey", parent, op, t0, d)
	r.keyUS = append(r.keyUS, float64(d)/float64(time.Microsecond))
}

func (r *serveReplay) serve(parent int, op int64, kind, method, url string, body []byte) reply {
	if r.handler == nil {
		r.handler = map[string][]float64{}
	}
	a0 := mallocs()
	rec := inProcess(r.h, method, url, body)
	a1 := mallocs()
	r.tr.record("serve.handler."+kind, parent, op, time.Now().Add(-rec.took), rec.took)
	r.handler[kind] = append(r.handler[kind], float64(rec.took)/float64(time.Microsecond))
	r.allocs = append(r.allocs, float64(a1-a0))
	return rec
}

// transport measures what loopback adds to a cached optimize: the
// median round trip over one connection minus the median in-process
// handler time of the same request.
func (r *serveReplay) transport(hc *http.Client, base string, req edmac.OptimizeRequest) error {
	req.Relaxed = true
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	if w, err := do(hc, http.MethodPost, base+"/v1/optimize", body); err != nil || w.status != http.StatusOK {
		return fmt.Errorf("transport probe warm-up: status %d, %v", w.status, err)
	}
	var rt, inproc []float64
	for k := 0; k < 500; k++ {
		w, err := do(hc, http.MethodPost, base+"/v1/optimize", body)
		if err != nil {
			return err
		}
		rt = append(rt, float64(w.took)/float64(time.Microsecond))
		rec := r.serve(-1, -1, "optimize_hit", http.MethodPost, "/v1/optimize", body)
		if rec.cache != "HIT" {
			return fmt.Errorf("transport probe: expected a cache hit")
		}
		inproc = append(inproc, r.handler["optimize_hit"][len(r.handler["optimize_hit"])-1])
	}
	r.transUS = median(rt) - median(inproc)
	return nil
}

// fill writes the serve-layer per-layer metrics.
func (r *serveReplay) fill(out *outcome) {
	for _, kind := range []string{"optimize_hit", "optimize_miss", "simulate_hit", "job_submit", "job_status", "job_result"} {
		out.layer["serve.handler_us."+kind] = mean(r.handler[kind])
	}
	out.layer["serve.cachekey_us"] = mean(r.keyUS)
	out.layer["serve.allocs_per_req"] = mean(r.allocs)
	out.layer["serve.transport_us"] = r.transUS
	out.layer["jobs.born_done_us"] = mean(r.bornDone)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// --- serve-hot --------------------------------------------------------

// hotKey is one warmed request and the bytes its warm-up answered.
type hotKey struct {
	kind string // "optimize" or "simulate"
	req  any
	body []byte // request document
	want []byte // warm-up response
}

// hotSetup is the serve-hot server with its warmed keys.
type hotSetup struct {
	s    *server
	keys []hotKey
	bad  []string // warm-up answers that differ from the library's
}

// jobTTL is how long finished jobs are kept on jobs-suite: shorter than
// a run, so the job store reaches steady state.
const jobTTL = 2 * time.Second

// hotJobTTL is the job TTL on serve-hot. The janitor sweeps once a
// second, so the store holds up to (TTL + 1 s) of born-done jobs: about
// 48k at the ~30k jobs/s measured on a 2-CPU VM.
//
// The store's map never shrinks, so the live heap keeps the capacity of
// the most jobs the store ever held. That capacity grows in steps that
// double it, near 57k and 115k entries, so left to itself live_heap_mb
// would jump a step whenever the host's load moved the job rate across
// one. Set-up therefore fills the store once with hotPrefillJobs
// born-done jobs, midway between the steps, and lets them expire: the
// capacity is then that of the prefill for any job rate below ~70k/s.
// hotPrefillJobs is the number of born-done jobs set-up submits to size
// the job store (see hotJobTTL).
const hotPrefillJobs = 86_000

const hotJobTTL = 600 * time.Millisecond

// simulateScenarios are the builtins the simulate keys draw from.
var simulateScenarios = []string{"ring-baseline", "disk-meadow", "grid-campus", "ring-lossy", "disk-dense"}

// newHotSetup starts the server and warms its cache with 8 optimize and
// 8 simulate keys drawn from the seed.
func newHotSetup(seed int64) (*hotSetup, error) {
	s, err := startServer(serve.Options{JobTTL: hotJobTTL})
	if err != nil {
		return nil, err
	}
	hs := &hotSetup{s: s}
	warm := func(kind string, req any) (bool, error) {
		body, err := json.Marshal(req)
		if err != nil {
			return false, err
		}
		rec := inProcess(s.h, http.MethodPost, "/v1/"+kind, body)
		if rec.status != http.StatusOK {
			return false, nil
		}
		hs.keys = append(hs.keys, hotKey{kind: kind, req: req, body: body, want: rec.body})
		return true, nil
	}
	// Key n plays protocol n mod 5 (and simulates scenario n mod 5 with
	// protocol n mod 4), so every seed warms the same mix of response
	// shapes and only the values differ.
	cli, err := edmac.NewClient()
	if err != nil {
		s.close()
		return nil, err
	}
	for i, n := int64(0), 0; n < 8; i++ {
		req := optimizeRequest(seed, "serve-hot", i)
		req.Protocol = edmac.Protocols()[n%5]
		req.Relaxed = true
		ok, err := warm("optimize", req)
		if err != nil || i > 1000 {
			s.close()
			return nil, cmp.Or(err, fmt.Errorf("no feasible optimize keys"))
		}
		if !ok {
			continue
		}
		n++
		// The warm-up answer is what every hit must repeat, so it must
		// itself be the library's.
		if _, want, err := expectedOptimize(cli, req); err != nil || !bytes.Equal(want, hs.keys[len(hs.keys)-1].want) {
			hs.bad = append(hs.bad, fmt.Sprintf("warm-up optimize %d differs from the library (%v)", i, err))
		}
	}
	simProtos := []edmac.Protocol{edmac.XMAC, edmac.DMAC, edmac.LMAC, edmac.BMAC}
	for i, n := int64(0), 0; n < 8; i++ {
		d := newDraw(seed, "serve-hot-simulate", i)
		name := simulateScenarios[n%len(simulateScenarios)]
		p := simProtos[n%len(simProtos)]
		sp, _ := edmac.BuiltinScenario(name)
		sc, err := sp.Scenario()
		if err != nil {
			s.close()
			return nil, err
		}
		res, err := cli.Optimize(context.Background(),
			edmac.OptimizeRequest{Protocol: p, Scenario: &sc, Requirements: edmac.PaperRequirements(), Relaxed: true})
		if err != nil {
			continue
		}
		req := edmac.SimulateRequest{Protocol: p, ScenarioName: name, Params: res.Result.Bargain.Params,
			Options: edmac.SimOptions{Duration: 60 + float64(d.intn(120)), Seed: int64(d.intn(1 << 20))}}
		ok, err := warm("simulate", req)
		if err != nil || i > 1000 {
			s.close()
			return nil, cmp.Or(err, fmt.Errorf("no runnable simulate keys"))
		}
		if ok {
			n++
		}
	}
	for i := 0; i < hotPrefillJobs; i++ {
		if rec := inProcess(s.h, http.MethodPost, "/v1/jobs", jobDoc(hs.keys[i%len(hs.keys)])); rec.status != http.StatusAccepted {
			s.close()
			return nil, fmt.Errorf("prefilling the job store: status %d, body %.120s", rec.status, rec.body)
		}
	}
	return hs, nil
}

// hotMix is the serve-hot request schedule: cmd/edload's default mix
// (optimize=4, simulate=1, jobs=1) expanded round robin, as edload
// expands it. Operation i runs hotMix[i mod 6], so each kind's share is
// fixed whatever the request rate.
var hotMix = []string{"optimize", "simulate", "job", "optimize", "optimize", "optimize"}

// hotOp returns operation i of a serve-hot stream: a cached optimize, a
// cached simulate, or a born-done job round trip (submit, status,
// result) on any cached key. A round trip is one operation, as it is
// one result to its user.
func hotOp(seed int64, stream string, i int64, keys []hotKey) (kind string, key hotKey) {
	kind = hotMix[i%int64(len(hotMix))]
	var pool []hotKey
	for _, k := range keys {
		if kind == "job" || k.kind == kind {
			pool = append(pool, k)
		}
	}
	return kind, pool[newDraw(seed, stream, i).intn(len(pool))]
}

// jobBody is the subset of a job status document the benchmark reads.
type jobBody struct {
	ID    string `json:"id"`
	State string `json:"state"`
}

func runServeHot(ctx context.Context, env *runEnv) (*outcome, error) {
	out := newOutcome()
	h, setup, err := measureSetup(5, func() (*hotSetup, error) { return newHotSetup(env.seed) },
		func(h *hotSetup) { h.s.close() })
	if err != nil {
		return nil, err
	}
	defer h.s.close()
	// The prefilled jobs expire before timing starts.
	h.s.waitJobsExpired(hotJobTTL + 2*time.Second)
	out.setSetup(setup)
	out.attempted += int64(len(h.keys))
	for _, b := range h.bad {
		out.fail("serve-hot: %s", b)
	}
	// A failed operation is attempted but not timed.
	var failMu sync.Mutex
	fail := func(format string, args ...any) {
		failMu.Lock()
		defer failMu.Unlock()
		out.attempted++
		out.fail(format, args...)
	}
	// The loop calls the handler in process: loopback transport is
	// measured apart (serve.transport_us), because its wake-ups made the
	// serving figures swing with the host's load.
	hot := func(tr *tracer) func(w *worker, i int64) {
		return func(w *worker, i int64) {
			kind, key := hotOp(env.seed, "serve-hot-mix", i, h.keys)
			root := -1
			if tr != nil {
				root = tr.begin("op."+kind, -1, i)
				defer tr.end(root)
			}
			call := func(name, method, path string, body []byte) reply {
				id := -1
				if tr != nil {
					id = tr.begin("serve.handler."+name, root, i)
				}
				r := inProcess(h.s.h, method, path, body)
				if tr != nil {
					tr.end(id)
				}
				if r.cache != "" {
					w.tallies[r.cache]++
				}
				return r
			}
			if kind != "job" {
				r := call(kind+"_hit", http.MethodPost, "/v1/"+kind, key.body)
				if r.status != http.StatusOK || r.cache != "HIT" || !bytes.Equal(r.body, key.want) {
					fail("serve-hot %s: status %d, cache %q, body equal to warm-up: %v",
						kind, r.status, r.cache, bytes.Equal(r.body, key.want))
					return
				}
				w.record(r.took)
				return
			}
			t0 := time.Now()
			var jb jobBody
			sub := call("job_submit", http.MethodPost, "/v1/jobs", jobDoc(key))
			if sub.status != http.StatusAccepted || json.Unmarshal(sub.body, &jb) != nil || jb.State != "done" {
				fail("serve-hot job submit: status %d, body %.120s", sub.status, sub.body)
				return
			}
			st := call("job_status", http.MethodGet, "/v1/jobs/"+jb.ID, nil)
			if st.status != http.StatusOK || json.Unmarshal(st.body, &jb) != nil || jb.State != "done" {
				fail("serve-hot job status: status %d, body %.120s", st.status, st.body)
				return
			}
			res := call("job_result", http.MethodGet, "/v1/jobs/"+jb.ID+"/result", nil)
			if res.status != http.StatusOK || !bytes.Equal(res.body, key.want) {
				fail("serve-hot job result: status %d, body differs from warm-up", res.status)
				return
			}
			took := time.Since(t0)
			w.record(took)
			w.jobMS = append(w.jobMS, float64(took)/float64(time.Millisecond))
		}
	}
	budget := time.Duration(env.seconds * float64(time.Second))
	if env.trace {
		budget = budget * 2 / 5
	}
	var next atomic.Int64
	st := closedLoop(env.workers, budget, &next, h.s, hot(nil))
	st.report(out, "req")
	out.attempted += st.ops
	instrPerOp, p50, opsPerS := out.e2e["instr_per_op"], out.layer["wall.op_p50_ms"], out.layer["wall.ops_per_s"]
	st = nil
	out.e2e["live_heap_mb"] = h.s.liveHeapAfterExpiry(hotJobTTL + 2*time.Second)
	if !env.trace {
		return out, nil
	}

	tr := newTracer()
	out.tracer = tr
	traced := closedLoop(env.workers, budget, &next, h.s, hot(tr))
	out.attempted += traced.ops
	tracedRate, tracedP50, _ := traced.medians()
	out.layer["trace.delta.instr_per_op"] = traced.instrPerOp() - instrPerOp
	out.layer["trace.delta.ops_per_s"] = tracedRate - opsPerS
	out.layer["trace.delta.op_p50_ms"] = tracedP50 - p50
	replay := &serveReplay{tr: tr, h: h.s.h}
	for i := int64(0); i < replayOps; i++ {
		kind, key := hotOp(env.seed, "serve-hot-replay", i, h.keys)
		root := tr.begin("op."+kind, -1, i)
		replay.cacheKey(root, i, key.kind, key.req)
		out.attempted++
		switch kind {
		case "optimize", "simulate":
			rec := replay.serve(root, i, kind+"_hit", http.MethodPost, "/v1/"+kind, key.body)
			if rec.status != http.StatusOK || !bytes.Equal(rec.body, key.want) {
				out.fail("in-process %s: status %d, body differs from warm-up", kind, rec.status)
			}
		default:
			// A born-done round trip is its three handler calls.
			rec := replay.serve(root, i, "job_submit", http.MethodPost, "/v1/jobs", jobDoc(key))
			var jb jobBody
			if rec.status != http.StatusAccepted || json.Unmarshal(rec.body, &jb) != nil {
				out.fail("in-process job submit: status %d", rec.status)
				break
			}
			took := rec.took
			took += replay.serve(root, i, "job_status", http.MethodGet, "/v1/jobs/"+jb.ID, nil).took
			rec = replay.serve(root, i, "job_result", http.MethodGet, "/v1/jobs/"+jb.ID+"/result", nil)
			took += rec.took
			replay.bornDone = append(replay.bornDone, float64(took)/float64(time.Microsecond))
			if rec.status != http.StatusOK || !bytes.Equal(rec.body, key.want) {
				out.fail("in-process job result: status %d, body differs from warm-up", rec.status)
			}
		}
		tr.end(root)
	}
	var probe edmac.OptimizeRequest
	for _, k := range h.keys {
		if k.kind == "optimize" {
			probe = k.req.(edmac.OptimizeRequest)
			break
		}
	}
	hc := newHTTPClient(1)
	defer hc.CloseIdleConnections()
	if err := replay.transport(hc, h.s.base, probe); err != nil {
		return nil, err
	}
	replay.fill(out)
	return out, nil
}

// jobDoc wraps a key's request document into a job submission.
func jobDoc(k hotKey) []byte {
	return append(append([]byte(`{"`+k.kind+`":`), k.body...), '}')
}
