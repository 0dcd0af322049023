package main

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	edmac "github.com/edmac-project/edmac"
	"github.com/edmac-project/edmac/internal/adapt"
	"github.com/edmac-project/edmac/internal/core"
	"github.com/edmac-project/edmac/internal/macmodel"
	"github.com/edmac-project/edmac/internal/nbs"
	"github.com/edmac-project/edmac/internal/opt"
	"github.com/edmac-project/edmac/internal/par"
	"github.com/edmac-project/edmac/internal/scenario"
	"github.com/edmac-project/edmac/internal/sim"
	"github.com/edmac-project/edmac/internal/topology"
	"github.com/edmac-project/edmac/internal/traffic"
)

// goldenPath is the committed suite report the suite workload must
// reproduce byte for byte, and its settings.
const (
	goldenPath     = "cmd/edsim/testdata/suite_golden.json"
	goldenSeed     = 1
	goldenDuration = 400
)

// suiteInputs is the suite workload's generated input: the builtin
// matrix in a seed-chosen scenario and protocol order. Cell results do
// not depend on the order (each cell's simulation seed derives from its
// names), so every pass canonicalizes back to the golden.
type suiteInputs struct {
	specs  []edmac.ScenarioSpec
	protos []edmac.Protocol
}

func makeSuiteInputs(seed int64) suiteInputs {
	rng := rand.New(rand.NewSource(seed))
	specs := edmac.BuiltinScenarios()
	protos := edmac.Protocols()
	rng.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	rng.Shuffle(len(protos), func(i, j int) { protos[i], protos[j] = protos[j], protos[i] })
	return suiteInputs{specs: specs, protos: protos}
}

func (in suiteInputs) request(workers int) edmac.SuiteRequest {
	return edmac.SuiteRequest{Scenarios: in.specs, Protocols: in.protos,
		Options: edmac.SuiteOptions{Duration: goldenDuration, Seed: goldenSeed, Workers: workers}}
}

// suiteSetup is everything the timed passes reuse.
type suiteSetup struct {
	cli     *edmac.Client
	in      suiteInputs
	golden  []byte
	cells   map[string][]byte // golden cell JSON by scenario/protocol
	warmBad int               // cells of the warm-up pass that differ
}

func newSuiteSetup(seed int64, workers int) (*suiteSetup, error) {
	cli, err := edmac.NewClient(edmac.WithWorkers(workers))
	if err != nil {
		return nil, err
	}
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		return nil, fmt.Errorf("suite golden: %w", err)
	}
	var rep edmac.SuiteReport
	if err := json.Unmarshal(golden, &rep); err != nil {
		return nil, fmt.Errorf("suite golden: %w", err)
	}
	cells := make(map[string][]byte, len(rep.Cells))
	for _, c := range rep.Cells {
		data, err := json.Marshal(c)
		if err != nil {
			return nil, err
		}
		cells[cellKey(c.Scenario, string(c.Protocol))] = data
	}
	in := makeSuiteInputs(seed)
	// Materialize every scenario once, as a client would validate its
	// inputs before serving them.
	for _, sp := range in.specs {
		if _, err := sp.Scenario(); err != nil {
			return nil, err
		}
	}
	return &suiteSetup{cli: cli, in: in, golden: golden, cells: cells}, nil
}

func cellKey(scenario, protocol string) string { return scenario + "/" + protocol }

// canonicalJSON re-orders a report into the builtin registry order the
// golden was written in and encodes it.
func canonicalJSON(rep *edmac.SuiteReport) ([]byte, error) {
	specs, protos := edmac.BuiltinScenarios(), edmac.Protocols()
	rows := make(map[string]edmac.SuiteScenario, len(rep.Scenarios))
	for _, s := range rep.Scenarios {
		rows[s.Name] = s
	}
	cells := make(map[string]edmac.SuiteCell, len(rep.Cells))
	for _, c := range rep.Cells {
		cells[cellKey(c.Scenario, string(c.Protocol))] = c
	}
	out := *rep
	out.Protocols = protos
	out.Scenarios = make([]edmac.SuiteScenario, 0, len(specs))
	out.Cells = make([]edmac.SuiteCell, 0, len(specs)*len(protos))
	for _, sp := range specs {
		out.Scenarios = append(out.Scenarios, rows[sp.Name()])
		for _, p := range protos {
			out.Cells = append(out.Cells, cells[cellKey(sp.Name(), string(p))])
		}
	}
	return out.JSON()
}

// checkPass compares one pass with the golden and returns how many of
// its cells differ (1 when only the scenario rows do).
func (s *suiteSetup) checkPass(rep *edmac.SuiteReport) (int, error) {
	data, err := canonicalJSON(rep)
	if err != nil {
		return 0, err
	}
	if bytes.Equal(data, s.golden) {
		return 0, nil
	}
	bad := 0
	for _, c := range rep.Cells {
		got, err := json.Marshal(c)
		if err != nil {
			return 0, err
		}
		if !bytes.Equal(got, s.cells[cellKey(c.Scenario, string(c.Protocol))]) {
			bad++
		}
	}
	return max(bad, 1), nil
}

// suiteStats is what the untraced passes measured.
type suiteStats struct {
	passes   []float64 // wall seconds
	cpu      []float64 // process CPU seconds
	instr    []float64 // instructions retired
	last     *edmac.SuiteReport
	rt0, rt1 rtSample
}

// suitePasses runs the suite pass after pass for the budget and checks
// every pass against the golden. A pass is the workload's operation.
func suitePasses(ctx context.Context, s *suiteSetup, workers int, budget time.Duration, out *outcome) (*suiteStats, error) {
	req := s.in.request(workers)
	st := &suiteStats{rt0: readRuntime()}
	begin := time.Now()
	for len(st.passes) == 0 || time.Since(begin) < budget {
		t0, cpu0, in0 := time.Now(), cpuSeconds(), instr.read()
		rep, err := s.cli.Suite(ctx, req)
		d, cpu, in := time.Since(t0), cpuSeconds()-cpu0, instr.read()-in0
		if err != nil {
			return nil, err
		}
		st.passes = append(st.passes, d.Seconds())
		st.cpu = append(st.cpu, cpu)
		st.instr = append(st.instr, in)
		st.last = rep
		bad, err := s.checkPass(rep)
		if err != nil {
			return nil, err
		}
		out.attempted += int64(len(rep.Cells))
		if bad > 0 {
			out.failed += int64(bad - 1)
			out.fail("suite pass %d: %d cells differ from %s", len(st.passes), bad, goldenPath)
		}
	}
	st.rt1 = readRuntime()
	return st, nil
}

// passFigures returns passes per second and the median and 90th
// percentile pass time in milliseconds.
func passFigures(passes []float64) (opsPerS, p50, p90 float64) {
	ms := make([]float64, len(passes))
	for i, p := range passes {
		ms[i] = p * 1000
	}
	p50 = percentile(ms, 0.5)
	return 1000 / p50, p50, percentile(ms, 0.9)
}

func runSuiteWorkload(ctx context.Context, env *runEnv) (*outcome, error) {
	out := newOutcome()
	// Set-up ends with one checked warm-up pass, so the timed passes
	// start with the pools, the heap and the GC pacer in steady state.
	s, setup, err := measureSetup(3, func() (*suiteSetup, error) {
		s, err := newSuiteSetup(env.seed, env.workers)
		if err != nil {
			return nil, err
		}
		rep, err := s.cli.Suite(ctx, s.in.request(env.workers))
		if err != nil {
			return nil, err
		}
		s.warmBad, err = s.checkPass(rep)
		return s, err
	}, func(*suiteSetup) {})
	if err != nil {
		return nil, err
	}
	out.attempted += int64(len(s.in.specs) * len(s.in.protos))
	if s.warmBad > 0 {
		out.failed += int64(s.warmBad - 1)
		out.fail("suite warm-up pass: %d cells differ from %s", s.warmBad, goldenPath)
	}
	budget := time.Duration(env.seconds * float64(time.Second))
	if env.trace {
		budget /= 2
	}
	st, err := suitePasses(ctx, s, env.workers, budget, out)
	if err != nil {
		return nil, err
	}
	opsPerS, p50, p90 := passFigures(st.passes)
	instrPerOp := median(st.instr)
	out.setSetup(setup)
	out.setOps(instrPerOp, median(st.cpu)*1000, opsPerS, p50, p90)
	nCells := float64(len(s.in.specs) * len(s.in.protos))
	out.detail["cells_per_s"] = metric{nCells * opsPerS, "1/s"}
	out.detail["pass_p50_s"] = metric{p50 / 1000, "s"}
	out.detail["passes"] = metric{float64(len(st.passes)), "count"}
	out.layer["runtime.gc_cpu_share"] = gcShare(st.rt0, st.rt1)
	out.layer["runtime.alloc_bytes_per_op"] = allocPerOp(st.rt0, st.rt1, int64(len(st.passes)))
	last := st.last
	st = nil
	out.e2e["live_heap_mb"] = liveHeapMB()
	if env.trace {
		if err := traceSuite(ctx, env, s, last, budget, instrPerOp, opsPerS, p50, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// --- traced replay ----------------------------------------------------

// countingModel counts and times every model evaluation the solver
// makes; it changes no result.
type countingModel struct {
	macmodel.Model
	evals atomic.Int64
	ns    atomic.Int64
}

func (m *countingModel) tick(t0 time.Time) {
	m.ns.Add(int64(time.Since(t0)))
	m.evals.Add(1)
}

func (m *countingModel) EnergyAt(x opt.Vector, ring int) macmodel.Components {
	t0 := time.Now()
	defer m.tick(t0)
	return m.Model.EnergyAt(x, ring)
}

func (m *countingModel) Energy(x opt.Vector) float64 {
	t0 := time.Now()
	defer m.tick(t0)
	return m.Model.Energy(x)
}

func (m *countingModel) Delay(x opt.Vector) float64 {
	t0 := time.Now()
	defer m.tick(t0)
	return m.Model.Delay(x)
}

// layerAcc accumulates the per-layer figures of traced work.
type layerAcc struct {
	mu                                          sync.Mutex
	simRuns, simNS, events, promos              int64
	peak                                        int
	simMats, simMatNS                           int64
	solves, infeasible, evals, solveNS, modelNS int64
	hooks, hookNS                               int64
	scenMats, scenMatNS                         int64
	allocs                                      map[string][2]uint64 // class → {mallocs, runs}
	solveAllocs, solveAllocRuns                 uint64
}

func (a *layerAcc) add(f func(a *layerAcc)) {
	a.mu.Lock()
	defer a.mu.Unlock()
	f(a)
}

// replayed is the part of a suite cell the traced replay reproduces.
type replayed struct {
	params    []float64
	phases    [][]float64
	sim, stat *sim.Result
	err       string
}

// matMeta is one scenario materialized for a traced pass.
type matMeta struct {
	spec     scenario.Spec
	mat      *scenario.Materialized
	env      macmodel.Env
	envErr   error
	minSlots int
}

// materializeTraced materializes a builtin scenario and derives the
// analytic environment exactly as the suite does.
func materializeTraced(spec scenario.Spec, duration float64, tr *tracer, parent int, op int64, acc *layerAcc) (matMeta, error) {
	t0 := time.Now()
	m, err := spec.Materialize()
	d := time.Since(t0)
	tr.record("scenario.materialize", parent, op, t0, d)
	acc.add(func(a *layerAcc) { a.scenMats++; a.scenMatNS += int64(d) })
	if err != nil {
		return matMeta{}, err
	}
	rate := m.MeanRate()
	if ph, ok := m.Traffic.(traffic.Phased); ok {
		if r := realizedRate(ph, m.Network, duration); r > 0 {
			rate = r
		}
	}
	ring := m.EquivalentRing()
	env := macmodel.Env{Radio: m.Radio, Rings: topology.RingModel{Depth: ring.Depth, Density: ring.Density},
		SampleRate: 1 / (1 / rate), Window: spec.Window, Payload: spec.Payload}
	if prr := m.Network.MeanLinkPRR(); prr < 1 {
		env.LinkPRR = prr
	}
	mm := matMeta{spec: spec, mat: m, env: env, envErr: env.Validate(), minSlots: m.Network.MinSlots()}
	return mm, nil
}

func realizedRate(ph traffic.Phased, net *topology.Network, duration float64) float64 {
	total := 0.0
	for k, win := range ph.Windows(duration) {
		if d := win.Duration(); d > 0 {
			total += d * traffic.MeanNonSinkRate(ph.Phases[k].Model.MeanRates(net))
		}
	}
	return total / duration
}

func effective(p string, v []float64, minSlots int) []float64 {
	out := append([]float64(nil), v...)
	if p == "lmac" && len(out) > 0 && int(math.Round(out[0])) < minSlots {
		out[0] = float64(minSlots)
	}
	return out
}

// simClass names the allocation class a cell's simulations fall in.
func simClass(spec scenario.Spec, m *scenario.Materialized) string {
	switch {
	case spec.Faulty():
		return "faulty"
	case len(spec.Phases) > 0:
		return "phased"
	case m.Network.Lossy():
		return "lossy"
	}
	return "perfect"
}

// replayCell plays one suite cell through the layers' own entry points,
// recording a span around each call. With sweep set it also counts the
// heap objects each solve and simulation allocates; the caller then
// runs it alone on an idle process.
func replayCell(ctx context.Context, mm matMeta, p string, tr *tracer, parent int, op int64, acc *layerAcc, sweep bool) replayed {
	var out replayed
	if mm.envErr != nil {
		out.err = mm.envErr.Error()
		return out
	}
	spec := mm.spec
	maxDelay := 3 + 1.2*float64(mm.mat.Network.Depth())
	req := core.Requirements{EnergyBudget: edmac.DefaultEnergyBudget(), MaxDelay: maxDelay}
	model, err := macmodel.New(p, mm.env)
	if err != nil {
		out.err = err.Error()
		return out
	}
	cm := &countingModel{Model: model}
	a0 := mallocs()
	t0 := time.Now()
	res, err := core.OptimizeRelaxed(cm, req)
	d := time.Since(t0)
	a1 := mallocs()
	tr.record("analytic.solve", parent, op, t0, d)
	acc.add(func(a *layerAcc) {
		a.solves++
		a.solveNS += int64(d)
		a.modelNS += cm.ns.Load()
		a.evals += cm.evals.Load()
		if errors.Is(err, nbs.ErrInfeasible) {
			a.infeasible++
		}
		if sweep {
			a.solveAllocs += a1 - a0
			a.solveAllocRuns++
		}
	})
	if err != nil {
		out.err = err.Error()
		return out
	}
	out.params = res.Bargain.Params
	phasedAdaptive := len(spec.Phases) > 0 && spec.Adaptation != nil && spec.Adaptation.Mode == scenario.AdaptPerPhase
	deathAdaptive := spec.Faulty() && spec.Adaptation != nil && spec.Adaptation.Mode == scenario.AdaptOnDeath
	// A phase that cannot be bargained voids the adaptive run; analytic-
	// only cells just keep the rows that could be.
	var phases []sim.PhaseConfig
	var phaseErr error
	if phasedAdaptive {
		t0 := time.Now()
		plan, err := adapt.PlanPhases(mm.mat, p, req, goldenDuration)
		tr.record("adapt.plan", parent, op, t0, time.Since(t0))
		if err != nil {
			phaseErr = err
		} else {
			for _, pp := range plan.Phases {
				if pp.Err != nil {
					phaseErr = cmp.Or(phaseErr, pp.Err)
					out.phases = append(out.phases, nil)
					continue
				}
				v := effective(p, pp.Tradeoff.Bargain.Params, mm.minSlots)
				out.phases = append(out.phases, v)
				phases = append(phases, sim.PhaseConfig{Params: opt.Vector(v), Until: pp.End})
			}
		}
	}
	if p == "scpmac" {
		return out
	}
	if phaseErr != nil {
		out.err = phaseErr.Error()
		return out
	}
	out.params = effective(p, res.Bargain.Params, mm.minSlots)
	capture, captureDB := spec.CaptureConfig()
	cfg := sim.Config{Protocol: p, Network: mm.mat.Network, Radio: mm.mat.Radio, Params: opt.Vector(out.params),
		Traffic: mm.mat.Traffic, Payload: spec.Payload, Duration: goldenDuration,
		Seed: cellSeed(spec.Name, p), Capture: capture, CaptureDB: captureDB}
	if f := spec.Failures; f != nil {
		cfg.Failures = &sim.FailureConfig{MTBF: f.MTBF, MTTR: f.MTTR}
		for _, ev := range f.Events {
			cfg.Failures.Events = append(cfg.Failures.Events,
				sim.FailureEvent{Node: topology.NodeID(ev.Node), At: ev.At, Duration: ev.Duration})
		}
	}
	if b := spec.Battery; b != nil {
		cfg.Battery = &sim.BatteryConfig{Capacity: b.CapacityJ}
	}
	t0 = time.Now()
	shared, err := sim.Materialize(cfg)
	d = time.Since(t0)
	tr.record("sim.materialize", parent, op, t0, d)
	acc.add(func(a *layerAcc) { a.simMats++; a.simMatNS += int64(d) })
	if err == nil {
		cfg.Shared = shared
	}
	class := simClass(spec, mm.mat)
	simSpan := -1 // the running simulation, parent of the hook's spans
	runSim := func(name string, f func() (*sim.Result, error)) (*sim.Result, error) {
		a0 := mallocs()
		simSpan = tr.begin(name, parent, op)
		t0 := time.Now()
		r, err := f()
		d := time.Since(t0)
		tr.end(simSpan)
		a1 := mallocs()
		if err != nil {
			return nil, err
		}
		acc.add(func(a *layerAcc) {
			a.simRuns++
			a.simNS += int64(d)
			a.events += int64(r.Events)
			a.promos += int64(r.WheelPromotions)
			a.peak = max(a.peak, r.PeakPending)
			if sweep {
				if a.allocs == nil {
					a.allocs = map[string][2]uint64{}
				}
				c := a.allocs[class]
				a.allocs[class] = [2]uint64{c[0] + a1 - a0, c[1] + 1}
			}
		})
		return r, nil
	}
	out.stat, err = runSim("sim.run", func() (*sim.Result, error) { return sim.RunContext(ctx, cfg) })
	if err != nil {
		out.err = err.Error()
		return out
	}
	if !phasedAdaptive && !deathAdaptive {
		return out
	}
	if spec.Faulty() {
		var reb sim.Rebargainer
		if deathAdaptive {
			hook, err := adapt.ReplaySurvivors(mm.mat, p, req)
			if err != nil {
				out.err = err.Error()
				return out
			}
			reb = func(alive []bool, phase int, at float64) (opt.Vector, error) {
				t0 := time.Now()
				v, err := hook(alive, phase, at)
				d := time.Since(t0)
				tr.record("adapt.replay", simSpan, op, t0, d)
				acc.add(func(a *layerAcc) { a.hooks++; a.hookNS += int64(d) })
				if err != nil {
					return nil, err
				}
				return opt.Vector(effective(p, v, mm.minSlots)), nil
			}
		}
		out.sim, err = runSim("sim.run_faulty", func() (*sim.Result, error) { return sim.RunFaultyContext(ctx, cfg, phases, reb) })
	} else {
		out.sim, err = runSim("sim.run_phased", func() (*sim.Result, error) { return sim.RunPhasedContext(ctx, cfg, phases) })
	}
	if err != nil {
		out.err = err.Error()
	}
	return out
}

// cellSeed mirrors the suite's per-cell seed derivation (FNV-1a over
// "scenario/protocol", folded into the base seed) for names free of '/'
// and '\', which every builtin is.
func cellSeed(scenarioName, p string) int64 {
	h := uint64(14695981039346656037)
	for _, c := range []byte(scenarioName + "/" + p) {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return goldenSeed ^ int64(h)
}

// matches reports whether a replayed cell equals the untraced report's.
func (r replayed) matches(c edmac.SuiteCell) bool {
	if r.err != "" || c.Err != "" {
		return r.err != "" && c.Err != ""
	}
	if !equalFloats(r.params, c.Params) || len(r.phases) != len(c.Phases) {
		return false
	}
	for i, ph := range c.Phases {
		if !equalFloats(r.phases[i], ph.Params) {
			return false
		}
	}
	if c.Adaptive {
		return sameSim(r.stat, c.StaticSim) && sameSim(r.sim, c.Sim)
	}
	return sameSim(r.stat, c.Sim)
}

func sameSim(r *sim.Result, s *edmac.SuiteSim) bool {
	if r == nil || s == nil {
		return r == nil && s == nil
	}
	return r.Metrics.Generated() == s.Generated && r.Metrics.Delivered() == s.Delivered &&
		r.Metrics.Dropped() == s.Dropped && r.Collisions == s.Collisions && r.Rebargains == s.Rebargains
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// tracedPass replays the whole matrix once on the worker pool, every
// cell on one goroutine, and returns the pass's wall time and summed
// cell busy time.
func tracedPass(ctx context.Context, in suiteInputs, workers int, tr *tracer, acc *layerAcc, last *edmac.SuiteReport,
	pass int64, untraced *int) (wall, busy time.Duration, err error) {
	byKey := make(map[string]edmac.SuiteCell, len(last.Cells))
	for _, c := range last.Cells {
		byKey[cellKey(c.Scenario, string(c.Protocol))] = c
	}
	t0 := time.Now()
	root := tr.begin("suite.pass", -1, pass)
	mats := make([]matMeta, len(in.specs))
	for i, sp := range in.specs {
		spec, ok := scenario.ByName(sp.Name())
		if !ok {
			return 0, 0, fmt.Errorf("builtin scenario %q not in the registry", sp.Name())
		}
		mm, err := materializeTraced(spec, goldenDuration, tr, root, pass, acc)
		if err != nil {
			return 0, 0, err
		}
		mats[i] = mm
	}
	n := len(in.specs) * len(in.protos)
	took := make([]time.Duration, n)
	got := make([]replayed, n)
	err = par.ForEach(ctx, n, workers, func(i int) {
		mm, p := mats[i/len(in.protos)], string(in.protos[i%len(in.protos)])
		id := tr.begin("suite.cell", root, pass)
		got[i] = replayCell(ctx, mm, p, tr, id, pass, acc, false)
		took[i] = tr.end(id)
	})
	tr.end(root)
	wall = time.Since(t0)
	if err != nil {
		return 0, 0, err
	}
	for i, r := range got {
		busy += took[i]
		c := byKey[cellKey(in.specs[i/len(in.protos)].Name(), string(in.protos[i%len(in.protos)]))]
		if !r.matches(c) {
			*untraced++
		}
	}
	return wall, busy, nil
}

// traceSuite is the suite's traced run: traced passes on the pool for
// the budget, then one sequential sweep that counts allocations per
// solve and per simulation class.
func traceSuite(ctx context.Context, env *runEnv, s *suiteSetup, last *edmac.SuiteReport, budget time.Duration,
	instrPerOp, opsPerS, p50 float64, out *outcome) error {
	tr := newTracer()
	out.tracer = tr
	acc := &layerAcc{}
	var passTimes, passInstr []float64
	var wall, busy time.Duration
	untraced, passes := 0, int64(0)
	begin := time.Now()
	for passes == 0 || time.Since(begin) < budget {
		in0 := instr.read()
		w, b, err := tracedPass(ctx, s.in, env.workers, tr, acc, last, passes, &untraced)
		if err != nil {
			return err
		}
		passInstr = append(passInstr, instr.read()-in0)
		wall += w
		busy += b
		passTimes = append(passTimes, w.Seconds())
		passes++
	}
	perPass := func(v int64) float64 { return float64(v) / float64(passes) }
	l := out.layer
	l["sim.run_s"] = time.Duration(acc.simNS / max(acc.simRuns, 1)).Seconds()
	l["sim.ns_per_event"] = float64(acc.simNS) / float64(max(acc.events, 1))
	l["sim.events"] = perPass(acc.events)
	l["sim.peak_pending"] = float64(acc.peak)
	l["sim.wheel_promotions"] = perPass(acc.promos)
	l["sim.materialize_s"] = time.Duration(acc.simMatNS / max(acc.simMats, 1)).Seconds()
	l["analytic.solve_s"] = time.Duration(acc.solveNS / max(acc.solves, 1)).Seconds()
	l["analytic.model_evals"] = float64(acc.evals) / float64(max(acc.solves, 1))
	l["analytic.model_s"] = time.Duration(acc.modelNS / max(acc.solves, 1)).Seconds()
	l["analytic.solver_self_s"] = l["analytic.solve_s"] - l["analytic.model_s"]
	l["analytic.infeasible_ratio"] = float64(acc.infeasible) / float64(max(acc.solves, 1))
	l["adapt.replay_s"] = time.Duration(acc.hookNS / max(acc.hooks, 1)).Seconds()
	l["adapt.rebargains"] = perPass(acc.hooks)
	l["scenario.materialize_s"] = time.Duration(acc.scenMatNS / max(acc.scenMats, 1)).Seconds()
	l["par.utilization"] = busy.Seconds() / (wall.Seconds() * float64(env.workers))
	l["trace.untraced_cells"] = float64(untraced) / float64(passes)
	tracedRate, tracedP50, _ := passFigures(passTimes)
	l["trace.delta.instr_per_op"] = median(passInstr) - instrPerOp
	l["trace.delta.ops_per_s"] = tracedRate - opsPerS
	l["trace.delta.op_p50_ms"] = tracedP50 - p50

	// The sweep runs cells one at a time so the process-wide allocation
	// counter sees one call at a time.
	sweep := &layerAcc{}
	quiet := newTracer()
	for _, sp := range s.in.specs {
		spec, _ := scenario.ByName(sp.Name())
		mm, err := materializeTraced(spec, goldenDuration, quiet, -1, 0, sweep)
		if err != nil {
			return err
		}
		for _, p := range s.in.protos {
			replayCell(ctx, mm, string(p), quiet, -1, 0, sweep, true)
		}
	}
	for _, class := range []string{"perfect", "lossy", "phased", "faulty"} {
		c := sweep.allocs[class]
		l["sim.allocs."+class] = float64(c[0]) / float64(max(c[1], 1))
	}
	l["analytic.allocs_per_solve"] = float64(sweep.solveAllocs) / float64(max(sweep.solveAllocRuns, 1))
	out.detail["traced_passes"] = metric{float64(passes), "count"}
	return nil
}
