// Command perfbench is the repository benchmark. One invocation runs
// one workload against the edmac library and its HTTP tier, driving
// them only through their exported entry points, checks every output,
// and prints the metrics as the last line of standard output:
//
//	perfbench --workload suite --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the line carries the end-to-end metrics; with
// --trace 1 a separate traced pass records spans around every layer
// call and the line carries the per-layer metrics instead. Run it from
// the repository root through perfbench/run.sh, which builds it. Spill
// directories, span files and full result files go under .bench_build/
// in the current directory. "perfbench compare A B" prints the ratios
// between two saved result files and refuses when their machine
// fingerprints differ. The work per operation is counted with the CPU's
// instruction counter through Linux perf events; where that counter is
// unavailable the benchmark refuses to run. METRICS.md explains every
// workload and metric.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// processStart approximates process start for setup_s.
var processStart = time.Now()

// instr counts the instructions the process retires; run opens it
// before any workload starts.
var instr *instrCounter

// buildDir is where a run's temporary and output files go, relative to
// the directory it runs in; the repository ignores it.
const buildDir = ".bench_build"

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the result line.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the end-to-end metrics every workload reports. The
// work per operation is counted in instructions, which a shared machine
// does not inflate; CPU and wall-clock time per operation are printed
// beside it and reported as per-layer metrics (cpu.*, wall.*).
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"live_heap_mb", "MB"},
	{"instr_per_op", "instr"},
}

// perLayer lists the per-layer metrics every traced run reports; a
// layer the workload never enters reads 0.
var perLayer = []struct{ name, unit string }{
	{"sim.run_s", "s"},
	{"sim.ns_per_event", "ns"},
	{"sim.events", "count"},
	{"sim.peak_pending", "count"},
	{"sim.wheel_promotions", "count"},
	{"sim.allocs.perfect", "count"},
	{"sim.allocs.lossy", "count"},
	{"sim.allocs.phased", "count"},
	{"sim.allocs.faulty", "count"},
	{"sim.materialize_s", "s"},
	{"analytic.solve_s", "s"},
	{"analytic.model_evals", "count"},
	{"analytic.model_s", "s"},
	{"analytic.solver_self_s", "s"},
	{"analytic.allocs_per_solve", "count"},
	{"analytic.infeasible_ratio", "ratio"},
	{"adapt.replay_s", "s"},
	{"adapt.rebargains", "count"},
	{"scenario.materialize_s", "s"},
	{"par.utilization", "ratio"},
	{"client.cache_hit_ratio", "ratio"},
	{"serve.handler_us.optimize_hit", "us"},
	{"serve.handler_us.optimize_miss", "us"},
	{"serve.handler_us.simulate_hit", "us"},
	{"serve.handler_us.job_submit", "us"},
	{"serve.handler_us.job_status", "us"},
	{"serve.handler_us.job_result", "us"},
	{"serve.cachekey_us", "us"},
	{"serve.allocs_per_req", "count"},
	{"serve.transport_us", "us"},
	{"lru.hit_ratio", "ratio"},
	{"serve.coalesced", "count"},
	{"jobs.queue_wait_ms", "ms"},
	{"jobs.finish_ms", "ms"},
	{"jobs.spill_files_per_job", "count"},
	{"jobs.born_done_us", "us"},
	{"runtime.gc_cpu_share", "ratio"},
	{"runtime.alloc_bytes_per_op", "bytes"},
	{"trace.untraced_cells", "count"},
	{"trace.delta.instr_per_op", "instr"},
	{"trace.delta.ops_per_s", "1/s"},
	{"trace.delta.op_p50_ms", "ms"},
	{"cpu.ms_per_op", "ms"},
	{"wall.setup_s", "s"},
	{"wall.ops_per_s", "1/s"},
	{"wall.op_p50_ms", "ms"},
	{"wall.op_p90_ms", "ms"},
}

// runEnv is what a workload gets: its inputs' seed, its time budget and
// where it may write.
type runEnv struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workers  int    // client goroutines and connections: nproc
	work     string // scratch directory for spill files, removed at exit
}

// outcome is what a workload measured.
type outcome struct {
	attempted, failed int64
	e2e               map[string]float64
	// detail holds the workload's own named figures (the per-workload
	// names such as cells_per_s or req_p50_ms), printed and saved but not
	// part of the result line.
	detail map[string]metric
	layer  map[string]float64
	tracer *tracer
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, detail: map[string]metric{}, layer: map[string]float64{}}
}

// fail counts one failed or mismatched operation and says why on
// standard error (at most a few lines per run).
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if o.failed <= 5 {
		fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	}
}

var workloads = map[string]func(context.Context, *runEnv) (*outcome, error){
	"suite":         runSuiteWorkload,
	"optimize-cold": runOptimizeCold,
	"serve-hot":     runServeHot,
	"jobs-suite":    runJobsSuite,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareFiles(os.Stdout, os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(context.Background(), os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "suite, optimize-cold, serve-hot or jobs-suite")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "length of the measured phase")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	wl, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)

	if instr, err = newInstrCounter(); err != nil {
		return err
	}
	defer instr.close()
	env := &runEnv{workload: *name, seed: *seed, seconds: *seconds, trace: *trace == 1,
		workers: runtime.NumCPU(), work: work}
	out, err := wl(ctx, env)
	if err != nil {
		return err
	}
	sum := summary{Correct: out.failed == 0 && out.attempted > 0, Attempted: out.attempted,
		Failed: out.failed, Metrics: map[string]metric{}}
	list, values := endToEnd, out.e2e
	if env.trace {
		list, values = perLayer, out.layer
	}
	for _, m := range list {
		sum.Metrics[m.name] = metric{Value: values[m.name], Unit: m.unit}
	}
	fp := fingerprint()
	tag := fmt.Sprintf("%s-seed%d-trace%d", env.workload, env.seed, *trace)
	saved := savedResult{Workload: env.workload, Seed: env.seed, Seconds: env.seconds, Trace: env.trace,
		Fingerprint: fp, Summary: sum, Detail: out.detail}
	if out.tracer != nil {
		for name, d := range selfTimes(out.tracer.spans) {
			out.detail["self_s."+name] = metric{d.Seconds(), "s"}
		}
		saved.SpanFile = filepath.Join(buildDir, "traces", tag+".json")
		if err := out.tracer.write(saved.SpanFile); err != nil {
			return err
		}
	}
	resultFile := filepath.Join(buildDir, "results", tag+".json")
	if err := writeJSONFile(resultFile, saved); err != nil {
		return err
	}

	fmt.Fprintf(stdout, "workload %s seed %d: %s\n", env.workload, env.seed, fp)
	fmt.Fprintf(stdout, "attempted %d failed %d fail_ratio %g\n", out.attempted, out.failed,
		float64(out.failed)/float64(max(out.attempted, 1)))
	printMetrics(stdout, out.detail)
	printMetrics(stdout, sum.Metrics)
	if saved.SpanFile != "" {
		fmt.Fprintf(stdout, "spans: %s\n", saved.SpanFile)
	}
	fmt.Fprintf(stdout, "result: %s\n", resultFile)
	line, err := json.Marshal(sum)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return nil
}

func printMetrics(w io.Writer, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// savedResult is the full record of one run, kept under
// .bench_build/results: the result line plus its provenance.
type savedResult struct {
	Workload    string            `json:"workload"`
	Seed        int64             `json:"seed"`
	Seconds     float64           `json:"seconds"`
	Trace       bool              `json:"trace"`
	Fingerprint machine           `json:"fingerprint"`
	Summary     summary           `json:"summary"`
	Detail      map[string]metric `json:"detail"`
	SpanFile    string            `json:"span_file,omitempty"`
}

// machine identifies the hardware and toolchain a result was measured
// on; results from different machines are never compared.
type machine struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

func (m machine) String() string {
	return fmt.Sprintf("%s/%s, %q, nproc %d, GOMAXPROCS %d, %s",
		m.GOOS, m.GOARCH, m.CPUModel, m.NumCPU, m.GOMAXPROCS, m.GoVersion)
}

func fingerprint() machine {
	return machine{
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, CPUModel: cpuModel(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
	}
}

// cpuModel reads the processor name where the OS exposes it.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// errFingerprint reports results measured on different machines.
var errFingerprint = errors.New("fingerprints differ; results from different machines are not comparable")

// compareFiles prints, per metric, the ratio of the second saved result
// to the first. It refuses results of different machines or workloads.
func compareFiles(w io.Writer, paths []string) error {
	if len(paths) != 2 {
		return fmt.Errorf("usage: perfbench compare BASE.json NEW.json")
	}
	var rs [2]savedResult
	for i, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, &rs[i]); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
	}
	if err := comparable(rs[0], rs[1]); err != nil {
		return err
	}
	names := make([]string, 0, len(rs[0].Summary.Metrics))
	for n := range rs[0].Summary.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		a, b := rs[0].Summary.Metrics[n], rs[1].Summary.Metrics[n]
		ratio := "n/a"
		if a.Value != 0 {
			ratio = fmt.Sprintf("%.4f", b.Value/a.Value)
		}
		fmt.Fprintf(w, "%-34s %14.6g -> %14.6g %s  (x%s)\n", n, a.Value, b.Value, a.Unit, ratio)
	}
	return nil
}

func comparable(a, b savedResult) error {
	if a.Fingerprint != b.Fingerprint {
		return fmt.Errorf("%w:\n  %s\n  %s", errFingerprint, a.Fingerprint, b.Fingerprint)
	}
	if a.Workload != b.Workload || a.Trace != b.Trace {
		return fmt.Errorf("results are of different runs: %s/trace=%v vs %s/trace=%v",
			a.Workload, a.Trace, b.Workload, b.Trace)
	}
	return nil
}

// measureSetup runs build n times, tearing down all but the last
// result, and returns the last result and its set-up figures. The first
// attempt is timed from process start, so it also carries the process's
// own start-up; the later ones are warm repeats in the same process.
func measureSetup[T any](n int, build func() (T, error), teardown func(T)) (v T, st setupTimes, err error) {
	cpu := make([]float64, 0, n)
	wall := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		start, cpu0 := time.Now(), cpuSeconds()
		if i == 0 {
			start, cpu0 = processStart, 0
		}
		v, err = build()
		if err != nil {
			return v, st, err
		}
		cpu = append(cpu, cpuSeconds()-cpu0)
		wall = append(wall, time.Since(start).Seconds())
		if i == n-1 {
			break
		}
		teardown(v)
	}
	return v, setupTimes{cpu: median(cpu), wall: median(wall), coldCPU: cpu[0], coldWall: wall[0]}, nil
}

// setupTimes are the set-up figures: medians over the repeats and the
// first, cold attempt, each in CPU and in wall time.
type setupTimes struct{ cpu, wall, coldCPU, coldWall float64 }

// setSetup records the set-up figures: setup_s is the median CPU time
// over the repeats; the rest are printed and saved.
func (o *outcome) setSetup(st setupTimes) {
	o.e2e["setup_s"] = st.cpu
	o.layer["wall.setup_s"] = st.wall
	o.detail["setup_wall_s"] = metric{st.wall, "s"}
	o.detail["setup_cold_s"] = metric{st.coldCPU, "s"}
	o.detail["setup_cold_wall_s"] = metric{st.coldWall, "s"}
}

// setOps records the operation figures: the instructions and the CPU
// time the process spends per operation, and the wall-clock figures.
func (o *outcome) setOps(instrPerOp, cpuMS, opsPerS, p50, p90 float64) {
	o.e2e["instr_per_op"] = instrPerOp
	o.layer["cpu.ms_per_op"] = cpuMS
	o.layer["wall.ops_per_s"], o.layer["wall.op_p50_ms"], o.layer["wall.op_p90_ms"] = opsPerS, p50, p90
}
