package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"maps"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	cases := []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.99, 4.96}}
	for _, c := range cases {
		if got := percentile(append([]float64(nil), xs...), c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := median(xs); got != 3 || xs[0] != 5 {
		t.Errorf("median = %v (input now %v), want 3 with the input untouched", got, xs)
	}
	// Suite passes of 0.5 s, 0.4 s, 0.6 s, 0.8 s and 0.7 s.
	rate, p50, p90 := passFigures([]float64{0.5, 0.4, 0.6, 0.8, 0.7})
	if math.Abs(rate-1/0.6) > 1e-9 || math.Abs(p50-600) > 1e-9 || math.Abs(p90-760) > 1e-9 {
		t.Errorf("passFigures = %v/s, p50 %v ms, p90 %v ms; want 1.667/s, 600 ms, 760 ms", rate, p50, p90)
	}
}

func TestWindows(t *testing.T) {
	start := time.Unix(100, 0)
	at := func(sec float64) int64 { return start.Add(time.Duration(sec * float64(time.Second))).UnixNano() }
	// Five completions over 2.2 s make windows of two; the fifth is the
	// partial window and is dropped. Completions arrive out of order.
	times := []int64{at(0.5), at(0.1), at(0.9), at(1.5), at(2.2)}
	lat := []float64{2, 1, 3, 10, 99}
	rates, perWindow := windows(start, times, lat, time.Second)
	if len(rates) != 2 || math.Abs(rates[0]-4) > 1e-9 || math.Abs(rates[1]-2) > 1e-9 {
		t.Fatalf("rates = %v, want [4 2]", rates)
	}
	if len(perWindow) != 2 || perWindow[0][0] != 1 || perWindow[1][1] != 10 {
		t.Fatalf("latencies = %v, want [[1 2] [3 10]]", perWindow)
	}
	rate, p50, p90 := windowMedians(rates, perWindow)
	if rate != 3 || p50 != 4 || math.Abs(p90-(1.9+9.3)/2) > 1e-9 {
		t.Errorf("windowMedians = %v, %v, %v", rate, p50, p90)
	}
}

// cpuSeconds, behind setup_s and cpu.ms_per_op, counts work the process
// does and not time it spends waiting.
func TestCPUSecondsCountsWorkNotWaiting(t *testing.T) {
	c0 := cpuSeconds()
	time.Sleep(100 * time.Millisecond)
	slept := cpuSeconds() - c0
	c0 = cpuSeconds()
	x := 1.0
	for t0 := time.Now(); time.Since(t0) < 100*time.Millisecond; {
		x = math.Sqrt(x + 1)
	}
	spun := cpuSeconds() - c0
	if slept > 0.05 || spun < 0.05 || x == 0 {
		t.Errorf("100 ms asleep took %.3f s of CPU, 100 ms of work %.3f s", slept, spun)
	}
}

// The instruction counter sees work on every goroutine, wherever the
// runtime runs it, and counts the same work the same way each time.
func TestInstrCounterCountsEveryThread(t *testing.T) {
	c, err := newInstrCounter()
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	work := func(n int) float64 {
		before := c.read()
		var wg sync.WaitGroup
		sums := make([]float64, 4)
		for g := range sums {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < n; i++ {
					sums[g] = math.Sqrt(sums[g] + float64(i))
				}
			}()
		}
		wg.Wait()
		return c.read() - before
	}
	const n = 2_000_000
	one, two, again := work(n), work(2*n), work(n)
	if one < 4*n {
		t.Errorf("%d loop iterations on 4 goroutines counted %.0f instructions", 4*n, one)
	}
	if r := two / one; r < 1.9 || r > 2.1 {
		t.Errorf("twice the work counted %.3f times the instructions", r)
	}
	if r := again / one; r < 0.98 || r > 1.02 {
		t.Errorf("the same work counted %.0f and %.0f instructions", one, again)
	}
}

func TestMeasureSetup(t *testing.T) {
	built, tornDown := 0, 0
	v, st, err := measureSetup(3, func() (int, error) {
		built++
		time.Sleep(20 * time.Millisecond)
		return built, nil
	}, func(int) { tornDown++ })
	if err != nil || v != 3 || built != 3 || tornDown != 2 {
		t.Fatalf("measureSetup gave %d after %d builds and %d teardowns: %v", v, built, tornDown, err)
	}
	if st.wall < 0.02 || st.cpu >= st.wall || st.coldWall < st.wall || st.coldCPU <= 0 {
		t.Errorf("set-up times %+v: want a sleeping build to take 20 ms of wall time and less CPU", st)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "pass", Start: 0, End: 100, Parent: -1},
		{Name: "cell", Start: 10, End: 60, Parent: 0},
		{Name: "cell", Start: 40, End: 90, Parent: 0}, // overlaps the first cell
		{Name: "sim", Start: 20, End: 50, Parent: 1},
		{Name: "open", Start: 5, End: -1, Parent: -1}, // never closed: ignored
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{"pass": 20, "cell": 70, "sim": 30}
	for name, d := range want {
		if got[name] != d {
			t.Errorf("self time of %s = %v, want %v", name, got[name], d)
		}
	}
	if _, ok := got["open"]; ok {
		t.Errorf("an unclosed span has a self time")
	}
}

func TestTracerWrite(t *testing.T) {
	tr := newTracer()
	root := tr.begin("op", -1, 7)
	tr.record("child", root, 7, time.Now(), time.Millisecond)
	tr.end(root)
	path := filepath.Join(t.TempDir(), "spans", "x.json")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	var doc struct{ Spans []span }
	data, _ := os.ReadFile(path)
	if err := json.Unmarshal(data, &doc); err != nil || len(doc.Spans) != 2 || doc.Spans[1].Parent != 0 {
		t.Fatalf("span file %s: %v %+v", data, err, doc)
	}
}

// The program receives only generated inputs: equal seeds must give
// byte-equal requests, different seeds different ones.
func TestGeneratorsAreSeeded(t *testing.T) {
	gen := map[string]func(seed int64) []byte{
		"optimize": func(seed int64) []byte {
			var b bytes.Buffer
			for i := int64(0); i < 50; i++ {
				data, _ := json.Marshal(optimizeRequest(seed, "optimize-cold", i))
				b.Write(data)
			}
			return b.Bytes()
		},
		"jobs-suite": func(seed int64) []byte {
			_, doc, _ := jobsSuiteDoc(seed, 3)
			return doc
		},
		"suite": func(seed int64) []byte {
			in := makeSuiteInputs(seed)
			data, _ := json.Marshal(in.request(2))
			return data
		},
		"serve-hot mix": func(seed int64) []byte {
			var b bytes.Buffer
			for i := int64(0); i < 50; i++ {
				kind, key := hotOp(seed, "serve-hot-mix", i, testHotKeys)
				b.WriteString(kind)
				b.Write(key.body)
			}
			return b.Bytes()
		},
	}
	for name, g := range gen {
		if !bytes.Equal(g(1), g(1)) {
			t.Errorf("%s: the same seed gave different inputs", name)
		}
		if bytes.Equal(g(1), g(2)) {
			t.Errorf("%s: seeds 1 and 2 gave the same inputs", name)
		}
	}
}

var testHotKeys = []hotKey{
	{kind: "optimize", body: []byte("o1")}, {kind: "optimize", body: []byte("o2")},
	{kind: "simulate", body: []byte("s1")}, {kind: "simulate", body: []byte("s2")},
}

// TestHotMixIsEdloadDefault pins the serve-hot shares to cmd/edload's
// default mix, optimize=4, simulate=1, jobs=1, by operation index.
func TestHotMixIsEdloadDefault(t *testing.T) {
	count := map[string]int{}
	for i := int64(0); i < 600; i++ {
		kind, key := hotOp(1, "serve-hot-mix", i, testHotKeys)
		if kind != "job" && key.kind != kind {
			t.Fatalf("op %d: %s request on a %s key", i, kind, key.kind)
		}
		count[kind]++
	}
	if want := map[string]int{"optimize": 400, "simulate": 100, "job": 100}; !maps.Equal(count, want) {
		t.Errorf("mix over 600 operations = %v, want %v", count, want)
	}
}

func TestOptimizeStreamSpansTheSpace(t *testing.T) {
	protos, relaxed := map[string]bool{}, map[bool]bool{}
	seen := map[string]bool{}
	for i := int64(0); i < 2000; i++ {
		req := optimizeRequest(1, "optimize-cold", i)
		protos[string(req.Protocol)] = true
		relaxed[req.Relaxed] = true
		data, _ := json.Marshal(req)
		seen[string(data)] = true
	}
	if len(protos) != 5 || len(relaxed) != 2 {
		t.Errorf("protocols %v, relaxed %v: want all five and both", protos, relaxed)
	}
	if len(seen) < 1990 {
		t.Errorf("only %d distinct requests in 2000", len(seen))
	}
}

func TestCompareRefusesOtherMachines(t *testing.T) {
	a := savedResult{Workload: "suite", Fingerprint: fingerprint()}
	b := a
	if err := comparable(a, b); err != nil {
		t.Fatalf("same machine: %v", err)
	}
	b.Fingerprint.CPUModel = "another CPU"
	if err := comparable(a, b); !errors.Is(err, errFingerprint) {
		t.Fatalf("different CPU: err = %v, want errFingerprint", err)
	}
	b = a
	b.Workload = "serve-hot"
	if err := comparable(a, b); err == nil {
		t.Fatal("different workloads compared")
	}
}

// BENCHMARK.json names exactly the metrics the benchmark prints, with
// the same units.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, listed []struct{ Name, Unit string }, printed []struct{ name, unit string }) {
		if len(listed) != len(printed) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(listed), len(printed))
			return
		}
		for i, m := range listed {
			if m.Name != printed[i].name || m.Unit != printed[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), the benchmark prints %s (%s)",
					kind, i, m.Name, m.Unit, printed[i].name, printed[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

// A run writes only under .bench_build, which the repository ignores,
// and removes its spill directory, so it leaves git status clean.
func TestRunWritesOnlyUnderBuildDir(t *testing.T) {
	ignore, err := os.ReadFile(filepath.Join("..", ".gitignore"))
	if err != nil || !strings.Contains(string(ignore), buildDir+"/") {
		t.Fatalf(".gitignore does not list %s/: %v", buildDir, err)
	}
	t.Chdir(t.TempDir())
	var out bytes.Buffer
	if err := run(context.Background(), []string{"--workload", "jobs-suite", "--seed", "3", "--seconds", "0.5", "--trace", "1"}, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var sum summary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil || !sum.Correct || sum.Failed != 0 {
		t.Fatalf("result line %q: %v", lines[len(lines)-1], err)
	}
	for _, m := range perLayer {
		if _, ok := sum.Metrics[m.name]; !ok {
			t.Errorf("traced run lacks %s", m.name)
		}
	}
	top, _ := os.ReadDir(".")
	if len(top) != 1 || top[0].Name() != buildDir {
		t.Fatalf("run left %v in its directory, want only %s", top, buildDir)
	}
	var files []string
	filepath.WalkDir(buildDir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			files = append(files, path)
		}
		if err == nil && d.IsDir() && strings.HasPrefix(d.Name(), "run-") {
			t.Errorf("spill directory %s was not removed", path)
		}
		return err
	})
	want := []string{
		filepath.Join(buildDir, "results", "jobs-suite-seed3-trace1.json"),
		filepath.Join(buildDir, "traces", "jobs-suite-seed3-trace1.json"),
	}
	if strings.Join(files, ",") != strings.Join(want, ",") {
		t.Errorf("files %v, want %v", files, want)
	}
}
