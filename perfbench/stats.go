package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// percentile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between the closest ranks. xs is sorted in place. An
// empty slice yields 0.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// median is percentile(xs, 0.5) on a copy, leaving xs untouched.
func median(xs []float64) float64 {
	return percentile(append([]float64(nil), xs...), 0.5)
}

// span is one traced interval: a call into a layer made by the
// benchmark. Times are nanoseconds since the tracer started. Parent is
// the index of the enclosing span, -1 at the root; Op groups the spans
// of one operation (a suite cell, a request, a job).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int64  `json:"op"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index; end closes it.
func (t *tracer) begin(name string, parent int, op int64) int {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Op: op})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) time.Duration {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	return time.Duration(now - t.spans[id].Start)
}

// record adds an already-measured span.
func (t *tracer) record(name string, parent int, op int64, start time.Time, d time.Duration) int {
	s := start.Sub(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: s, End: s + d.Nanoseconds(), Parent: parent, Op: op})
	return len(t.spans) - 1
}

// write stores the spans as one JSON document.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes sums, per span name, each closed span's duration minus the
// part of its interval covered by its children (children that overlap
// each other, as parallel calls do, are counted once).
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range spans {
		if s.End < s.Start {
			continue
		}
		out[s.Name] += time.Duration(s.End - s.Start - covered(s, children[i]))
	}
	return out
}

// covered returns the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// cpuSeconds returns the CPU time, user plus system, that the process
// has used since it started. Unlike wall time it does not grow while the
// process waits for a CPU, whether behind other processes of the same
// machine or, on a guest that accounts steal time, behind the host's
// other guests. It still grows when those others slow each instruction
// down through shared caches and cores.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// rtSample is a snapshot of the process-wide runtime counters the
// benchmark reads.
type rtSample struct {
	gcCPU, totalCPU float64
	allocBytes      uint64
}

var rtNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

func readRuntime() rtSample {
	ss := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		ss[i].Name = n
	}
	metrics.Read(ss)
	return rtSample{
		gcCPU:      ss[0].Value.Float64(),
		totalCPU:   ss[1].Value.Float64(),
		allocBytes: ss[2].Value.Uint64(),
	}
}

// mallocs returns the process-wide count of heap objects allocated so
// far; the difference across a call on an otherwise idle process is the
// call's allocation count. ReadMemStats flushes every per-P cache and
// counts tiny objects too, so the count is exact.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// liveHeapMB forces a collection and returns the live heap in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// gcShare and allocPerOp derive the runtime per-layer metrics over a
// window bracketed by two samples.
func gcShare(a, b rtSample) float64 {
	if d := b.totalCPU - a.totalCPU; d > 0 {
		return (b.gcCPU - a.gcCPU) / d
	}
	return 0
}

func allocPerOp(a, b rtSample, ops int64) float64 {
	if ops <= 0 {
		return 0
	}
	return float64(b.allocBytes-a.allocBytes) / float64(ops)
}

// windows splits the completed operations, in completion order, into
// consecutive windows of equal count, each about win long, and returns
// each window's throughput and latencies. A window's throughput is its
// count over the time since the previous window ended (the first starts
// at start), so rates are not rounded to whole operations per window.
func windows(start time.Time, at []int64, latMS []float64, win time.Duration) ([]float64, [][]float64) {
	order := make([]int, len(at))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return at[order[a]] < at[order[b]] })
	if len(order) == 0 {
		return nil, nil
	}
	span := time.Duration(at[order[len(order)-1]] - start.UnixNano())
	n := max(1, int(float64(len(order))*float64(win)/float64(span)))
	var rates []float64
	var lat [][]float64
	prev := start.UnixNano()
	for k := 0; k+n <= len(order); k += n {
		end := at[order[k+n-1]]
		w := make([]float64, n)
		for j := range w {
			w[j] = latMS[order[k+j]]
		}
		rates = append(rates, float64(n)/time.Duration(end-prev).Seconds())
		lat = append(lat, w)
		prev = end
	}
	return rates, lat
}

// windowMedians returns the medians over windows of each window's
// throughput, median latency and 90th-percentile latency.
func windowMedians(rates []float64, lat [][]float64) (rate, p50, p90 float64) {
	p50s := make([]float64, 0, len(lat))
	p90s := make([]float64, 0, len(lat))
	for _, l := range lat {
		if len(l) > 0 {
			p50s = append(p50s, percentile(l, 0.5))
			p90s = append(p90s, percentile(l, 0.9))
		}
	}
	return median(rates), median(p50s), median(p90s)
}
