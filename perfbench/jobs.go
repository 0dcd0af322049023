package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	edmac "github.com/edmac-project/edmac"
	"github.com/edmac-project/edmac/internal/serve"
)

// jobsSuiteDoc is job i of the jobs-suite stream: a small suite with a
// seed of its own, so no submission is a cache hit.
func jobsSuiteDoc(seed, i int64) ([]byte, []byte, error) {
	type suiteWire struct {
		Scenarios []string           `json:"scenarios"`
		Protocols []edmac.Protocol   `json:"protocols"`
		Options   edmac.SuiteOptions `json:"options"`
	}
	req := suiteWire{
		Scenarios: []string{"ring-baseline", "grid-campus", "ring-lossy"},
		Protocols: []edmac.Protocol{edmac.XMAC, edmac.LMAC},
		Options:   edmac.SuiteOptions{Duration: 60, Seed: int64(newDraw(seed, "jobs-suite", i).next() >> 1)},
	}
	suite, err := json.Marshal(req)
	if err != nil {
		return nil, nil, err
	}
	job, err := json.Marshal(struct {
		Suite suiteWire `json:"suite"`
	}{req})
	return suite, job, err
}

// jobEvent is the subset of a job event the benchmark reads.
type jobEvent struct {
	Type  string `json:"type"`
	State string `json:"state"`
}

// jobTimes are one job's milestones as the client saw them.
type jobTimes struct {
	accepted, running, lastCell, terminal time.Time
	cells                                 int
	state                                 string
}

// followEvents reads a job's NDJSON event stream up to its terminal
// event, timestamping each arrival.
func followEvents(hc *http.Client, url string, jt *jobTimes) error {
	resp, err := hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		now := time.Now()
		var ev jobEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return fmt.Errorf("events: %w", err)
		}
		switch {
		case ev.Type == "cell":
			jt.cells++
			jt.lastCell = now
		case ev.Type == "state" && ev.State == "running":
			jt.running = now
		case ev.Type == "state" && (ev.State == "done" || ev.State == "failed" || ev.State == "cancelled"):
			jt.terminal, jt.state = now, ev.State
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("events: stream ended before a terminal event")
}

// sampledJob is a job result kept for the check against /v1/suite.
type sampledJob struct {
	i    int64
	hash uint64
}

func runJobsSuite(ctx context.Context, env *runEnv) (*outcome, error) {
	out := newOutcome()
	hc := newHTTPClient(env.workers)
	defer hc.CloseIdleConnections()
	// Set-up ends with one warm-up job round trip of a seed no timed job
	// uses.
	var n int
	s, setup, err := measureSetup(9, func() (*server, error) {
		n++
		s, err := startServer(serve.Options{JobSpillDir: filepath.Join(env.work, fmt.Sprintf("spill-%d", n)),
			JobTTL: jobTTL})
		if err != nil {
			return nil, err
		}
		return s, warmJob(hc, s.base, env.seed)
	}, (*server).close)
	if err != nil {
		return nil, err
	}
	defer s.close()
	spill := filepath.Join(env.work, fmt.Sprintf("spill-%d", n))
	out.setSetup(setup)

	var mu sync.Mutex
	var samples []sampledJob
	var queueMS, finishMS, spillFiles []float64
	// A failed job is attempted but not timed.
	fail := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		out.attempted++
		out.fail(format, args...)
	}
	jobOp := func(tr *tracer) func(w *worker, i int64) {
		return func(w *worker, i int64) {
			_, doc, err := jobsSuiteDoc(env.seed, i)
			if err != nil {
				fail("job %d: %v", i, err)
				return
			}
			root := -1
			span := func(name string, t0 time.Time) {
				if tr != nil {
					tr.record(name, root, i, t0, time.Since(t0))
				}
			}
			if tr != nil {
				root = tr.begin("job", -1, i)
				defer tr.end(root)
			}
			t0 := time.Now()
			sub, err := do(hc, http.MethodPost, s.base+"/v1/jobs", doc)
			span("http.job_submit", t0)
			var jb jobBody
			if err != nil || sub.status != http.StatusAccepted || json.Unmarshal(sub.body, &jb) != nil {
				fail("job %d submit: status %d err %v", i, sub.status, err)
				return
			}
			jt := jobTimes{accepted: time.Now()}
			t1 := time.Now()
			err = followEvents(hc, s.base+"/v1/jobs/"+jb.ID+"/events", &jt)
			span("http.job_events", t1)
			if err != nil || jt.state != "done" || jt.cells != 6 {
				fail("job %d: state %q after %d cell events, %v", i, jt.state, jt.cells, err)
				return
			}
			t2 := time.Now()
			res, err := do(hc, http.MethodGet, s.base+"/v1/jobs/"+jb.ID+"/result", nil)
			span("http.job_result", t2)
			if err != nil || res.status != http.StatusOK {
				fail("job %d result: status %d err %v", i, res.status, err)
				return
			}
			w.record(time.Since(t0))
			files := 0
			if tr != nil {
				for _, name := range []string{jb.ID + ".result", jb.ID + ".job.json"} {
					if _, err := os.Stat(filepath.Join(spill, name)); err == nil {
						files++
					}
				}
			}
			mu.Lock()
			defer mu.Unlock()
			if i%16 == 0 {
				samples = append(samples, sampledJob{i: i, hash: bodyHash(res.body)})
			}
			if tr != nil {
				queueMS = append(queueMS, float64(jt.running.Sub(jt.accepted))/float64(time.Millisecond))
				finishMS = append(finishMS, float64(jt.terminal.Sub(jt.lastCell))/float64(time.Millisecond))
				spillFiles = append(spillFiles, float64(files))
			}
		}
	}
	budget := time.Duration(env.seconds * float64(time.Second))
	if env.trace {
		budget = budget / 2
	}
	var next atomic.Int64
	st := closedLoop(env.workers, budget, &next, s, jobOp(nil))
	st.report(out, "job_rt")
	out.detail["jobs_per_s"] = out.detail["job_rt_per_s"]
	delete(out.detail, "job_rt_per_s")
	out.attempted += st.ops
	instrPerOp, p50, opsPerS := out.e2e["instr_per_op"], out.layer["wall.op_p50_ms"], out.layer["wall.ops_per_s"]
	st = nil
	if err := checkJobSamples(env.seed, samples, out); err != nil {
		return nil, err
	}
	samples = nil
	out.e2e["live_heap_mb"] = s.liveHeapAfterExpiry(jobTTL + 2*time.Second)
	if !env.trace {
		return out, nil
	}

	tr := newTracer()
	out.tracer = tr
	traced := closedLoop(env.workers, budget, &next, s, jobOp(tr))
	out.attempted += traced.ops
	tracedRate, tracedP50, _ := traced.medians()
	out.layer["trace.delta.instr_per_op"] = traced.instrPerOp() - instrPerOp
	out.layer["trace.delta.ops_per_s"] = tracedRate - opsPerS
	out.layer["trace.delta.op_p50_ms"] = tracedP50 - p50
	out.layer["jobs.queue_wait_ms"] = median(queueMS)
	out.layer["jobs.finish_ms"] = median(finishMS)
	out.layer["jobs.spill_files_per_job"] = mean(spillFiles)
	return out, checkJobSamples(env.seed, samples, out)
}

// warmJob runs one suite job to completion.
func warmJob(hc *http.Client, base string, seed int64) error {
	_, doc, err := jobsSuiteDoc(seed, -1)
	if err != nil {
		return err
	}
	sub, err := do(hc, http.MethodPost, base+"/v1/jobs", doc)
	var jb jobBody
	if err != nil || sub.status != http.StatusAccepted || json.Unmarshal(sub.body, &jb) != nil {
		return fmt.Errorf("warm-up job: status %d, %v", sub.status, err)
	}
	var jt jobTimes
	if err := followEvents(hc, base+"/v1/jobs/"+jb.ID+"/events", &jt); err != nil || jt.state != "done" {
		return fmt.Errorf("warm-up job: state %q, %v", jt.state, err)
	}
	res, err := do(hc, http.MethodGet, base+"/v1/jobs/"+jb.ID+"/result", nil)
	if err != nil || res.status != http.StatusOK {
		return fmt.Errorf("warm-up job result: status %d, %v", res.status, err)
	}
	return nil
}

// checkJobSamples compares the sampled job results with the synchronous
// /v1/suite answer of a fresh server for the same request.
func checkJobSamples(seed int64, samples []sampledJob, out *outcome) error {
	srv, err := serve.New(serve.Options{})
	if err != nil {
		return err
	}
	defer srv.Close()
	h := srv.Handler()
	for _, sj := range samples {
		suite, _, err := jobsSuiteDoc(seed, sj.i)
		if err != nil {
			return err
		}
		rec := inProcess(h, http.MethodPost, "/v1/suite", suite)
		out.attempted++
		if rec.status != http.StatusOK || bodyHash(rec.body) != sj.hash {
			out.fail("job %d: result differs from the synchronous /v1/suite answer (status %d)", sj.i, rec.status)
		}
	}
	return nil
}
