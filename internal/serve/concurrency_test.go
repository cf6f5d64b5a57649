package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"civect/internal/serve"
	"civect/internal/serve/servetest"
	"civect/sim"
)

// concurrentSpecs are the simulation shapes the concurrency test cycles
// through: different workloads, machine modes and engines, all short
// enough to run hundreds of times under -race.
var concurrentSpecs = []serve.JobSpec{
	{Workload: "gcc", MaxInstr: 4000},
	{Workload: "mcf", Mode: "ci", MaxInstr: 5000},
	{Workload: "gzip", Mode: "vect", MaxInstr: 4000},
	{Workload: "parser", Mode: "wb", MaxInstr: 4000},
	{Workload: "twolf", Mode: "ci", Engine: "event", MaxInstr: 4000},
}

// serialReference runs one spec serially — no server, no concurrency —
// and returns its stats block as canonical JSON.
func serialReference(t *testing.T, sp serve.JobSpec) []byte {
	t.Helper()
	mode := sim.CI
	if sp.Mode != "" {
		m, err := sim.ParseMode(sp.Mode)
		if err != nil {
			t.Fatal(err)
		}
		mode = m
	}
	engine := sim.EngineFastForward
	if sp.Engine != "" {
		e, err := sim.ParseEngine(sp.Engine)
		if err != nil {
			t.Fatal(err)
		}
		engine = e
	}
	st := serialStats(t, sp.Workload,
		sim.WithMode(mode), sim.WithEngine(engine),
		sim.WithPorts(1), sim.WithRegs(256), sim.WithSpecMem(0),
		sim.WithInstrBudget(sp.MaxInstr))
	return statsJSON(t, st)
}

// submitRetrying posts body until it is admitted, riding out 429s the
// way a well-behaved client does, and returns the job ID and the number
// of 429s it got. Every refusal must be a queue-full 429 with
// Retry-After.
func submitRetrying(t *testing.T, client *http.Client, url string, body []byte, key string) (id string, shed int, ok bool) {
	deadline := time.Now().Add(2 * time.Minute)
	for ; ; shed++ {
		req, _ := http.NewRequest("POST", url+"/v1/jobs", bytes.NewReader(body))
		req.Header.Set("Idempotency-Key", key)
		resp, err := client.Do(req)
		if err != nil {
			t.Errorf("%s: submit: %v", key, err)
			return "", shed, false
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusCreated, http.StatusOK:
			var v serve.View
			if err := json.Unmarshal(b, &v); err != nil {
				t.Errorf("%s: decoding submit response: %v", key, err)
				return "", shed, false
			}
			return v.ID, shed, true
		case http.StatusTooManyRequests:
			if resp.Header.Get("Retry-After") != "1" {
				t.Errorf("%s: 429 Retry-After = %q, want 1", key, resp.Header.Get("Retry-After"))
			}
		default:
			t.Errorf("%s: submit status %d\n%s", key, resp.StatusCode, b)
			return "", shed, false
		}
		if time.Now().After(deadline) {
			t.Errorf("%s: still shed at deadline", key)
			return "", shed, false
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// pollTerminal polls a job to a terminal state from a client
// goroutine (t.Errorf, not t.Fatalf).
func pollTerminal(t *testing.T, client *http.Client, url, id string) (serve.View, bool) {
	deadline := time.Now().Add(2 * time.Minute)
	for {
		resp, err := client.Get(url + "/v1/jobs/" + id)
		if err != nil {
			t.Errorf("job %s: poll: %v", id, err)
			return serve.View{}, false
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var v serve.View
		if err := json.Unmarshal(b, &v); err != nil {
			t.Errorf("job %s: decoding poll response: %v", id, err)
			return serve.View{}, false
		}
		if v.State.Terminal() {
			return v, true
		}
		if time.Now().After(deadline) {
			t.Errorf("job %s: not terminal at deadline (state %s)", id, v.State)
			return serve.View{}, false
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestConcurrentJobs floods the daemon with hundreds of concurrent
// short jobs while every worker starts out parked on a long job, and
// asserts the service contract:
//
//   - the burst overflows the bounded queue, and every refusal is a
//     429 with Retry-After
//   - every job reaches a terminal state; none fails
//   - results of finished jobs are byte-identical to serial runs of the
//     same spec: concurrency never perturbs the simulation
//   - jobs cancelled by a client DELETE end canceled, with either no
//     result (cancelled while queued) or a well-formed partial one
//   - the trace dir holds only the sealed artifacts of finished trace
//     jobs — no temp files, no journals of canceled jobs
//   - no goroutines leak (the servetest harness asserts it at teardown)
//
// Run under -race in the CI service job.
func TestConcurrentJobs(t *testing.T) {
	const (
		workers  = 8
		jobCount = 220
	)

	// Serial references first: the truth the served results must match.
	refs := make([][]byte, len(concurrentSpecs))
	for i, sp := range concurrentSpecs {
		refs[i] = serialReference(t, sp)
	}

	traceDir := t.TempDir()
	s, ts := servetest.Start(t, serve.Config{
		Workers:       workers,
		QueueDepth:    24, // small on purpose: the burst must overflow it
		ProgressEvery: 500,
		TraceDir:      traceDir,
	})
	client := ts.Client()

	// Park every worker on a job that can only end by cancellation, so
	// the burst below fills the queue and is shed with 429s.
	parked := make([]string, workers)
	for i := range parked {
		body := fmt.Sprintf(`{"workload":"%s","max_instr":50000000,"trace":%v}`,
			concurrentSpecs[i%len(concurrentSpecs)].Workload, i%2 == 0)
		status, _, b := doJSON(t, "POST", ts.URL+"/v1/jobs", body, nil)
		if status != http.StatusCreated {
			t.Fatalf("parking submit status = %d\n%s", status, b)
		}
		parked[i] = decodeView(t, b).ID
		waitState(t, ts.URL, parked[i], serve.StateRunning)
	}

	type outcome struct {
		spec int
		view serve.View
	}
	var (
		mu       sync.Mutex
		outcomes []outcome
		shed429  int
	)
	var wg sync.WaitGroup
	for i := 0; i < jobCount; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			specIdx := i % len(concurrentSpecs)
			sp := concurrentSpecs[specIdx]
			sp.Trace = i%4 == 0 // every 4th job records a journal
			body, err := json.Marshal(sp)
			if err != nil {
				t.Error(err)
				return
			}
			id, shed, ok := submitRetrying(t, client, ts.URL, body, fmt.Sprintf("burst-%d", i))
			mu.Lock()
			shed429 += shed
			mu.Unlock()
			if !ok {
				return
			}
			if i%10 == 3 {
				// Cancel some right after admission: queued or running,
				// the job must end canceled — unless it already finished.
				req, _ := http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+id, nil)
				if resp, err := client.Do(req); err != nil {
					t.Errorf("job %s: cancel: %v", id, err)
				} else {
					resp.Body.Close()
				}
			}
			v, ok := pollTerminal(t, client, ts.URL, id)
			if !ok {
				return
			}
			mu.Lock()
			outcomes = append(outcomes, outcome{spec: specIdx, view: v})
			mu.Unlock()
		}(i)
	}

	// Once the burst has overflowed the queue, release the workers by
	// cancelling the parked jobs.
	for deadline := time.Now().Add(time.Minute); s.Metrics().ShedQueueFull.Load() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the burst never overflowed the queue")
		}
		time.Sleep(time.Millisecond)
	}
	for _, id := range parked {
		if status, _, b := doJSON(t, "DELETE", ts.URL+"/v1/jobs/"+id, "", nil); status != http.StatusAccepted {
			t.Fatalf("cancel parked job %s: status %d\n%s", id, status, b)
		}
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if len(outcomes) != jobCount {
		t.Fatalf("collected %d outcomes, want %d", len(outcomes), jobCount)
	}

	// Parked jobs end canceled with a non-empty partial checkpoint.
	for _, id := range parked {
		v := waitTerminal(t, ts.URL, id)
		if v.State != serve.StateCanceled || v.ErrorClass != serve.ClassCanceled {
			t.Errorf("parked job %s = %s/%s, want canceled/canceled", id, v.State, v.ErrorClass)
		}
		if v.Result == nil || !v.Result.Partial || v.Result.Stats.Committed == 0 {
			t.Errorf("parked job %s result = %+v, want a non-empty partial checkpoint", id, v.Result)
		}
		if v.TracePath != "" {
			t.Errorf("canceled parked job %s claims trace artifact %s", id, v.TracePath)
		}
	}

	var done, canceled int
	tracedDone := map[string]bool{} // trace filename -> seen
	for _, o := range outcomes {
		v := o.view
		switch v.State {
		case serve.StateDone:
			done++
			if v.Result == nil || v.Result.Partial {
				t.Fatalf("job %s done without a complete result", v.ID)
			}
			if got := statsJSON(t, v.Result.Stats); !bytes.Equal(got, refs[o.spec]) {
				t.Errorf("job %s (%s) stats diverge from the serial run:\n got %s\nwant %s",
					v.ID, concurrentSpecs[o.spec].Workload, got, refs[o.spec])
			}
			if v.Spec.Trace {
				if v.TracePath == "" {
					t.Errorf("done trace job %s has no trace_path", v.ID)
				} else {
					tracedDone[filepath.Base(v.TracePath)] = true
				}
			}
		case serve.StateCanceled:
			canceled++
			if v.ErrorClass != serve.ClassCanceled {
				t.Errorf("canceled job %s classified %q, want canceled", v.ID, v.ErrorClass)
			}
			if v.Result != nil && !v.Result.Partial {
				t.Errorf("canceled job %s carries a non-partial result", v.ID)
			}
			if v.TracePath != "" {
				t.Errorf("canceled job %s claims trace artifact %s", v.ID, v.TracePath)
			}
		default:
			t.Errorf("job %s ended %s (%s: %s), want done or canceled", v.ID, v.State, v.ErrorClass, v.Error)
		}
	}
	t.Logf("outcomes: %d done, %d canceled; %d submissions shed with 429", done, canceled, shed429)
	if done == 0 {
		t.Error("no burst job finished")
	}
	if shed429 == 0 {
		t.Error("no submission was shed with 429")
	}

	// The artifact dir holds exactly the sealed journals of finished
	// trace jobs: no temp files, no journals of canceled jobs.
	entries, err := os.ReadDir(traceDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Errorf("trace dir holds leftover temp file %s", e.Name())
			continue
		}
		if !tracedDone[e.Name()] {
			t.Errorf("trace dir holds %s, which no finished trace job claims", e.Name())
		}
	}
	if len(entries) != len(tracedDone) {
		t.Errorf("trace dir holds %d entries, want the %d sealed journals", len(entries), len(tracedDone))
	}

	// Quiesce cleanly: nothing is in flight, so the drain is graceful.
	if err := s.Drain(context.Background()); err != nil {
		t.Errorf("Drain = %v, want nil", err)
	}
	if hstatus, _, b := doJSON(t, "GET", ts.URL+"/healthz", "", nil); hstatus != http.StatusServiceUnavailable {
		t.Errorf("post-drain /healthz status = %d, want 503\n%s", hstatus, b)
	}
}
