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
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"civect/internal/serve"
	"civect/internal/serve/servetest"
	"civect/sim"
)

// doJSON issues one request and returns the status, headers and body.
func doJSON(t *testing.T, method, url, body string, hdr map[string]string) (int, http.Header, []byte) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, b
}

func decodeView(t *testing.T, b []byte) serve.View {
	t.Helper()
	var v serve.View
	if err := json.Unmarshal(b, &v); err != nil {
		t.Fatalf("decoding job view: %v\n%s", err, b)
	}
	return v
}

// errClass extracts the class field of an error envelope.
func errClass(t *testing.T, b []byte) serve.Class {
	t.Helper()
	var e struct {
		Error string      `json:"error"`
		Class serve.Class `json:"class"`
	}
	if err := json.Unmarshal(b, &e); err != nil {
		t.Fatalf("decoding error envelope: %v\n%s", err, b)
	}
	return e.Class
}

// waitTerminal polls a job until it reaches a terminal state.
func waitTerminal(t *testing.T, baseURL, id string) serve.View {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		status, _, b := doJSON(t, "GET", baseURL+"/v1/jobs/"+id, "", nil)
		if status != http.StatusOK {
			t.Fatalf("GET job %s: status %d\n%s", id, status, b)
		}
		v := decodeView(t, b)
		if v.State.Terminal() {
			return v
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not reach a terminal state in time", id)
	return serve.View{}
}

// waitState polls a job until it reaches the given state.
func waitState(t *testing.T, baseURL, id string, want serve.State) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		_, _, b := doJSON(t, "GET", baseURL+"/v1/jobs/"+id, "", nil)
		v := decodeView(t, b)
		if v.State == want {
			return
		}
		if v.State.Terminal() {
			t.Fatalf("job %s reached terminal state %s while waiting for %s", id, v.State, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached state %s", id, want)
}

// statsJSON renders a stats block for byte-identical comparison.
func statsJSON(t *testing.T, st sim.Stats) []byte {
	t.Helper()
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// serialStats runs the same simulation the server would, serially in
// this goroutine, and returns its stats block.
func serialStats(t *testing.T, workload string, opts ...sim.Option) sim.Stats {
	t.Helper()
	w, err := sim.Load(workload)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.New(w, opts...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res.Stats
}

func TestSubmitRunsToCompletion(t *testing.T) {
	s, ts := servetest.Start(t, serve.Config{Workers: 2})

	status, hdr, b := doJSON(t, "POST", ts.URL+"/v1/jobs",
		`{"workload":"gcc","max_instr":5000}`, nil)
	if status != http.StatusCreated {
		t.Fatalf("submit status = %d, want 201\n%s", status, b)
	}
	v := decodeView(t, b)
	if loc := hdr.Get("Location"); loc != "/v1/jobs/"+v.ID {
		t.Errorf("Location = %q, want /v1/jobs/%s", loc, v.ID)
	}

	v = waitTerminal(t, ts.URL, v.ID)
	if v.State != serve.StateDone {
		t.Fatalf("job finished %s (error %q), want done", v.State, v.Error)
	}
	if v.Result == nil || v.Result.Partial {
		t.Fatalf("done job result = %+v, want a complete result", v.Result)
	}

	// The daemon must not perturb the simulation: its stats are
	// byte-identical to a serial run of the same configuration.
	ref := serialStats(t, "gcc",
		sim.WithMode(sim.CI),
		sim.WithPorts(1), sim.WithRegs(256), sim.WithSpecMem(0),
		sim.WithInstrBudget(5000))
	if got, want := statsJSON(t, v.Result.Stats), statsJSON(t, ref); !bytes.Equal(got, want) {
		t.Errorf("served stats differ from the serial run:\n got %s\nwant %s", got, want)
	}

	// The listing includes the job; /healthz counted it.
	status, _, b = doJSON(t, "GET", ts.URL+"/v1/jobs", "", nil)
	if status != http.StatusOK || !strings.Contains(string(b), `"`+v.ID+`"`) {
		t.Errorf("job listing (status %d) missing %s:\n%s", status, v.ID, b)
	}
	if done := s.Metrics().Done.Load(); done != 1 {
		t.Errorf("metrics done = %d, want 1", done)
	}
}

func TestSubmitBadRequests(t *testing.T) {
	_, ts := servetest.Start(t, serve.Config{MaxInstrPerJob: 10_000})

	cases := []struct {
		name, body string
	}{
		{"invalid-json", `{"workload":`},
		{"unknown-field", `{"workload":"gcc","warp_factor":9}`},
		{"missing-workload", `{}`},
		{"unknown-workload", `{"workload":"doom"}`},
		{"bad-mode", `{"workload":"gcc","mode":"warp"}`},
		{"bad-engine", `{"workload":"gcc","engine":"imaginary"}`},
		// The engine is not a job parameter: even a real engine's name
		// is an unknown field.
		{"engine-field", `{"workload":"gcc","engine":"fast-forward"}`},
		{"bad-regs", `{"workload":"gcc","regs":-7}`},
		{"budget-over-limit", `{"workload":"gcc","max_instr":100000}`},
		{"trace-without-dir", `{"workload":"gcc","trace":true}`},
		{"trace-level-without-trace", `{"workload":"gcc","trace_level":"full"}`},
		{"bad-trace-window", `{"workload":"gcc","trace":true,"trace_first":100,"trace_last":5}`},
		{"spec-mem-lat-over-ceiling", `{"workload":"gcc","spec_mem":768,"spec_mem_lat":1000000,"max_instr":5000}`},
		{"trailing-value", `{"workload":"gcc","max_instr":5000} {"workload":"mcf","regs":99999999}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, _, b := doJSON(t, "POST", ts.URL+"/v1/jobs", tc.body, nil)
			if status != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400\n%s", status, b)
			}
			if class := errClass(t, b); class != serve.ClassBadRequest {
				t.Errorf("error class = %q, want %q", class, serve.ClassBadRequest)
			}
		})
	}
}

func TestUnknownJob(t *testing.T) {
	_, ts := servetest.Start(t, serve.Config{})
	for _, req := range []struct{ method, path string }{
		{"GET", "/v1/jobs/j999"},
		{"DELETE", "/v1/jobs/j999"},
		{"GET", "/v1/jobs/j999/events"},
	} {
		status, _, b := doJSON(t, req.method, ts.URL+req.path, "", nil)
		if status != http.StatusNotFound {
			t.Errorf("%s %s: status = %d, want 404\n%s", req.method, req.path, status, b)
		}
	}
}

func TestIdempotencyReplay(t *testing.T) {
	s, ts := servetest.Start(t, serve.Config{})
	hdr := map[string]string{"Idempotency-Key": "pr-8-determinism-run"}

	status, _, b := doJSON(t, "POST", ts.URL+"/v1/jobs", `{"workload":"gcc","max_instr":3000}`, hdr)
	if status != http.StatusCreated {
		t.Fatalf("first submit status = %d, want 201\n%s", status, b)
	}
	first := decodeView(t, b)
	done := waitTerminal(t, ts.URL, first.ID)

	// The replay returns the original job — same ID, result included —
	// with 200 instead of 201, and does not run anything new.
	status, _, b = doJSON(t, "POST", ts.URL+"/v1/jobs", `{"workload":"gcc","max_instr":3000}`, hdr)
	if status != http.StatusOK {
		t.Fatalf("replay status = %d, want 200\n%s", status, b)
	}
	replay := decodeView(t, b)
	if replay.ID != first.ID {
		t.Errorf("replay returned job %s, want original %s", replay.ID, first.ID)
	}
	if replay.State != serve.StateDone || replay.Result == nil {
		t.Errorf("replay state = %s (result %v), want the finished original", replay.State, replay.Result != nil)
	}
	if got, want := statsJSON(t, replay.Result.Stats), statsJSON(t, done.Result.Stats); !bytes.Equal(got, want) {
		t.Errorf("replayed result differs from the original")
	}
	if rep := s.Metrics().Replayed.Load(); rep != 1 {
		t.Errorf("metrics replayed = %d, want 1", rep)
	}
	if sub := s.Metrics().Submitted.Load(); sub != 1 {
		t.Errorf("metrics submitted = %d, want 1 (the replay must not admit a second job)", sub)
	}
}

func TestQueueFullBackpressureAndCancel(t *testing.T) {
	s, ts := servetest.Start(t, serve.Config{Workers: 1, QueueDepth: 1})

	// Occupy the single worker with a long job, then fill the
	// depth-1 queue.
	long := `{"workload":"gcc","max_instr":50000000}`
	_, _, b := doJSON(t, "POST", ts.URL+"/v1/jobs", long, nil)
	occupier := decodeView(t, b)
	waitState(t, ts.URL, occupier.ID, serve.StateRunning)
	_, _, b = doJSON(t, "POST", ts.URL+"/v1/jobs", long, nil)
	queued := decodeView(t, b)

	// The next submission hits the full queue: 429 with Retry-After.
	status, hdr, b := doJSON(t, "POST", ts.URL+"/v1/jobs", long, nil)
	if status != http.StatusTooManyRequests {
		t.Fatalf("over-capacity submit status = %d, want 429\n%s", status, b)
	}
	if ra, err := strconv.Atoi(hdr.Get("Retry-After")); err != nil || ra < 1 {
		t.Errorf("Retry-After = %q, want a positive whole-second value", hdr.Get("Retry-After"))
	}
	if class := errClass(t, b); class != serve.ClassTransient {
		t.Errorf("429 error class = %q, want transient", class)
	}
	if shed := s.Metrics().ShedQueueFull.Load(); shed != 1 {
		t.Errorf("metrics shed_queue_full = %d, want 1", shed)
	}

	// Cancel the queued job first, while the worker is still occupied:
	// it must finish canceled without ever running.
	status, _, _ = doJSON(t, "DELETE", ts.URL+"/v1/jobs/"+queued.ID, "", nil)
	if status != http.StatusAccepted {
		t.Fatalf("cancel queued job status = %d, want 202", status)
	}

	// Cancel the running job: 202, then terminal canceled with a
	// well-formed partial checkpoint.
	status, _, _ = doJSON(t, "DELETE", ts.URL+"/v1/jobs/"+occupier.ID, "", nil)
	if status != http.StatusAccepted {
		t.Fatalf("cancel running job status = %d, want 202", status)
	}
	v := waitTerminal(t, ts.URL, occupier.ID)
	if v.State != serve.StateCanceled || v.ErrorClass != serve.ClassCanceled {
		t.Fatalf("cancelled job state = %s class %s, want canceled/canceled", v.State, v.ErrorClass)
	}
	if v.Result == nil || !v.Result.Partial || v.Result.Stats.Committed == 0 {
		t.Errorf("cancelled running job result = %+v, want a non-empty partial checkpoint", v.Result)
	}

	v = waitTerminal(t, ts.URL, queued.ID)
	if v.State != serve.StateCanceled {
		t.Fatalf("cancelled queued job state = %s, want canceled", v.State)
	}
	if v.Result != nil {
		t.Errorf("queued job never ran but has a result")
	}

	// Cancelling a terminal job is an idempotent 200.
	status, _, _ = doJSON(t, "DELETE", ts.URL+"/v1/jobs/"+queued.ID, "", nil)
	if status != http.StatusOK {
		t.Errorf("cancel of terminal job status = %d, want 200", status)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := servetest.Start(t, serve.Config{Workers: 3, QueueDepth: 17})
	status, _, b := doJSON(t, "GET", ts.URL+"/healthz", "", nil)
	if status != http.StatusOK {
		t.Fatalf("/healthz status = %d, want 200\n%s", status, b)
	}
	var h serve.Health
	if err := json.Unmarshal(b, &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" {
		t.Errorf("health = %+v, want ok", h)
	}
	if h.Workers != 3 || h.QueueCap != 17 {
		t.Errorf("health reports %d workers, queue cap %d; want 3 and 17", h.Workers, h.QueueCap)
	}
}

func TestTraceArtifact(t *testing.T) {
	dir := t.TempDir()
	_, ts := servetest.Start(t, serve.Config{TraceDir: dir})

	_, _, b := doJSON(t, "POST", ts.URL+"/v1/jobs",
		`{"workload":"gcc","max_instr":3000,"trace":true,"trace_level":"commits"}`, nil)
	v := waitTerminal(t, ts.URL, decodeView(t, b).ID)
	if v.State != serve.StateDone {
		t.Fatalf("trace job finished %s (error %q), want done", v.State, v.Error)
	}
	if v.TracePath == "" {
		t.Fatal("done trace job has no trace_path")
	}
	data, err := os.ReadFile(v.TracePath)
	if err != nil {
		t.Fatalf("reading journal artifact: %v", err)
	}
	if !bytes.HasPrefix(data, []byte("CIVT")) {
		t.Errorf("journal artifact does not start with the CIVT magic: %q", data[:8])
	}
}

// TestRunTimeFailureIsFatal: a job whose trace artifact cannot be
// created fails as fatal after its one session — nothing is retried,
// and no artifact is left behind.
func TestRunTimeFailureIsFatal(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "traces")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var failures int
	s, ts := servetest.Start(t, serve.Config{TraceDir: dir, Logf: func(format string, args ...any) {
		if strings.Contains(fmt.Sprintf(format, args...), " failed ") {
			mu.Lock()
			failures++
			mu.Unlock()
		}
	}})
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}

	_, _, b := doJSON(t, "POST", ts.URL+"/v1/jobs", `{"workload":"gcc","max_instr":3000,"trace":true}`, nil)
	v := waitTerminal(t, ts.URL, decodeView(t, b).ID)
	if v.State != serve.StateFailed || v.ErrorClass != serve.ClassFatal {
		t.Fatalf("job = %s/%s (%q), want failed/fatal", v.State, v.ErrorClass, v.Error)
	}
	if v.Result != nil || v.TracePath != "" {
		t.Errorf("failed job carries result %v, trace_path %q; want neither", v.Result != nil, v.TracePath)
	}
	m := s.Metrics()
	if m.Failed.Load() != 1 || m.Done.Load() != 0 {
		t.Errorf("metrics failed=%d done=%d, want 1 and 0", m.Failed.Load(), m.Done.Load())
	}
	mu.Lock()
	defer mu.Unlock()
	if failures != 1 {
		t.Errorf("logged %d job failures, want exactly 1 (one session, no retry)", failures)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("trace dir stat = %v, want it still absent (no artifact)", err)
	}
}
