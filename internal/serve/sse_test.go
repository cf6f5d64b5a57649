package serve_test

import (
	"bufio"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"civect/internal/serve"
	"civect/internal/serve/servetest"
)

// sseEvent is one parsed SSE frame.
type sseEvent struct {
	ID   uint64
	Type string
	Data string
}

// readSSE parses frames off an event stream until the stream ends or
// max frames arrive.
func readSSE(t *testing.T, r *bufio.Reader, max int) []sseEvent {
	t.Helper()
	var events []sseEvent
	var cur sseEvent
	for len(events) < max {
		line, err := r.ReadString('\n')
		if err != nil {
			return events
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case line == "":
			if cur.Type != "" {
				events = append(events, cur)
			}
			cur = sseEvent{}
		case strings.HasPrefix(line, "id: "):
			cur.ID, _ = strconv.ParseUint(line[len("id: "):], 10, 64)
		case strings.HasPrefix(line, "event: "):
			cur.Type = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			cur.Data = line[len("data: "):]
		case strings.HasPrefix(line, ":"):
			// heartbeat comment
		}
	}
	return events
}

func openStream(t *testing.T, url string, lastEventID string) *http.Response {
	t.Helper()
	req, err := http.NewRequest("GET", url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events stream status = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events Content-Type = %q, want text/event-stream", ct)
	}
	return resp
}

// TestSSEStream subscribes before the job finishes and checks the feed
// carries progress, the terminal state, and always ends with the
// result event.
func TestSSEStream(t *testing.T) {
	_, ts := servetest.Start(t, serve.Config{Workers: 1, ProgressEvery: 1000})

	// Park a long job on the single worker so the subscription below is
	// in place before the real job starts producing events.
	_, _, b := doJSON(t, "POST", ts.URL+"/v1/jobs", `{"workload":"gcc","max_instr":50000000}`, nil)
	occupier := decodeView(t, b)
	_, _, b = doJSON(t, "POST", ts.URL+"/v1/jobs", `{"workload":"gcc","max_instr":30000}`, nil)
	job := decodeView(t, b)

	resp := openStream(t, ts.URL+"/v1/jobs/"+job.ID+"/events", "")
	defer resp.Body.Close()
	doJSON(t, "DELETE", ts.URL+"/v1/jobs/"+occupier.ID, "", nil)

	events := readSSE(t, bufio.NewReader(resp.Body), 1000)
	if len(events) == 0 {
		t.Fatal("event stream delivered nothing")
	}
	last := events[len(events)-1]
	if last.Type != serve.EventResult {
		t.Fatalf("stream ended with %q, want the result event", last.Type)
	}
	var final serve.View
	if err := json.Unmarshal([]byte(last.Data), &final); err != nil {
		t.Fatalf("decoding result event: %v", err)
	}
	if final.State != serve.StateDone || final.Result == nil || final.Result.Stats.Committed < 30000 {
		t.Fatalf("result event view = state %s, want the finished job", final.State)
	}

	var progress, state int
	var lastSeq uint64
	for _, ev := range events[:len(events)-1] {
		if ev.ID <= lastSeq {
			t.Fatalf("event ids not increasing: %d after %d", ev.ID, lastSeq)
		}
		lastSeq = ev.ID
		switch ev.Type {
		case serve.EventProgress:
			progress++
		case serve.EventState:
			state++
			if ev.Data != `"done"` {
				t.Errorf("state event data = %s, want \"done\"", ev.Data)
			}
		}
	}
	if progress < 10 {
		t.Errorf("saw %d progress events, want >= 10 for a 30k-instr job at cadence 1000", progress)
	}
	if state != 1 {
		t.Errorf("saw %d state events, want exactly the terminal one", state)
	}
}

// TestSSEReplay connects after the job finished (full history replay)
// and again with Last-Event-ID, which must skip everything already
// seen.
func TestSSEReplay(t *testing.T) {
	_, ts := servetest.Start(t, serve.Config{ProgressEvery: 1000})
	_, _, b := doJSON(t, "POST", ts.URL+"/v1/jobs", `{"workload":"gcc","max_instr":20000}`, nil)
	job := decodeView(t, b)
	waitTerminal(t, ts.URL, job.ID)

	resp := openStream(t, ts.URL+"/v1/jobs/"+job.ID+"/events", "")
	full := readSSE(t, bufio.NewReader(resp.Body), 1000)
	resp.Body.Close()
	if len(full) < 3 {
		t.Fatalf("full replay returned %d events, want the whole history + result", len(full))
	}
	if full[len(full)-1].Type != serve.EventResult {
		t.Fatal("replayed stream does not end with the result event")
	}

	// Resume from the third-to-last seq: only the later events replay.
	resumeAt := full[len(full)-3].ID
	resp = openStream(t, ts.URL+"/v1/jobs/"+job.ID+"/events", strconv.FormatUint(resumeAt, 10))
	tail := readSSE(t, bufio.NewReader(resp.Body), 1000)
	resp.Body.Close()
	for _, ev := range tail {
		if ev.ID != 0 && ev.ID <= resumeAt {
			t.Errorf("resumed stream replayed seq %d, at or before Last-Event-ID %d", ev.ID, resumeAt)
		}
	}
	if got := len(tail); got != 2 {
		t.Errorf("resumed stream returned %d events, want exactly seq>%d plus the result", got, resumeAt)
	}
}

// TestSSEClientDisconnect hangs up mid-stream; the handler must tear
// its subscription down and leave no goroutine behind (asserted by the
// harness leak check), and the job must keep running to completion.
func TestSSEClientDisconnect(t *testing.T) {
	_, ts := servetest.Start(t, serve.Config{ProgressEvery: 500})
	_, _, b := doJSON(t, "POST", ts.URL+"/v1/jobs", `{"workload":"gcc","max_instr":2000000}`, nil)
	job := decodeView(t, b)

	resp := openStream(t, ts.URL+"/v1/jobs/"+job.ID+"/events", "")
	rd := bufio.NewReader(resp.Body)
	// Prove the stream is live, then vanish without warning.
	if events := readSSE(t, rd, 2); len(events) < 1 {
		t.Fatal("no events before the disconnect")
	}
	resp.Body.Close()

	// The job keeps running to completion; the leak check registered by
	// servetest.Start fails the test if the handler goroutine survives.
	v := waitTerminal(t, ts.URL, job.ID)
	if v.State != serve.StateDone {
		t.Fatalf("job finished %s after subscriber disconnect, want done", v.State)
	}
}

// TestSSEReplayPastHistoryLags subscribes from 0 to a finished job
// whose feed outgrew the history ring: the stream must open with a
// lagged event carrying the evicted count, under the last evicted seq,
// and then replay the ring without a further gap.
func TestSSEReplayPastHistoryLags(t *testing.T) {
	_, ts := servetest.Start(t, serve.Config{ProgressEvery: 100})
	_, _, b := doJSON(t, "POST", ts.URL+"/v1/jobs", `{"workload":"gcc","max_instr":50000}`, nil)
	job := decodeView(t, b)
	waitTerminal(t, ts.URL, job.ID)

	resp := openStream(t, ts.URL+"/v1/jobs/"+job.ID+"/events", "")
	events := readSSE(t, bufio.NewReader(resp.Body), 10000)
	resp.Body.Close()
	if len(events) < 3 {
		t.Fatalf("stream returned %d events", len(events))
	}
	lag := events[0]
	if lag.Type != serve.EventLagged {
		t.Fatalf("first event = %q, want %q for a feed past the history ring", lag.Type, serve.EventLagged)
	}
	dropped, err := strconv.ParseUint(lag.Data, 10, 64)
	if err != nil || dropped == 0 || dropped != lag.ID {
		t.Errorf("lagged event id %d data %q, want the evicted count, equal to the last evicted seq", lag.ID, lag.Data)
	}
	replay := events[1 : len(events)-1]
	for k, ev := range replay {
		if ev.ID != lag.ID+1+uint64(k) {
			t.Fatalf("replay event %d has seq %d, want %d: the replay after lagged must be gapless", k, ev.ID, lag.ID+1+uint64(k))
		}
	}
	if last := events[len(events)-1]; last.Type != serve.EventResult {
		t.Errorf("stream ended with %q, want the result event", last.Type)
	}

	// Resuming from the lagged event's id is gapless: no second lagged.
	resp = openStream(t, ts.URL+"/v1/jobs/"+job.ID+"/events", strconv.FormatUint(lag.ID, 10))
	again := readSSE(t, bufio.NewReader(resp.Body), 10000)
	resp.Body.Close()
	if len(again) == 0 || again[0].Type == serve.EventLagged {
		t.Errorf("resume from the lagged id reported a gap again")
	}
}
