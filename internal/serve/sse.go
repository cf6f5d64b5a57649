package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"
)

// sseHeartbeat is the comment-ping cadence that keeps intermediaries
// from timing the stream out and lets the handler notice dead clients.
const sseHeartbeat = 15 * time.Second

// handleEvents streams a job's event feed as Server-Sent Events. The
// stream replays history (from the Last-Event-ID header's sequence
// number onward, when a reconnecting client sends one), follows with
// live events, and always ends with a `result` event carrying the
// terminal job view — a subscriber can never miss the outcome, even if
// it was too slow for intermediate events or asked for events older
// than the history ring (both surface as a `lagged` event carrying the
// dropped count, instead of blocking the simulation's worker or
// silently skipping ahead). Client
// disconnects tear the subscription down promptly; the server holds no
// goroutines for gone clients.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.job(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, ClassBadRequest, "unknown job "+r.PathValue("id"))
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, ClassFatal, "response writer cannot stream")
		return
	}

	var afterSeq uint64
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		if n, err := strconv.ParseUint(v, 10, 64); err == nil {
			afterSeq = n
		}
	}

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)

	replay, sub := j.hub.subscribe(afterSeq)
	defer j.hub.unsubscribe(sub)

	if len(replay) > 0 && replay[0].Seq > afterSeq+1 {
		// The ring evicted events the client asked for: report the gap
		// under the last evicted seq, so a reconnect resumes after it.
		gap := replay[0].Seq - afterSeq - 1
		if !writeSSE(w, Event{Seq: replay[0].Seq - 1, Type: EventLagged, Data: gap}) {
			return
		}
	}
	for _, ev := range replay {
		if !writeSSE(w, ev) {
			return
		}
	}
	fl.Flush()

	heartbeat := time.NewTicker(sseHeartbeat)
	defer heartbeat.Stop()
	for {
		select {
		case ev, open := <-sub.ch:
			if !open {
				// Feed complete: deliver the authoritative outcome and
				// end the stream.
				writeSSE(w, Event{Type: EventResult, Data: j.View()})
				fl.Flush()
				return
			}
			if !writeSSE(w, ev) {
				return
			}
			fl.Flush()
		case <-heartbeat.C:
			if _, err := fmt.Fprint(w, ": ping\n\n"); err != nil {
				return
			}
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// writeSSE renders one event in wire format; false means the client is
// gone.
func writeSSE(w http.ResponseWriter, ev Event) bool {
	data, err := json.Marshal(ev.Data)
	if err != nil {
		data = []byte(strconv.Quote("marshal error: " + err.Error()))
	}
	if ev.Seq != 0 {
		if _, err := fmt.Fprintf(w, "id: %d\n", ev.Seq); err != nil {
			return false
		}
	}
	_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, data)
	return err == nil
}
