package serve

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"time"

	"civect/sim"
)

// errQueueFull is the backpressure signal: the bounded queue has no
// room, the client should retry after a short wait (HTTP 429).
var errQueueFull = errors.New("serve: job queue full")

// errDraining refuses submissions during graceful shutdown (HTTP 503).
var errDraining = errors.New("serve: draining, not accepting new jobs")

// maxBodyBytes bounds request bodies: a job spec is a few hundred
// bytes, so anything above a megabyte is hostile or broken.
const maxBodyBytes = 1 << 20

// errorBody is the JSON error envelope every non-2xx response carries.
type errorBody struct {
	Error string `json:"error"`
	Class Class  `json:"class"`
}

// Handler returns the daemon's HTTP API:
//
//	POST   /v1/jobs             submit a job (JobSpec body, optional Idempotency-Key header)
//	GET    /v1/jobs             list jobs
//	GET    /v1/jobs/{id}        job status + result
//	DELETE /v1/jobs/{id}        cancel a job
//	GET    /v1/jobs/{id}/events SSE progress stream
//	GET    /healthz             liveness + operational counters
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, class Class, msg string) {
	writeJSON(w, status, errorBody{Error: msg, Class: class})
}

// readSpec decodes one POST /v1/jobs body, rejecting unknown fields,
// and resolves it against cfg. Every error is ClassBadRequest.
func readSpec(body io.Reader, cfg *Config) (JobSpec, *sim.Workload, []sim.Option, error) {
	var spec JobSpec
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return spec, nil, nil, badRequestf("invalid job spec: %v", err)
	}
	// A body is exactly one JSON value: a second one would otherwise
	// be silently ignored.
	var extra json.RawMessage
	if err := dec.Decode(&extra); err != io.EOF {
		return spec, nil, nil, badRequestf("invalid job spec: trailing data after the JSON object")
	}
	wl, opts, err := spec.resolve(cfg)
	return spec, wl, opts, err
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, wl, opts, err := readSpec(http.MaxBytesReader(w, r.Body, maxBodyBytes), &s.cfg)
	if err != nil {
		writeError(w, http.StatusBadRequest, ClassBadRequest, err.Error())
		return
	}

	j, replayed, err := s.submit(spec, r.Header.Get("Idempotency-Key"), wl, opts)
	switch {
	case err == nil:
		status := http.StatusCreated
		if replayed {
			status = http.StatusOK
		} else {
			w.Header().Set("Location", "/v1/jobs/"+j.ID)
		}
		writeJSON(w, status, j.View())
	case errors.Is(err, errQueueFull):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, ClassTransient, err.Error())
	case errors.Is(err, errDraining):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, ClassTransient, err.Error())
	default:
		writeError(w, http.StatusInternalServerError, ClassFatal, err.Error())
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Jobs []View `json:"jobs"`
	}{s.jobViews()})
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j := s.job(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, ClassBadRequest, "unknown job "+r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j.View())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.job(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, ClassBadRequest, "unknown job "+r.PathValue("id"))
		return
	}
	// Idempotent: cancelling a terminal job just reports its state.
	if j.requestCancel() {
		writeJSON(w, http.StatusAccepted, j.View())
		return
	}
	writeJSON(w, http.StatusOK, j.View())
}

// Health is the /healthz payload.
type Health struct {
	// Status is ok or draining.
	Status string `json:"status"`
	// Queue and workers occupancy.
	QueueLen int `json:"queue_len"`
	QueueCap int `json:"queue_cap"`
	Inflight int `json:"inflight"`
	Workers  int `json:"workers"`
	// Counters since start.
	Submitted     uint64 `json:"submitted"`
	Replayed      uint64 `json:"replayed"`
	Done          uint64 `json:"done"`
	Failed        uint64 `json:"failed"`
	Canceled      uint64 `json:"canceled"`
	ShedQueueFull uint64 `json:"shed_queue_full"`
	ShedDraining  uint64 `json:"shed_draining"`
	// UptimeSeconds since New.
	UptimeSeconds float64 `json:"uptime_seconds"`
}

// health snapshots the server for /healthz (and tests).
func (s *Server) health() (Health, int) {
	h := Health{
		Status:   "ok",
		QueueLen: len(s.queue), QueueCap: s.cfg.QueueDepth,
		Inflight: int(s.inflight.Load()), Workers: s.cfg.Workers,
		Submitted: s.metrics.Submitted.Load(), Replayed: s.metrics.Replayed.Load(),
		Done: s.metrics.Done.Load(), Failed: s.metrics.Failed.Load(),
		Canceled:      s.metrics.Canceled.Load(),
		ShedQueueFull: s.metrics.ShedQueueFull.Load(),
		ShedDraining:  s.metrics.ShedDraining.Load(),
		UptimeSeconds: time.Since(s.started).Seconds(),
	}
	if s.Draining() {
		h.Status = "draining"
		return h, http.StatusServiceUnavailable
	}
	return h, http.StatusOK
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h, status := s.health()
	writeJSON(w, status, h)
}
