// Command ciserve runs the civect simulation-as-a-service daemon: an
// HTTP API (internal/serve) that accepts simulation jobs as JSON, runs
// each as one session, streams progress over SSE, and serves results —
// with a bounded queue, idempotent replay and graceful drain built in.
//
// Usage:
//
//	ciserve -addr :8707
//	ciserve -addr :8707 -trace-dir /var/lib/civect/traces
//	ciserve -addr :8707 -ckpt-dir /var/lib/civect/ckpts
//	ciserve -doctor
//
// On SIGTERM or SIGINT the daemon stops admitting jobs (503), gives
// in-flight work until -drain-timeout to finish or checkpoint a
// partial result, then exits 0 on a clean drain. With -ckpt-dir, jobs
// submitted with a checkpoint_key also persist their machine state at
// the cut, and resubmitting the same spec under the same key resumes
// from it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"civect/internal/serve"
)

func main() {
	os.Exit(run())
}

func run() int {
	addr := flag.String("addr", ":8707", "listen address")
	queue := flag.Int("queue", 64, "bounded job-queue depth (backpressure: 429 when full)")
	workers := flag.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second,
		"how long in-flight jobs get to finish on SIGTERM before being checkpointed")
	traceDir := flag.String("trace-dir", "", "directory for per-job cycle-trace journal artifacts (empty = tracing disabled)")
	ckptDir := flag.String("ckpt-dir", "", "directory for resumable-job checkpoints (empty = checkpoint_key disabled)")
	doctor := flag.Bool("doctor", false, "run the preflight checks, print them, and exit")
	flag.Parse()

	logf := log.New(os.Stderr, "ciserve: ", log.LstdFlags).Printf

	cfg := serve.Config{
		QueueDepth:    *queue,
		Workers:       *workers,
		DrainTimeout:  *drainTimeout,
		TraceDir:      *traceDir,
		CheckpointDir: *ckptDir,
		Logf:          logf,
	}

	// Preflight before the listener opens: a daemon that cannot load
	// workloads or run a smoke session must refuse to serve, not fail
	// its first job.
	checks, perr := serve.Preflight(context.Background(), cfg)
	if *doctor {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(checks)
		if perr != nil {
			return 1
		}
		return 0
	}
	for _, c := range checks {
		status := "ok"
		if !c.OK {
			status = "FAIL"
		}
		logf("preflight %-17s %-4s %s (%v)", c.Name, status, c.Detail, c.Elapsed.Round(time.Millisecond))
	}
	if perr != nil {
		fmt.Fprintf(os.Stderr, "ciserve: %v\n", perr)
		return 1
	}

	s := serve.New(cfg)
	httpSrv := &http.Server{Addr: *addr, Handler: s.Handler()}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.ListenAndServe() }()
	logf("listening on %s (%d workers, queue %d)", *addr, s.Config().Workers, s.Config().QueueDepth)

	select {
	case sig := <-sigs:
		logf("%s: draining (in-flight jobs get %v)", sig, s.Config().DrainTimeout)
	case err := <-serveErr:
		fmt.Fprintf(os.Stderr, "ciserve: %v\n", err)
		s.Close()
		return 1
	}

	// Drain order: job layer first so /healthz flips to draining and
	// submissions 503 while in-flight jobs finish; the listener last so
	// clients can still poll results during the drain.
	drainErr := s.Drain(context.Background())
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	httpSrv.Shutdown(shutdownCtx)

	if drainErr != nil {
		logf("drain cut short: %v", drainErr)
		return 1
	}
	logf("drained cleanly")
	return 0
}
