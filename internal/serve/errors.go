package serve

import (
	"context"
	"errors"
	"fmt"
)

// Class buckets every failure the daemon can see into the error
// taxonomy docs/SERVICE.md documents. The class decides the HTTP
// status a failure surfaces as.
type Class string

const (
	// ClassBadRequest marks errors that are the client's fault — a
	// malformed spec, an unknown workload, an out-of-range parameter.
	// Surfaces as HTTP 400 at submission.
	ClassBadRequest Class = "bad_request"
	// ClassTransient marks the admission answers that say "try again
	// shortly": a full queue (429) and a draining server (503), both
	// carrying Retry-After. No job ever fails with it: the simulator is
	// deterministic, so a job that failed once fails the same way again.
	ClassTransient Class = "transient"
	// ClassCanceled marks runs cut short deliberately: a client DELETE
	// or a drain deadline. The job keeps its partial result.
	ClassCanceled Class = "canceled"
	// ClassFatal marks everything else: a simulator error or recovered
	// panic, a trace or checkpoint I/O error, any unidentified failure.
	// The job fails with it.
	ClassFatal Class = "fatal"
)

// badRequestError marks a wrapped error as the client's fault.
type badRequestError struct{ err error }

func (e *badRequestError) Error() string { return e.err.Error() }
func (e *badRequestError) Unwrap() error { return e.err }

// BadRequest implements the marker interface Classify recognizes.
func (e *badRequestError) BadRequest() bool { return true }

// markBadRequest wraps err so Classify returns ClassBadRequest for it.
func markBadRequest(err error) error {
	if err == nil {
		return nil
	}
	return &badRequestError{err}
}

// badRequestf builds a fresh client-fault error.
func badRequestf(format string, args ...any) error {
	return markBadRequest(fmt.Errorf(format, args...))
}

// Classify maps a job or admission error onto its Class: the
// bad-request marker wins, context cancellations are canceled, and
// everything else — recovered panics and I/O errors included — is
// fatal, the conservative default (an unknown failure must not be
// blamed on the client).
func Classify(err error) Class {
	if err == nil {
		return ""
	}
	var br interface{ BadRequest() bool }
	if errors.As(err, &br) && br.BadRequest() {
		return ClassBadRequest
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return ClassCanceled
	}
	return ClassFatal
}
