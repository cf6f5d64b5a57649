// Package serve mirrors civect/internal/serve's position in the
// repository: the simulation-as-a-service daemon sits deliberately
// OUTSIDE the nodeterm default package set, because a server is
// wall-clock territory by nature — timeouts, drain deadlines and
// racing selects over client connections are its job.
// Nothing here carries a want comment: under the default -nodeterm.pkgs
// every one of these constructs must pass unflagged.
package serve

import "time"

// QueueWait measures how long a job sat in the queue — a wall-clock
// read nodeterm would ban in the simulator core.
func QueueWait(enqueued time.Time) time.Duration {
	return time.Since(enqueued)
}

// AwaitDrain races workers against a deadline — a multi-way select
// nodeterm would ban in the simulator core.
func AwaitDrain(done chan struct{}, deadline chan time.Time) bool {
	select {
	case <-done:
		return true
	case <-deadline:
		return false
	}
}
