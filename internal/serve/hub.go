package serve

import (
	"sync"
)

// Event types streamed over a job's SSE feed.
const (
	// EventState announces a state transition; data is the new state.
	EventState = "state"
	// EventProgress carries the aggregated observer taps: cycle,
	// committed instructions, reuse and commit-batch totals, jumps.
	EventProgress = "progress"
	// EventResult is the terminal event: the job's View, result
	// included, emitted exactly once before the stream ends.
	EventResult = "result"
	// EventLagged tells a slow subscriber that events were dropped
	// between what it saw and what follows; data is the dropped count.
	EventLagged = "lagged"
)

// Event is one SSE feed entry. Seq numbers are per-job, monotonically
// increasing from 1, and double as SSE event ids.
type Event struct {
	Seq  uint64 `json:"seq"`
	Type string `json:"type"`
	Data any    `json:"data"`
}

// Progress is the payload of EventProgress: the coalesced commit-batch
// and progress observer taps since the run began.
type Progress struct {
	// Cycle and Committed are the session's position.
	Cycle     uint64 `json:"cycle"`
	Committed uint64 `json:"committed"`
	// Reused counts committed instructions whose results were reused
	// (the mechanism's headline effect), summed over all commit batches.
	Reused uint64 `json:"reused"`
	// CommitBatches counts OnCommitBatch taps (one per committing
	// cycle).
	CommitBatches uint64 `json:"commit_batches"`
	// Jumps counts fast-forward cycle jumps the engine took.
	Jumps uint64 `json:"jumps"`
}

// hub fans a job's events out to any number of subscribers, decoupling
// the worker (which must never block on a slow client) from SSE
// handlers. A bounded history ring lets late subscribers replay what
// they missed; a subscriber that falls further behind than its buffer,
// or asks to replay events the ring has already evicted, is told so
// with EventLagged rather than silently losing events or stalling the
// publisher.
type hub struct {
	mu      sync.Mutex
	nextSeq uint64
	// history is a bounded ring of the most recent events (cap
	// historyCap), in Seq order.
	history []Event
	subs    map[*subscriber]struct{}
	closed  bool
}

// historyCap bounds per-job event retention. Progress events arrive at
// a controlled cadence, so this covers the whole feed of typical jobs
// while capping memory on pathological ones.
const historyCap = 256

// subscriber is one SSE connection's queue.
type subscriber struct {
	ch chan Event
	// dropped counts events lost to a full queue since the last
	// successful delivery; reported via EventLagged.
	dropped uint64
}

// subBuffer bounds each subscriber's in-flight queue.
const subBuffer = 64

func newHub() *hub {
	return &hub{subs: make(map[*subscriber]struct{})}
}

// publish appends an event to the history and offers it to every
// subscriber without ever blocking: a subscriber with a full queue
// accumulates a dropped count that is surfaced as EventLagged once its
// queue has room again.
func (h *hub) publish(ev Event) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.nextSeq++
	ev.Seq = h.nextSeq
	if len(h.history) == historyCap {
		copy(h.history, h.history[1:])
		h.history = h.history[:historyCap-1]
	}
	h.history = append(h.history, ev)
	for s := range h.subs {
		if s.dropped > 0 {
			// Try to tell the subscriber about the gap first, under the
			// last dropped seq (as a replay past the ring does); until
			// that fits, keep counting.
			select {
			case s.ch <- Event{Seq: ev.Seq - 1, Type: EventLagged, Data: s.dropped}:
				s.dropped = 0
			default:
				s.dropped++
				continue
			}
		}
		select {
		case s.ch <- ev:
		default:
			s.dropped++
		}
	}
}

// subscribe registers a new subscriber and returns the replay of
// history events with Seq > afterSeq, followed by the live queue. The
// caller must unsubscribe when done.
func (h *hub) subscribe(afterSeq uint64) (replay []Event, s *subscriber) {
	s = &subscriber{ch: make(chan Event, subBuffer)}
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, ev := range h.history {
		if ev.Seq > afterSeq {
			replay = append(replay, ev)
		}
	}
	if !h.closed {
		h.subs[s] = struct{}{}
	} else {
		close(s.ch)
	}
	return replay, s
}

// unsubscribe removes s; its channel is not closed (the subscriber owns
// draining it).
func (h *hub) unsubscribe(s *subscriber) {
	h.mu.Lock()
	delete(h.subs, s)
	h.mu.Unlock()
}

// close marks the feed complete and closes every subscriber channel:
// after the history replay, SSE handlers see end-of-stream.
func (h *hub) close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	for s := range h.subs {
		close(s.ch)
		delete(h.subs, s)
	}
}
