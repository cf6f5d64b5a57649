package trace

import (
	"fmt"
	"io"
	"sort"
)

// Machine reconstructs per-cycle pipeline state offline from a journal
// event stream. It models exactly what the journal makes observable —
// the set of in-flight (renamed, not yet retired) instructions, their
// issue status, and the commit counters — and in strict mode verifies
// the stream obeys pipeline discipline: rename sequence numbers
// strictly increase, commits retire the oldest in-flight instruction
// (ROB FIFO order), squashes discard exactly the instructions younger
// than the kept sequence number. A journal that replays strictly with
// no error is therefore both intact and internally consistent.
type Machine struct {
	// Lenient relaxes the discipline checks for windowed journals,
	// where instructions enter mid-stream: commits and issues of
	// unknown sequence numbers are counted instead of rejected.
	Lenient bool

	// Cycle is the cycle of the last applied event.
	Cycle uint64
	// Halted is set once the halt commit retires.
	Halted bool

	// Event counters, one per kind.
	Fetched   uint64
	Renamed   uint64
	Issued    uint64
	Committed uint64
	Reused    uint64 // commits flagged as reused (validated or squash-reuse)
	Squashed  uint64 // instructions discarded by squash events
	Jumps     uint64 // fast-forward jumps (LevelFull journals)
	Skipped   uint64 // stall cycles those jumps absorbed

	inflight []replaySlot // sorted by ascending seq
}

type replaySlot struct {
	seq    uint64
	pc     int32
	issued bool
}

// Apply advances the machine by one event. Errors wrap ErrMalformed
// and carry the offending event.
func (m *Machine) Apply(e Event) error {
	m.Cycle = e.Cycle
	switch e.Kind {
	case KindFetch:
		m.Fetched++
	case KindRename:
		if n := len(m.inflight); n > 0 && e.Seq <= m.inflight[n-1].seq && !m.Lenient {
			return fmt.Errorf("%w: cycle %d: rename seq %d not above in-flight tail %d",
				ErrMalformed, e.Cycle, e.Seq, m.inflight[n-1].seq)
		}
		m.inflight = append(m.inflight, replaySlot{seq: e.Seq, pc: e.PC})
		m.Renamed++
	case KindIssue:
		i := m.find(e.Seq)
		if i < 0 {
			if !m.Lenient {
				return fmt.Errorf("%w: cycle %d: issue of unknown seq %d", ErrMalformed, e.Cycle, e.Seq)
			}
		} else {
			if m.inflight[i].issued && !m.Lenient {
				return fmt.Errorf("%w: cycle %d: double issue of seq %d", ErrMalformed, e.Cycle, e.Seq)
			}
			m.inflight[i].issued = true
		}
		m.Issued++
	case KindCommit:
		switch {
		case len(m.inflight) > 0 && m.inflight[0].seq == e.Seq:
			if m.inflight[0].pc != e.PC && !m.Lenient {
				return fmt.Errorf("%w: cycle %d: commit of seq %d at pc %d, renamed at pc %d",
					ErrMalformed, e.Cycle, e.Seq, e.PC, m.inflight[0].pc)
			}
			m.inflight = m.inflight[:copy(m.inflight, m.inflight[1:])]
		case m.Lenient:
			// Windowed journal: the instruction renamed before the
			// window opened.
		default:
			return fmt.Errorf("%w: cycle %d: commit of seq %d violates ROB FIFO order (oldest in flight: %s)",
				ErrMalformed, e.Cycle, e.Seq, m.oldest())
		}
		m.Committed++
		if e.Reused {
			m.Reused++
		}
		if e.Halt {
			m.Halted = true
		}
	case KindSquash:
		keep := sort.Search(len(m.inflight), func(i int) bool { return m.inflight[i].seq > e.Seq })
		removed := len(m.inflight) - keep
		m.inflight = m.inflight[:keep]
		m.Squashed += e.N
		if uint64(removed) != e.N && !m.Lenient {
			return fmt.Errorf("%w: cycle %d: squash above seq %d discarded %d in flight, journal says %d",
				ErrMalformed, e.Cycle, e.Seq, removed, e.N)
		}
	case KindJump:
		m.Jumps++
		m.Skipped += e.N - e.Cycle
	default:
		return fmt.Errorf("%w: cycle %d: unexpected event kind %v", ErrMalformed, e.Cycle, e.Kind)
	}
	return nil
}

func (m *Machine) find(seq uint64) int {
	i := sort.Search(len(m.inflight), func(i int) bool { return m.inflight[i].seq >= seq })
	if i < len(m.inflight) && m.inflight[i].seq == seq {
		return i
	}
	return -1
}

func (m *Machine) oldest() string {
	if len(m.inflight) == 0 {
		return "none"
	}
	return fmt.Sprintf("seq %d", m.inflight[0].seq)
}

// Summary is the result of replaying a whole journal.
type Summary struct {
	Meta    Meta
	Level   Level
	Machine Machine
	// Events is the total number of events replayed.
	Events uint64
	// FirstCycle and LastCycle bound the cycles that carried events.
	FirstCycle, LastCycle uint64
}

// Replay streams the whole journal through a Machine (strict for full
// journals, lenient for windowed ones) and returns the summary. The
// returned error distinguishes journal damage (ErrCorrupt,
// ErrTruncated) from pipeline-discipline violations (ErrMalformed).
func Replay(r *Reader) (*Summary, error) {
	s := &Summary{Meta: r.Meta(), Level: r.Level()}
	s.Machine.Lenient = r.Windowed()
	for {
		e, err := r.Next()
		if err == io.EOF {
			return s, nil
		}
		if err != nil {
			return s, err
		}
		if s.Events == 0 {
			s.FirstCycle = e.Cycle
		}
		s.Events++
		if e.Cycle > s.LastCycle {
			s.LastCycle = e.Cycle
		}
		if err := s.Machine.Apply(e); err != nil {
			return s, err
		}
	}
}

// Dump renders the journal as text: one header line, then the events
// grouped by cycle, restricted to cycles in [from, to] (to == 0 means
// unbounded). The whole journal is still streamed and verified, so a
// clean Dump implies an intact journal.
func Dump(w io.Writer, r *Reader, from, to uint64) error {
	if _, err := fmt.Fprintf(w, "civt v%d level=%s mode=%s workload=%q windowed=%v\n",
		Version, r.Level(), r.Meta().Mode, r.Meta().Workload, r.Windowed()); err != nil {
		return err
	}
	cur := ^uint64(0)
	for {
		e, err := r.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if e.Cycle < from || to != 0 && e.Cycle > to {
			continue
		}
		if e.Cycle != cur {
			if _, err := fmt.Fprintf(w, "cycle %d\n", e.Cycle); err != nil {
				return err
			}
			cur = e.Cycle
		}
		if _, err := fmt.Fprintf(w, "  %s\n", e); err != nil {
			return err
		}
	}
}
