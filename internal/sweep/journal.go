package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"civect/internal/core"
	"civect/internal/harness"
)

// Shard journaling gives RunShard crash recovery. As each cell
// finishes it is appended to a journal file — one Cell JSON object per
// line, synced — so a killed shard run can be restarted with the same
// journal path and simulate only the cells it had not yet completed.
// The final File is byte-identical to an unjournaled RunShard's:
// journal-recovered cells carry the exact Stats recorded before the
// kill, and the deterministic engines make re-simulated cells
// bit-identical anyway. On success the journal is removed — like a
// session checkpoint, a leftover journal always means resumable work.

// readJournal parses a shard journal into a key -> Stats map. allowed
// is the shard's planned cell-key set: a journal entry outside it means
// the journal belongs to a different sweep (or shard) and is a hard
// error, never silently dropped. A torn final line — the signature of a
// kill mid-append — is discarded; corruption anywhere else is an error.
func readJournal(path string, allowed map[string]bool) (map[string]*core.Stats, error) {
	blob, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	done := make(map[string]*core.Stats)
	lines := bytes.Split(blob, []byte("\n"))
	for i, line := range lines {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var c Cell
		if err := json.Unmarshal(line, &c); err != nil {
			if i == len(lines)-1 {
				// Torn tail: the previous run died mid-append. Everything
				// before it is intact; the interrupted cell re-simulates.
				break
			}
			return nil, fmt.Errorf("sweep: journal %s line %d: %w", path, i+1, err)
		}
		key := c.Spec.Key()
		if !allowed[key] {
			return nil, fmt.Errorf("sweep: journal %s line %d: cell %s is not in this shard's plan (stale journal?)", path, i+1, key)
		}
		if _, dup := done[key]; dup {
			return nil, fmt.Errorf("sweep: journal %s line %d: cell %s recorded twice", path, i+1, key)
		}
		if c.Stats == nil {
			return nil, fmt.Errorf("sweep: journal %s line %d: cell %s has no stats", path, i+1, key)
		}
		done[key] = c.Stats
	}
	return done, nil
}

// shardJournal is an open shard journal.
type shardJournal struct {
	path string
	f    *os.File
}

// openJournal recovers the cells of the journal at path into h, so a
// sweep of cells skips them, and opens the journal for appending.
func openJournal(path string, cells []harness.RunSpec, h *harness.Harness) (*shardJournal, error) {
	allowed := make(map[string]bool, len(cells))
	for _, s := range cells {
		allowed[s.Key()] = true
	}
	done, err := readJournal(path, allowed)
	if err != nil {
		return nil, err
	}
	for _, s := range cells {
		if st, ok := done[s.Key()]; ok {
			h.Prime(s, st)
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("sweep: journal: %w", err)
	}
	return &shardJournal{path: path, f: f}, nil
}

// append records one completed cell. It syncs per cell: each cell is a
// whole simulation, so the sync is cheap relative to the work it makes
// durable.
func (j *shardJournal) append(s harness.RunSpec, st *core.Stats) error {
	line, err := json.Marshal(Cell{Spec: s, Stats: st})
	if err != nil {
		return fmt.Errorf("sweep: journal: %w", err)
	}
	if _, err := j.f.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("sweep: journal: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("sweep: journal: %w", err)
	}
	return nil
}

// finish closes and removes the journal of a completed shard.
func (j *shardJournal) finish() error {
	if err := j.f.Close(); err != nil {
		return fmt.Errorf("sweep: journal: %w", err)
	}
	if err := os.Remove(j.path); err != nil {
		return fmt.Errorf("sweep: removing completed journal: %w", err)
	}
	return nil
}
