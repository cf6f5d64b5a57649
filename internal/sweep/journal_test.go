package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"civect/internal/harness"
)

// journalOptions is a small sweep that still spans several cells per
// shard, so truncation tests have a meaningful prefix to recover.
func journalOptions() ([]string, harness.Options, Shard) {
	return []string{"cost", "fig10"},
		harness.Options{MaxInstr: 5000, Benches: []string{"gcc", "gzip"}},
		Shard{K: 1, N: 2}
}

// TestJournaledMatchesRunShard: an uninterrupted journaled run produces
// a File byte-identical to a straight RunShard and leaves no journal
// behind.
func TestJournaledMatchesRunShard(t *testing.T) {
	expIDs, opt, sh := journalOptions()
	want, err := RunShard(context.Background(), expIDs, opt, sh, "")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "shard.jnl")
	got, err := RunShard(context.Background(), expIDs, opt, sh, path)
	if err != nil {
		t.Fatal(err)
	}
	gb, _ := json.MarshalIndent(got, "", "  ")
	wb, _ := json.MarshalIndent(want, "", "  ")
	if string(gb) != string(wb) {
		t.Errorf("journaled shard file differs from RunShard's:\n--- journaled ---\n%s\n--- direct ---\n%s", gb, wb)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("journal %s still exists after a completed run (stat err %v)", path, err)
	}
}

// TestJournalResume is the kill-and-restart contract: given a journal
// holding a prefix of the shard's cells — with a torn final line, as a
// kill mid-append leaves — the restarted run recovers the prefix,
// simulates only the rest, and produces a File byte-identical to an
// uninterrupted RunShard's.
func TestJournalResume(t *testing.T) {
	expIDs, opt, sh := journalOptions()
	want, err := RunShard(context.Background(), expIDs, opt, sh, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Cells) < 3 {
		t.Fatalf("test sweep too small: %d cells in shard %s", len(want.Cells), sh)
	}

	// Rebuild the journal a kill would leave: the first two cells
	// complete, the third torn mid-write.
	var jnl strings.Builder
	for _, c := range want.Cells[:2] {
		line, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		jnl.Write(line)
		jnl.WriteByte('\n')
	}
	full, _ := json.Marshal(want.Cells[2])
	jnl.Write(full[:len(full)/2]) // torn tail, no newline
	path := filepath.Join(t.TempDir(), "shard.jnl")
	if err := os.WriteFile(path, []byte(jnl.String()), 0o644); err != nil {
		t.Fatal(err)
	}

	got, err := RunShard(context.Background(), expIDs, opt, sh, path)
	if err != nil {
		t.Fatal(err)
	}
	gb, _ := json.MarshalIndent(got, "", "  ")
	wb, _ := json.MarshalIndent(want, "", "  ")
	if string(gb) != string(wb) {
		t.Errorf("resumed shard file differs from an uninterrupted run's:\n--- resumed ---\n%s\n--- direct ---\n%s", gb, wb)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("journal %s still exists after a completed run (stat err %v)", path, err)
	}
}

// TestJournalInterrupted is the crash contract end to end: a
// journaled shard stopped once its journal holds a cell has journaled
// the cells it finished and no others, and a restart with the same
// journal simulates only the rest and produces a File byte-identical
// to an uninterrupted RunShard's. One worker and ~10 ms cells leave
// the test ample time to cancel before the shard completes.
func TestJournalInterrupted(t *testing.T) {
	expIDs := []string{"fig5", "fig10"}
	opt := harness.Options{MaxInstr: 10_000, Benches: []string{"gcc", "gzip"}, Workers: 1}
	sh := Shard{K: 1, N: 1}
	want, err := RunShard(context.Background(), expIDs, opt, sh, "")
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "shard.jnl")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := RunShard(ctx, expIDs, opt, sh, path)
		done <- err
	}()
	for {
		if blob, _ := os.ReadFile(path); bytes.IndexByte(blob, '\n') >= 0 {
			cancel()
			break
		}
		select {
		case err := <-done:
			t.Fatalf("shard ended (err %v) before its journal held a cell", err)
		case <-time.After(time.Millisecond):
		}
	}
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted shard: err = %v, want context.Canceled", err)
	}

	// Poison the journaled cells: if the restart re-simulated them,
	// the poison would be gone.
	const poison = 12345
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var jnl bytes.Buffer
	recovered := map[string]bool{}
	for _, line := range bytes.Split(bytes.TrimSpace(blob), []byte("\n")) {
		var c Cell
		if err := json.Unmarshal(line, &c); err != nil {
			t.Fatalf("journal line %q: %v", line, err)
		}
		c.Stats.Cycles += poison
		recovered[c.Spec.Key()] = true
		out, _ := json.Marshal(c)
		jnl.Write(append(out, '\n'))
	}
	if n := len(recovered); n == 0 || n >= len(want.Cells) {
		t.Fatalf("interrupted journal holds %d of %d cells; want at least one and fewer than all", n, len(want.Cells))
	}
	if err := os.WriteFile(path, jnl.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	got, err := RunShard(context.Background(), expIDs, opt, sh, path)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range got.Cells {
		if recovered[c.Spec.Key()] {
			if c.Stats.Cycles != want.Cells[i].Stats.Cycles+poison {
				t.Errorf("journaled cell %s was simulated again", c.Spec.Key())
			}
			c.Stats.Cycles -= poison
		}
	}
	gb, _ := json.MarshalIndent(got, "", "  ")
	wb, _ := json.MarshalIndent(want, "", "  ")
	if !bytes.Equal(gb, wb) {
		t.Errorf("restarted shard file differs from an uninterrupted run's:\n--- restarted ---\n%s\n--- direct ---\n%s", gb, wb)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("journal %s still exists after a completed run (stat err %v)", path, err)
	}
}

// TestJournalRecoversWithoutResimulating proves completed cells are
// taken from the journal, not re-run: a journal entry with deliberately
// falsified statistics must flow through to the final File untouched.
func TestJournalRecoversWithoutResimulating(t *testing.T) {
	expIDs, opt, sh := journalOptions()
	want, err := RunShard(context.Background(), expIDs, opt, sh, "")
	if err != nil {
		t.Fatal(err)
	}
	poisoned := *want.Cells[0].Stats
	poisoned.Cycles += 12345
	line, err := json.Marshal(Cell{Spec: want.Cells[0].Spec, Stats: &poisoned})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "shard.jnl")
	if err := os.WriteFile(path, append(line, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := RunShard(context.Background(), expIDs, opt, sh, path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cells[0].Stats.Cycles != poisoned.Cycles {
		t.Errorf("cell %s was re-simulated (cycles %d) instead of recovered from the journal (cycles %d)",
			got.Cells[0].Spec.Key(), got.Cells[0].Stats.Cycles, poisoned.Cycles)
	}
}

// TestJournalRejectsStale: a journal whose cells are not in this
// shard's plan (different sweep options, different shard) is a hard
// error, never silently merged or dropped.
func TestJournalRejectsStale(t *testing.T) {
	expIDs, opt, sh := journalOptions()
	want, err := RunShard(context.Background(), expIDs, opt, sh, "")
	if err != nil {
		t.Fatal(err)
	}
	stale := want.Cells[0]
	stale.Spec.MaxInstr = 999 // not a planned cell under opt
	line, err := json.Marshal(stale)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "shard.jnl")
	if err := os.WriteFile(path, append(line, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := RunShard(context.Background(), expIDs, opt, sh, path); err == nil {
		t.Fatal("RunShard accepted a journal from a different sweep")
	} else if !strings.Contains(err.Error(), "not in this shard's plan") {
		t.Fatalf("wrong error for stale journal: %v", err)
	}
}

// TestJournalRejectsMidstreamCorruption: a malformed line that is not
// the final one cannot be a torn append and must fail loudly.
func TestJournalRejectsMidstreamCorruption(t *testing.T) {
	expIDs, opt, sh := journalOptions()
	want, err := RunShard(context.Background(), expIDs, opt, sh, "")
	if err != nil {
		t.Fatal(err)
	}
	line, _ := json.Marshal(want.Cells[0])
	blob := "{corrupt\n" + string(line) + "\n"
	path := filepath.Join(t.TempDir(), "shard.jnl")
	if err := os.WriteFile(path, []byte(blob), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := RunShard(context.Background(), expIDs, opt, sh, path); err == nil {
		t.Fatal("RunShard accepted a journal with midstream corruption")
	}
}
