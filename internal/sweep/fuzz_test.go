package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"civect/internal/harness"
)

// shardSeeds runs a real two-benchmark shard, the whole sweep in one
// shard so that Merge and Tables accept it as it stands, and returns
// its file and the journal that run writes: one Cell per line.
func shardSeeds(f *testing.F) (file, journal []byte) {
	f.Helper()
	shard, err := RunShard(context.Background(), []string{"cost", "fig10"},
		harness.Options{MaxInstr: 2000, Benches: []string{"gcc", "gzip"}}, Shard{K: 1, N: 1}, "")
	if err != nil {
		f.Fatal(err)
	}
	if file, err = json.Marshal(shard); err != nil {
		f.Fatal(err)
	}
	for _, c := range shard.Cells {
		line, err := json.Marshal(c)
		if err != nil {
			f.Fatal(err)
		}
		journal = append(append(journal, line...), '\n')
	}
	return file, journal
}

// addMangled seeds f with blob, its truncations and single-bit flips
// spread over it.
func addMangled(f *testing.F, blob []byte) {
	f.Add(blob)
	for _, n := range []int{0, 1, len(blob) / 3, len(blob) / 2, len(blob) - 2, len(blob) - 1} {
		f.Add(blob[:n])
	}
	for i := 1; i < 16; i++ {
		b := bytes.Clone(blob)
		b[i*len(b)/16] ^= 1 << (i % 8)
		f.Add(b)
	}
}

// shardTables decodes a shard file, merges it on its own and
// regenerates its tables.
func shardTables(blob []byte) error {
	sf, err := decodeFile(blob)
	if err == nil {
		sf, err = Merge([]*File{sf})
	}
	if err == nil {
		_, err = Tables(sf)
	}
	return err
}

// FuzzShardFile feeds arbitrary bytes through a shard file's decoding,
// Merge and Tables: a file that does not describe a complete, valid
// sweep is an error at one of the three, never a panic.
func FuzzShardFile(f *testing.F) {
	file, _ := shardSeeds(f)
	if err := shardTables(file); err != nil {
		f.Fatalf("the unmangled shard does not reach the tables: %v", err)
	}
	addMangled(f, file)
	f.Fuzz(func(t *testing.T, blob []byte) {
		_ = shardTables(blob)
	})
}

// FuzzShardJournal feeds arbitrary bytes to the journal decoder with
// the real shard's cells as the plan: a journal that is torn anywhere
// but its last line, names a cell outside the plan, repeats a cell or
// lacks stats is an error, never a panic.
func FuzzShardJournal(f *testing.F) {
	file, journal := shardSeeds(f)
	addMangled(f, journal)
	sf, err := decodeFile(file)
	if err != nil {
		f.Fatal(err)
	}
	allowed := make(map[string]bool, len(sf.Cells))
	for _, c := range sf.Cells {
		allowed[c.Spec.Key()] = true
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		done, err := decodeJournal("fuzz.jnl", blob, allowed)
		if err != nil {
			return
		}
		for key, st := range done {
			if !allowed[key] || st == nil {
				t.Fatalf("journal accepted cell %s with stats %v", key, st)
			}
		}
	})
}
