package sweep

import (
	"context"
	"encoding/json"
	"hash/fnv"
	"strings"
	"testing"

	"civect/internal/harness"
)

// planOptions is the fixed sweep configuration the partitioning tests
// pin: the same shape CI's sharded smoke job runs.
func planOptions() harness.Options {
	return harness.Options{MaxInstr: 8000, Benches: []string{"gcc", "gzip", "eon"}}
}

func TestParseShard(t *testing.T) {
	good := map[string]Shard{
		"1/1": {1, 1},
		"2/8": {2, 8},
		"3/3": {3, 3},
	}
	for in, want := range good {
		got, err := ParseShard(in)
		if err != nil || got != want {
			t.Errorf("ParseShard(%q) = %v, %v; want %v", in, got, err, want)
		}
		if got.String() != in {
			t.Errorf("Shard.String() = %q, want %q", got.String(), in)
		}
	}
	for _, in := range []string{"", "3", "0/3", "4/3", "-1/2", "1/0", "a/b", "1/2/3",
		"2/8abc", "2/8 ", " 2/8", "2/8\r", "+2/8"} {
		if _, err := ParseShard(in); err == nil {
			t.Errorf("ParseShard(%q) should fail", in)
		}
	}
}

func TestPlanDeterministicAndSorted(t *testing.T) {
	a, err := Plan(nil, planOptions())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Plan(nil, planOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 {
		t.Fatal("empty plan")
	}
	if len(a) != len(b) {
		t.Fatalf("plan size varies across runs: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("plan[%d] differs across runs: %+v vs %+v", i, a[i], b[i])
		}
		if i > 0 && a[i-1].Key() >= a[i].Key() {
			t.Fatalf("plan not strictly Key-sorted at %d: %q >= %q", i, a[i-1].Key(), a[i].Key())
		}
	}
	// Every benchmark of the option set must appear.
	benches := map[string]bool{}
	for _, s := range a {
		benches[s.Bench] = true
		if s.MaxInstr != 8000 {
			t.Fatalf("plan spec not normalized: %+v", s)
		}
	}
	for _, b := range planOptions().Benches {
		if !benches[b] {
			t.Errorf("benchmark %s missing from plan", b)
		}
	}
}

func TestUnknownExperiment(t *testing.T) {
	if _, err := Plan([]string{"nope"}, planOptions()); err == nil {
		t.Error("unknown experiment id must fail the plan")
	}
}

// TestPartitionProperty: for any n, the shards are disjoint, their
// union is the full plan, sizes are balanced to within one, and
// Shard.Select agrees with Partition.
func TestPartitionProperty(t *testing.T) {
	plan, err := Plan(nil, planOptions())
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; n <= 9; n++ {
		parts := Partition(plan, n)
		if len(parts) != n {
			t.Fatalf("n=%d: got %d shards", n, len(parts))
		}
		seen := make(map[string]int)
		total := 0
		for k, part := range parts {
			sel := Shard{K: k + 1, N: n}.Select(plan)
			if len(sel) != len(part) {
				t.Fatalf("n=%d shard %d: Select (%d) and Partition (%d) disagree", n, k+1, len(sel), len(part))
			}
			for i := range part {
				if sel[i] != part[i] {
					t.Fatalf("n=%d shard %d cell %d: Select and Partition disagree", n, k+1, i)
				}
				if prev, dup := seen[part[i].Key()]; dup {
					t.Fatalf("n=%d: cell %s in shards %d and %d", n, part[i].Key(), prev, k+1)
				}
				seen[part[i].Key()] = k + 1
			}
			total += len(part)
			if min, max := len(plan)/n, len(plan)/n+1; len(part) < min || len(part) > max {
				t.Errorf("n=%d shard %d: %d cells, want %d..%d", n, k+1, len(part), min, max)
			}
		}
		if total != len(plan) {
			t.Fatalf("n=%d: union has %d cells, plan has %d", n, total, len(plan))
		}
	}
}

// TestShardAssignmentGolden pins the shard assignment for a fixed
// sweep: reordering the plan, changing Key, or changing the assignment
// rule shows up as a hash change, which would silently mix results
// from shards produced by different binaries. Update the constant only
// for deliberate, documented format changes (and bump FormatVersion).
func TestShardAssignmentGolden(t *testing.T) {
	plan, err := Plan(nil, planOptions())
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	for k, part := range Partition(plan, 3) {
		for _, s := range part {
			h.Write([]byte{byte(k)})
			h.Write([]byte(s.Key()))
			h.Write([]byte{'\n'})
		}
	}
	const want = "3683933d30d5ed99"
	if got := fmtHash(h.Sum64()); got != want {
		t.Errorf("shard assignment hash = %s, want %s (plan: %d cells)", got, want, len(plan))
	}
}

// shardCost sums CellCost over a shard.
func shardCost(part []harness.RunSpec) int {
	c := 0
	for _, s := range part {
		c += CellCost(s)
	}
	return c
}

// costSpread is max-min shard cost.
func costSpread(parts [][]harness.RunSpec) int {
	lo, hi := int(1<<62), 0
	for _, p := range parts {
		c := shardCost(p)
		if c < lo {
			lo = c
		}
		if c > hi {
			hi = c
		}
	}
	return hi - lo
}

// TestCostWeightedPartition: on a mixed-tier plan, the LPT assignment
// must (a) stay a deterministic exhaustive partition of the plan that
// Select agrees with, and (b) shrink the shard cost spread compared to
// the old cell-count round-robin, which stacks the expensive big-tier
// cells unevenly.
func TestCostWeightedPartition(t *testing.T) {
	opt := harness.Options{MaxInstr: 8000, Benches: []string{"gcc", "gzip", "eon", "gcc.big", "mcf.big"}}
	plan, err := Plan(nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	hasBig, hasBase := false, false
	for _, s := range plan {
		if CellCost(s) > 1 {
			hasBig = true
		} else {
			hasBase = true
		}
	}
	if !hasBig || !hasBase {
		t.Fatalf("plan is not mixed-tier (big=%v base=%v)", hasBig, hasBase)
	}

	for n := 2; n <= 7; n++ {
		parts := Partition(plan, n)
		// Exhaustive, disjoint, Select-consistent.
		seen := make(map[string]bool, len(plan))
		for k, part := range parts {
			sel := Shard{K: k + 1, N: n}.Select(plan)
			if len(sel) != len(part) {
				t.Fatalf("n=%d shard %d: Select and Partition disagree", n, k+1)
			}
			for i := range part {
				if sel[i] != part[i] {
					t.Fatalf("n=%d shard %d cell %d: Select and Partition disagree", n, k+1, i)
				}
				if seen[part[i].Key()] {
					t.Fatalf("n=%d: cell %s assigned twice", n, part[i].Key())
				}
				seen[part[i].Key()] = true
			}
		}
		if len(seen) != len(plan) {
			t.Fatalf("n=%d: %d of %d cells assigned", n, len(seen), len(plan))
		}
		// Determinism.
		again := Partition(plan, n)
		for k := range parts {
			for i := range parts[k] {
				if again[k][i] != parts[k][i] {
					t.Fatalf("n=%d: partition not deterministic", n)
				}
			}
		}
		// Cost balance vs round-robin by cell count.
		rr := make([][]harness.RunSpec, n)
		for i, s := range plan {
			rr[i%n] = append(rr[i%n], s)
		}
		if lpt, naive := costSpread(parts), costSpread(rr); lpt > naive {
			t.Errorf("n=%d: LPT cost spread %d worse than round-robin %d", n, lpt, naive)
		} else if n == 3 && lpt >= naive {
			// The headline case must strictly improve: the Key-sorted
			// plan clusters each benchmark's cells, so count-based
			// round-robin stacks big-tier cells onto the same shards.
			t.Errorf("n=3: LPT cost spread %d does not improve on round-robin %d", lpt, naive)
		}
	}
}

// TestUniformCostIsRoundRobin pins the degenerate case the golden hash
// depends on: with uniform cell costs the LPT pass assigns cell i to
// shard i mod n, exactly the PR 2 round-robin.
func TestUniformCostIsRoundRobin(t *testing.T) {
	plan, err := Plan(nil, planOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range plan {
		if CellCost(s) != 1 {
			t.Fatalf("base-tier plan has non-uniform cost cell %s", s.Key())
		}
	}
	for n := 1; n <= 5; n++ {
		parts := Partition(plan, n)
		for k, part := range parts {
			want := 0
			for i := k; i < len(plan); i += n {
				if part[want] != plan[i] {
					t.Fatalf("n=%d shard %d: cell %d is not round-robin", n, k+1, want)
				}
				want++
			}
			if want != len(part) {
				t.Fatalf("n=%d shard %d: %d cells, round-robin wants %d", n, k+1, len(part), want)
			}
		}
	}
}

func fmtHash(v uint64) string {
	const hex = "0123456789abcdef"
	b := make([]byte, 16)
	for i := 15; i >= 0; i-- {
		b[i] = hex[v&0xf]
		v >>= 4
	}
	return string(b)
}

// tinyMerge runs a small sweep sharded 3 ways, JSON round-trips each
// shard file, and returns the pieces the merge tests share.
func tinyMerge(t *testing.T, expIDs []string, opt harness.Options, n int) []*File {
	t.Helper()
	var files []*File
	for k := 1; k <= n; k++ {
		f, err := RunShard(context.Background(), expIDs, opt, Shard{K: k, N: n}, "")
		if err != nil {
			t.Fatal(err)
		}
		blob, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		var rt File
		if err := json.Unmarshal(blob, &rt); err != nil {
			t.Fatal(err)
		}
		files = append(files, &rt)
	}
	return files
}

// TestMergeReproducesUnshardedTables is the acceptance criterion:
// shard the sweep, merge the shard files, and the regenerated tables
// must be byte-identical (text and JSON) to a direct unsharded run.
func TestMergeReproducesUnshardedTables(t *testing.T) {
	expIDs := []string{"cost", "fig5", "fig10"}
	opt := harness.Options{MaxInstr: 6000, Benches: []string{"gcc", "gzip"}}

	files := tinyMerge(t, expIDs, opt, 3)
	merged, err := Merge(files)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Tables(merged)
	if err != nil {
		t.Fatal(err)
	}

	exps, err := resolveExps(expIDs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := harness.RunExperiments(harness.New(opt), exps)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d tables, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].String() != want[i].String() {
			t.Errorf("table %s: merged text differs from direct run:\n%s\n--- direct:\n%s",
				want[i].ID, got[i].String(), want[i].String())
		}
	}
	gb, _ := json.MarshalIndent(got, "", "  ")
	wb, _ := json.MarshalIndent(want, "", "  ")
	if string(gb) != string(wb) {
		t.Error("merged JSON tables differ from direct run")
	}
}

func TestMergeDetectsOmission(t *testing.T) {
	expIDs := []string{"fig10"}
	opt := harness.Options{MaxInstr: 5000, Benches: []string{"gcc"}}
	files := tinyMerge(t, expIDs, opt, 2)
	// Drop one cell from shard 2.
	files[1].Cells = files[1].Cells[:len(files[1].Cells)-1]
	if _, err := Merge(files); err == nil || !strings.Contains(err.Error(), "incomplete coverage") {
		t.Errorf("merge must reject missing cells, got %v", err)
	}
	// Dropping a whole shard must also fail.
	if _, err := Merge(files[:1]); err == nil {
		t.Error("merge must reject a missing shard")
	}
}

func TestMergeDetectsOverlap(t *testing.T) {
	expIDs := []string{"fig10"}
	opt := harness.Options{MaxInstr: 5000, Benches: []string{"gcc"}}
	files := tinyMerge(t, expIDs, opt, 2)
	// Copy a cell from shard 1 into shard 2.
	files[1].Cells = append(files[1].Cells, files[0].Cells[0])
	if _, err := Merge(files); err == nil || !strings.Contains(err.Error(), "present in both") {
		t.Errorf("merge must reject duplicated cells, got %v", err)
	}
}

func TestMergeDetectsForeignCell(t *testing.T) {
	expIDs := []string{"fig10"}
	opt := harness.Options{MaxInstr: 5000, Benches: []string{"gcc"}}
	files := tinyMerge(t, expIDs, opt, 2)
	alien := files[0].Cells[0]
	alien.Spec.Regs = 12345
	files[1].Cells = append(files[1].Cells, alien)
	if _, err := Merge(files); err == nil || !strings.Contains(err.Error(), "outside the plan") {
		t.Errorf("merge must reject cells outside the plan, got %v", err)
	}
}

func TestMergeDetectsMismatchedSweeps(t *testing.T) {
	a := tinyMerge(t, []string{"fig10"}, harness.Options{MaxInstr: 5000, Benches: []string{"gcc"}}, 2)
	b := tinyMerge(t, []string{"fig10"}, harness.Options{MaxInstr: 4000, Benches: []string{"gcc"}}, 2)
	if _, err := Merge([]*File{a[0], b[1]}); err == nil {
		t.Error("merge must reject shards from different sweeps")
	}
	if _, err := Merge([]*File{a[0], a[0]}); err == nil {
		t.Error("merge must reject the same shard twice")
	}
}

// TestTablesDetectsUnusedPrimedCell: a merged cell the experiments
// never request at table-generation time is the silent half of the
// data-dependent-spec hazard; Tables must fail loudly on it.
func TestTablesDetectsUnusedPrimedCell(t *testing.T) {
	expIDs := []string{"fig10"}
	opt := harness.Options{MaxInstr: 5000, Benches: []string{"gcc"}}
	files := tinyMerge(t, expIDs, opt, 2)
	merged, err := Merge(files)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Tables(merged); err != nil {
		t.Fatalf("clean merge must regenerate tables: %v", err)
	}
	// Inject a cell outside what fig10 requests (bypassing Merge's
	// plan check, the way a planner/executor divergence would).
	alien := merged.Cells[0]
	alien.Spec.Regs = 12345
	merged.Cells = append(merged.Cells, alien)
	if _, err := Tables(merged); err == nil || !strings.Contains(err.Error(), "never requested") {
		t.Errorf("Tables must reject never-requested cells, got %v", err)
	}
}

// TestShardPlanMatchesExecution: RunShard's executing harness records
// the specs it simulated; the run must be exactly the shard's slice of
// the plan (the assertion inside RunShard), and the recording must
// agree with an independent recomputation here.
func TestShardPlanMatchesExecution(t *testing.T) {
	expIDs := []string{"fig10"}
	opt := harness.Options{MaxInstr: 5000, Benches: []string{"gcc"}}
	f, err := RunShard(context.Background(), expIDs, opt, Shard{K: 1, N: 2}, "")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Plan(expIDs, opt)
	if err != nil {
		t.Fatal(err)
	}
	want := (Shard{K: 1, N: 2}).Select(plan)
	if len(f.Cells) != len(want) {
		t.Fatalf("shard ran %d cells, plan slice has %d", len(f.Cells), len(want))
	}
	for i := range want {
		if f.Cells[i].Spec != want[i] {
			t.Errorf("cell %d: ran %s, plan slice has %s", i, f.Cells[i].Spec.Key(), want[i].Key())
		}
	}
}

func TestOfflineHarnessRefusesToSimulate(t *testing.T) {
	h := harness.NewOffline(harness.Options{MaxInstr: 5000, Benches: []string{"gcc"}})
	if _, err := h.Run(harness.RunSpec{Bench: "gcc", Mode: 0, Ports: 1, Regs: 256}); err == nil {
		t.Error("offline harness must error on unprimed specs")
	}
}
