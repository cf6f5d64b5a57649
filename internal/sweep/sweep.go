// Package sweep partitions the full experiment sweep — the
// deterministic cross-product of experiments × benchmarks × config
// points the harness would simulate — into k-of-n shards that separate
// processes (or machines) can run independently, and merges the
// per-shard results back into the complete paper tables.
//
// The plan is obtained by dry-running the experiment registry against a
// recording harness: experiment control flow is data-independent, so
// the recorded, deduplicated, Key-sorted spec set is exactly the set of
// simulations an unsharded run executes. Shard assignment weights each
// cell by its estimated cost (big-tier cells cost several times a
// base-tier cell) and distributes them with a deterministic
// longest-processing-time greedy pass over the sorted plan — stable
// across runs and machines (a golden-hash test pins it; with uniform
// weights it degenerates to exactly the former round-robin), balanced
// by cost rather than cell count, and trivially exhaustive. Merging
// validates exact coverage (every planned cell present exactly once,
// nothing extra) and regenerates the tables through an offline harness
// primed with the shard results, so the output is byte-identical to an
// unsharded run.
package sweep

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"civect/internal/core"
	"civect/internal/harness"
)

// FormatVersion identifies the shard-file schema.
const FormatVersion = 1

// Shard names one part of an n-way partition, 1-based: "2/8" is the
// second of eight shards.
type Shard struct {
	K int // 1..N
	N int
}

// ParseShard parses "k/n". The whole string must match: a mistyped
// shard argument on one machine of a farm must fail fast there, not
// surface later as a cimerge coverage error.
func ParseShard(s string) (Shard, error) {
	ks, ns, ok := strings.Cut(s, "/")
	if !ok {
		return Shard{}, fmt.Errorf("sweep: shard %q is not of the form k/n", s)
	}
	k, errK := strconv.Atoi(ks)
	n, errN := strconv.Atoi(ns)
	if errK != nil || errN != nil || strconv.Itoa(k) != ks || strconv.Itoa(n) != ns {
		return Shard{}, fmt.Errorf("sweep: shard %q is not of the form k/n", s)
	}
	if n < 1 || k < 1 || k > n {
		return Shard{}, fmt.Errorf("sweep: shard %d/%d out of range (need 1 <= k <= n)", k, n)
	}
	return Shard{K: k, N: n}, nil
}

// String renders the shard as "k/n".
func (s Shard) String() string { return fmt.Sprintf("%d/%d", s.K, s.N) }

// resolveExps maps experiment ids to registry entries, preserving the
// registry's presentation order (so merged output ordering never
// depends on the caller's argument order). Empty ids means all.
func resolveExps(ids []string) ([]harness.Experiment, error) {
	if len(ids) == 0 {
		return harness.Experiments(), nil
	}
	want := make(map[string]bool, len(ids))
	for _, id := range ids {
		if _, ok := harness.ExperimentByID(id); !ok {
			return nil, fmt.Errorf("sweep: unknown experiment %q", id)
		}
		want[id] = true
	}
	var exps []harness.Experiment
	for _, e := range harness.Experiments() {
		if want[e.ID] {
			exps = append(exps, e)
		}
	}
	return exps, nil
}

// Plan enumerates the sweep: the deduplicated, Key-sorted RunSpecs the
// given experiments would simulate under opt. Empty expIDs means the
// whole registry.
func Plan(expIDs []string, opt harness.Options) ([]harness.RunSpec, error) {
	exps, err := resolveExps(expIDs)
	if err != nil {
		return nil, err
	}
	h := harness.NewPlanner(opt)
	if _, err := harness.RunExperiments(h, exps); err != nil {
		return nil, fmt.Errorf("sweep: planning failed: %w", err)
	}
	return h.PlannedSpecs(), nil
}

// bigTierCostWeight is the estimated cost of a big-tier cell relative
// to a base-tier cell: the megabyte working sets and 100k+-instruction
// programs make both generation and simulation several times slower
// per committed instruction. The exact value only shapes load balance,
// never coverage, so a coarse estimate is fine — but changing it
// changes shard assignment on mixed-tier sweeps (shards from different
// binaries must not be mixed; Merge's coverage check catches it).
const bigTierCostWeight = 4

// CellCost estimates the relative wall-clock cost of one sweep cell.
func CellCost(s harness.RunSpec) int {
	if strings.HasSuffix(s.Bench, ".big") {
		return bigTierCostWeight
	}
	return 1
}

// Partition splits Key-sorted specs into n cost-balanced shards with a
// deterministic longest-processing-time greedy pass: cells are taken
// in descending CellCost (stable on the plan order), each assigned to
// the currently lightest shard, ties to the lowest shard index. With
// uniform costs this reduces exactly to the former round-robin
// assignment (specs[i] -> shard i mod n), which the golden-hash test
// pins. The union of the result is exactly specs, in plan order
// within each shard.
func Partition(specs []harness.RunSpec, n int) [][]harness.RunSpec {
	// Stable descending-cost order: costs take few distinct values, so
	// one bucket per distinct cost preserves plan order within a class.
	heavy := make([]int, 0, len(specs))
	light := make([]int, 0, len(specs))
	for i, s := range specs {
		if CellCost(s) > 1 {
			heavy = append(heavy, i)
		} else {
			light = append(light, i)
		}
	}

	out := make([][]harness.RunSpec, n)
	load := make([]int, n)
	assign := make([][]int, n)
	place := func(i int) {
		best := 0
		for k := 1; k < n; k++ {
			if load[k] < load[best] {
				best = k
			}
		}
		assign[best] = append(assign[best], i)
		load[best] += CellCost(specs[i])
	}
	for _, i := range heavy {
		place(i)
	}
	for _, i := range light {
		place(i)
	}
	for k := range out {
		sort.Ints(assign[k]) // plan order within the shard
		for _, i := range assign[k] {
			out[k] = append(out[k], specs[i])
		}
	}
	return out
}

// Select returns the specs assigned to this shard; it agrees with
// Partition by construction.
func (sh Shard) Select(specs []harness.RunSpec) []harness.RunSpec {
	return Partition(specs, sh.N)[sh.K-1]
}

// Cell is one completed sweep cell: a spec and its simulation result.
type Cell struct {
	Spec  harness.RunSpec `json:"spec"`
	Stats *core.Stats     `json:"stats"`
}

// File is one shard's result file. The header repeats everything
// needed to recompute the plan, so Merge can validate coverage without
// trusting the producer.
type File struct {
	Version   int      `json:"version"`
	Shard     int      `json:"shard"`
	NumShards int      `json:"num_shards"`
	Exps      []string `json:"experiments"`
	MaxInstr  uint64   `json:"max_instr"`
	Benches   []string `json:"benches"`
	Cells     []Cell   `json:"cells"`
}

// header compares the plan-defining fields of two files.
func (f *File) sameSweep(g *File) bool {
	if f.NumShards != g.NumShards || f.MaxInstr != g.MaxInstr {
		return false
	}
	if len(f.Exps) != len(g.Exps) || len(f.Benches) != len(g.Benches) {
		return false
	}
	for i := range f.Exps {
		if f.Exps[i] != g.Exps[i] {
			return false
		}
	}
	for i := range f.Benches {
		if f.Benches[i] != g.Benches[i] {
			return false
		}
	}
	return true
}

// RunShard plans the sweep, selects this shard's cells and simulates
// them on a fresh harness through one sweep (worker bound
// opt.Workers), returning them in shard order. Cancelling ctx stops
// the shard with the context error.
//
// A non-empty journal path makes the shard crash-safe: each cell is
// appended to the journal (and synced) as the sweep delivers it, cells
// already in the journal are recovered instead of re-simulated, and
// the journal is removed once the File is assembled. Restarting a
// killed or cancelled shard with the same arguments and journal path
// therefore simulates only the missing cells and produces a File
// byte-identical to an uninterrupted run's.
func RunShard(ctx context.Context, expIDs []string, opt harness.Options, sh Shard, journal string) (*File, error) {
	specs, err := Plan(expIDs, opt)
	if err != nil {
		return nil, err
	}
	exps, _ := resolveExps(expIDs)
	mine := sh.Select(specs)

	h := harness.New(opt)
	var jn *shardJournal
	var each func(harness.RunSpec, *core.Stats) error
	if journal != "" {
		if jn, err = openJournal(journal, mine, h); err != nil {
			return nil, err
		}
		defer jn.f.Close() // error paths; finish closes it on success
		each = jn.append
	}
	if err := h.Sweep(ctx, mine, each); err != nil {
		return nil, fmt.Errorf("sweep: shard %s: %w", sh, err)
	}
	cells := make([]Cell, len(mine))
	for i, s := range mine {
		st, err := h.Run(s)
		if err != nil {
			return nil, fmt.Errorf("sweep: shard %s cell %s: %w", sh, s.Key(), err)
		}
		cells[i] = Cell{Spec: s, Stats: st}
	}
	if jn != nil {
		if err := jn.finish(); err != nil {
			return nil, err
		}
	}

	// A shard runs its plan slice directly, so the plan-vs-run hazard
	// (an experiment whose spec choices depend on simulation results)
	// cannot show up here — it is caught where experiments actually
	// execute: TestPlanMatchesExecution compares a dry-run plan with a
	// real harness's recorded ExecutedSpecs over the whole registry,
	// and Tables below fails on any merged cell the experiments never
	// request (plus the offline harness's hard error on the converse).

	ids := make([]string, len(exps))
	for i, e := range exps {
		ids[i] = e.ID
	}
	hopt := h.Options()
	return &File{
		Version:   FormatVersion,
		Shard:     sh.K,
		NumShards: sh.N,
		Exps:      ids,
		MaxInstr:  hopt.MaxInstr,
		Benches:   hopt.Benches,
		Cells:     cells,
	}, nil
}

// Load reads one shard file.
func Load(path string) (*File, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	f, err := decodeFile(blob)
	if err != nil {
		return nil, fmt.Errorf("sweep: %s: %w", path, err)
	}
	return f, nil
}

// decodeFile decodes the bytes of one shard file.
func decodeFile(blob []byte) (*File, error) {
	var f File
	if err := json.Unmarshal(blob, &f); err != nil {
		return nil, err
	}
	if f.Version != FormatVersion {
		return nil, fmt.Errorf("format version %d, want %d", f.Version, FormatVersion)
	}
	return &f, nil
}

// Merge joins shard files into one complete result set, validating
// exact coverage: the headers must describe the same sweep, and the
// union of cells must equal the recomputed plan — every cell present
// exactly once, with its stats, no overlap, nothing outside the plan.
func Merge(files []*File) (*File, error) {
	if len(files) == 0 {
		return nil, fmt.Errorf("sweep: no shard files to merge")
	}
	head := files[0]
	for _, f := range files[1:] {
		if !head.sameSweep(f) {
			return nil, fmt.Errorf("sweep: shard %d/%d describes a different sweep than shard %d/%d",
				f.Shard, f.NumShards, head.Shard, head.NumShards)
		}
	}

	opt := harness.Options{MaxInstr: head.MaxInstr, Benches: head.Benches, Workers: 1}
	plan, err := Plan(head.Exps, opt)
	if err != nil {
		return nil, err
	}
	planned := make(map[string]bool, len(plan))
	for _, s := range plan {
		planned[s.Key()] = true
	}

	seen := make(map[string]int, len(plan))
	merged := &File{
		Version:   FormatVersion,
		NumShards: head.NumShards,
		Exps:      head.Exps,
		MaxInstr:  head.MaxInstr,
		Benches:   head.Benches,
	}
	shardsSeen := make(map[int]bool)
	for _, f := range files {
		if shardsSeen[f.Shard] {
			return nil, fmt.Errorf("sweep: shard %d/%d provided twice", f.Shard, f.NumShards)
		}
		shardsSeen[f.Shard] = true
		for _, c := range f.Cells {
			key := c.Spec.Key()
			if !planned[key] {
				return nil, fmt.Errorf("sweep: shard %d/%d contains cell outside the plan: %s", f.Shard, f.NumShards, key)
			}
			if prev, dup := seen[key]; dup {
				return nil, fmt.Errorf("sweep: cell %s present in both shard %d and shard %d", key, prev, f.Shard)
			}
			if c.Stats == nil {
				return nil, fmt.Errorf("sweep: shard %d/%d cell %s has no stats", f.Shard, f.NumShards, key)
			}
			seen[key] = f.Shard
			merged.Cells = append(merged.Cells, c)
		}
	}
	if len(seen) != len(plan) {
		var missing []string
		for _, s := range plan {
			if _, ok := seen[s.Key()]; !ok {
				missing = append(missing, s.Key())
				if len(missing) == 5 {
					missing = append(missing, "...")
					break
				}
			}
		}
		return nil, fmt.Errorf("sweep: incomplete coverage: %d of %d cells missing (e.g. %s)",
			len(plan)-len(seen), len(plan), strings.Join(missing, ", "))
	}
	sort.Slice(merged.Cells, func(i, j int) bool {
		return merged.Cells[i].Spec.Key() < merged.Cells[j].Spec.Key()
	})
	return merged, nil
}

// Tables regenerates the experiment tables from a merged result set
// through an offline harness: the output is byte-identical to an
// unsharded run with the same options, and any cell the experiments
// need that the merge did not provide is a hard error rather than a
// silent re-simulation.
func Tables(f *File) ([]*harness.Table, error) {
	exps, err := resolveExps(f.Exps)
	if err != nil {
		return nil, err
	}
	h := harness.NewOffline(harness.Options{MaxInstr: f.MaxInstr, Benches: f.Benches})
	for _, c := range f.Cells {
		h.Prime(c.Spec, c.Stats)
	}
	tables, err := harness.RunExperiments(h, exps)
	if err != nil {
		return nil, err
	}
	// The offline harness already errors when an experiment requests a
	// cell the merge did not provide; the converse — a merged cell no
	// experiment asked for — is the silent half of the
	// data-dependent-spec hazard (the plan enumerated more than the
	// experiments actually use), and fails loudly here.
	if extra := h.UnusedPrimed(); len(extra) > 0 {
		return nil, fmt.Errorf("sweep: %d merged cell(s) never requested by the experiments (plan/run divergence, e.g. %s)",
			len(extra), extra[0].Key())
	}
	return tables, nil
}
