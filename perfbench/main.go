// Command perfbench is civect's seeded, layered performance benchmark.
//
// One invocation runs one named workload for a fixed time, checks the
// simulator's outputs while it measures, and prints its metrics. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (BENCHMARK.json's
// end_to_end list); with -trace 1 the run records spans, counts
// fast-forward jumps and takes a CPU profile, and the metrics are the
// per-layer ones. The line before it is a full report: host
// fingerprint, every metric that applies to the workload with its
// unit, and the checks' failure count. README.md in this directory
// defines every metric and says why each workload exists.
//
// Usage (from the repository root):
//
//	go run ./perfbench -workload detail-base -seed 1 -seconds 10 -trace 0
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps metric names to values; encoding/json writes map keys
// sorted, so the output order is stable.
type metrics map[string]metric

// endToEnd and perLayer name the metrics the last output line carries
// with -trace 0 and -trace 1; BENCHMARK.json lists the same names.
// Every workload reports every per-layer metric, so layer host times
// appear there as shares of set-up or op time, which read 0 where a
// workload does not use the layer; the report line carries the
// absolute times where they apply.
var endToEnd = []string{"setup_s", "sim_mips", "op_ms.p50", "rss_mb"}

var perLayer = []string{
	"workload.gen_frac", "workload.static_kinstr", "workload.image_mb",
	"mem.clone_frac", "core.new_frac",
	"core.host_ns_per_cycle", "core.host_ns_per_instr", "core.commit_per_fetch",
	"core.ff_skip_frac", "core.ff_jumps_pki",
	"core.share.fetch", "core.share.rename", "core.share.issue", "core.share.replica",
	"core.share.complete", "core.share.commit", "core.share.ff", "core.share.recover",
	"core.share.cycle", "core.share.new",
	"cache.l1i_mpki", "cache.l1d_mpki", "cache.l2_mpki", "cache.l3_mpki", "cache.share",
	"bpred.mpki", "bpred.hard_frac", "bpred.share",
	"ci.alloc_pki", "ci.replicas_pki", "ci.replica_use_frac", "ci.valfail_pki",
	"ci.episode_reuse_frac", "ci.share",
	"emu.mips",
	"sample.profile_frac", "sample.cluster_frac", "sample.capture_frac",
	"sample.detailed_frac", "sample.ci95_rel",
	"ckpt.state_mb", "ckpt.share",
	"harness.prefetch_frac", "harness.replay_frac", "harness.cells",
	"harness.dedup_frac", "harness.cpu_util",
	"go.gc_cpu_frac", "go.alloc_mb_per_minstr", "go.heap_peak_mb",
	"trace.overhead_frac", "trace.share_coverage", "trace.profile_samples", "trace.spans",
}

// traceDir is where a traced run writes its spans, profiles and layer
// attribution, under the build directory run.py uses.
const traceDir = ".bench_build/trace"

// result is the last output line.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// report is the full per-run record printed before the result line.
type report struct {
	Workload string      `json:"workload"`
	Seed     int64       `json:"seed"`
	Seconds  float64     `json:"seconds"`
	Traced   bool        `json:"traced"`
	Images   string      `json:"images"`
	Host     fingerprint `json:"host"`
	Failures []string    `json:"failures,omitempty"`
	Metrics  metrics     `json:"metrics"`
	TraceDir string      `json:"trace_dir,omitempty"`
}

func main() {
	name := flag.String("workload", "", "workload: "+workloadNames())
	seed := flag.Int64("seed", 0, "seed for the workload's data images (0: the registry images)")
	seconds := flag.Float64("seconds", 10, "measured time per run in seconds")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	flag.Parse()

	w, ok := workloadByName(*name)
	if !ok || flag.NArg() != 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: perfbench -workload {%s} -seed N -seconds S -trace {0|1}\n", workloadNames())
		os.Exit(2)
	}
	r := newRun(*seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	rep, err := r.execute(context.Background(), w)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	if r.traced {
		dir := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d", w.name, *seed))
		if err := r.writeTrace(dir); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing trace: %v\n", err)
			os.Exit(1)
		}
		rep.TraceDir = dir
	}

	want := endToEnd
	if r.traced {
		want = perLayer
	}
	out := result{Correct: r.check.failed == 0, Attempted: r.check.attempted, Failed: r.check.failed, Metrics: metrics{}}
	for _, n := range want {
		m, ok := rep.Metrics[n]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: %s: metric %s missing\n", w.name, n)
			os.Exit(1)
		}
		out.Metrics[n] = m
	}
	printTable(rep)
	// Encode both lines before printing either, so a value JSON cannot
	// carry (NaN, Inf) fails the run without a partial result.
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, v := range []any{map[string]*report{"report": rep}, out} {
		if err := enc.Encode(v); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
	}
	if _, err := os.Stdout.Write(buf.Bytes()); err != nil {
		os.Exit(1)
	}
}

// printTable writes the report's metrics as an aligned table to
// standard error, for people reading a run.
func printTable(rep *report) {
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "perfbench %s seed=%d traced=%v host=%s/%d cpus/%s\n",
		rep.Workload, rep.Seed, rep.Traced, rep.Host.CPUModel, rep.Host.NumCPU, rep.Host.GoVersion)
	for _, n := range names {
		m := rep.Metrics[n]
		fmt.Fprintf(os.Stderr, "  %-26s %14.6g %s\n", n, m.Value, m.Unit)
	}
	for _, f := range rep.Failures {
		fmt.Fprintf(os.Stderr, "  FAIL %s\n", f)
	}
}

// writeTrace persists the traced run's spans, CPU profiles and layer
// attribution under dir.
func (r *run) writeTrace(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := r.tr.writeJSONL(filepath.Join(dir, "spans.jsonl")); err != nil {
		return err
	}
	for i, p := range r.profiles {
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("cpu-%d.pprof", i)), p, 0o644); err != nil {
			return err
		}
	}
	b, err := json.MarshalIndent(r.layers, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "layers.json"), append(b, '\n'), 0o644)
}

// startProfile begins a CPU profile into a fresh buffer; stopProfile
// ends it and keeps the bytes. Only traced rounds profile.
func (r *run) startProfile() error {
	r.profBuf.Reset()
	return pprof.StartCPUProfile(&r.profBuf)
}

func (r *run) stopProfile() {
	pprof.StopCPUProfile()
	r.profiles = append(r.profiles, append([]byte(nil), r.profBuf.Bytes()...))
}
