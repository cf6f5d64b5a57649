package main

import (
	"strings"

	"civect/internal/core"
	"civect/internal/workload"
)

// workloads lists the benchmark's workloads. Every one is a closed
// loop: one client waits for each op before the next (sweep-all's one
// client drives the harness's two workers). README.md says why each
// exists.
func workloads() []workloadDef {
	epochs := map[string]int{}
	plan := &sweepPlan{}
	return []workloadDef{
		// The base programs are L1-resident: pipeline stepping and
		// SRSMT replica work dominate, and the mechanism reuses here.
		{
			name:   "detail-base",
			images: "reseeded through Params.Seed",
			setup:  detailSetup(workload.Names(), core.Modes()),
		},
		// The .big programs overflow L1I and carry megabyte images:
		// clones, construction, memory and cache misses dominate, and
		// the SRSMT allocates without reuse.
		{
			name:   "detail-big",
			images: "reseeded through Params.Seed",
			setup:  detailSetup(workload.BigNames(), []core.Mode{core.ModeScalar, core.ModeCI}),
		},
		// The split prepare/measure sampled path: emulator, sampling
		// and CIVK restore dominate. mcf.ultra's estimate misses its
		// CI; gcc.ultra is the control.
		{
			name:    "sampled-ultra",
			images:  "reseeded through Params.Seed; epochs from the registry Spec",
			prepare: sampledPrepare(epochs),
			setup:   sampledSetup(epochs),
		},
		// The whole experiment registry with 2 workers: the harness
		// runner, batching and concurrency, measured nowhere else.
		{
			name:    "sweep-all",
			images:  "the harness's registry images; -seed does not apply",
			prepare: sweepPrepare(plan),
			setup:   sweepSetup(plan),
		},
	}
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func workloadNames() string {
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	return strings.Join(names, ",")
}
