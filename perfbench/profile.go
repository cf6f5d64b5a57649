package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file reads runtime/pprof CPU profiles (gzipped profile.proto)
// with a minimal protobuf decoder, so attribution needs nothing beyond
// the standard library, and attributes samples to pipeline stages and
// simulator layers.

// stack is one profile sample: function names leaf first, inlined
// frames expanded, how many CPU samples hit it and their weight in CPU
// nanoseconds.
type stack struct {
	funcs  []string
	count  int64
	weight int64
}

// pbuf is a protobuf wire-format cursor.
type pbuf struct {
	b   []byte
	err error
}

func (p *pbuf) varint() uint64 {
	var x uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			p.err = io.ErrUnexpectedEOF
			return 0
		}
		c := p.b[0]
		p.b = p.b[1:]
		x |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return x
		}
	}
	p.err = errors.New("varint overflow")
	return 0
}

// field reads one field header and, for length-delimited fields, its
// payload; varint values come back in v.
func (p *pbuf) field() (num int, wire int, v uint64, payload []byte) {
	key := p.varint()
	num, wire = int(key>>3), int(key&7)
	switch wire {
	case 0:
		v = p.varint()
	case 1, 5:
		n := 8
		if wire == 5 {
			n = 4
		}
		if len(p.b) < n {
			p.err = io.ErrUnexpectedEOF
			return
		}
		p.b = p.b[n:]
	case 2:
		n := p.varint()
		if n > uint64(len(p.b)) {
			p.err = io.ErrUnexpectedEOF
			return
		}
		payload, p.b = p.b[:n], p.b[n:]
	default:
		p.err = fmt.Errorf("unsupported wire type %d", wire)
	}
	return
}

// repeatedVarints appends a repeated varint field's values, packed or
// not.
func repeatedVarints(dst []uint64, wire int, v uint64, payload []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	q := pbuf{b: payload}
	for len(q.b) > 0 && q.err == nil {
		dst = append(dst, q.varint())
	}
	return dst, q.err
}

// parseProfile decodes one gzipped CPU profile into stacks.
func parseProfile(gz []byte) ([]stack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sampleRec struct{ locs, vals []uint64 }
	var (
		samples  []sampleRec
		strs     []string
		funcName = map[uint64]uint64{} // function id -> string index
		locFuncs = map[uint64][]uint64{}
	)
	p := pbuf{b: raw}
	for len(p.b) > 0 && p.err == nil {
		num, _, _, payload := p.field()
		if p.err != nil {
			break
		}
		q := pbuf{b: payload}
		switch num {
		case 2: // Sample
			var s sampleRec
			for len(q.b) > 0 && q.err == nil {
				n, w, v, pl := q.field()
				switch n {
				case 1:
					s.locs, err = repeatedVarints(s.locs, w, v, pl)
				case 2:
					s.vals, err = repeatedVarints(s.vals, w, v, pl)
				}
				if err != nil {
					return nil, err
				}
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			for len(q.b) > 0 && q.err == nil {
				n, _, v, pl := q.field()
				switch n {
				case 1:
					id = v
				case 4: // Line
					l := pbuf{b: pl}
					for len(l.b) > 0 && l.err == nil {
						if ln, _, lv, _ := l.field(); ln == 1 {
							fns = append(fns, lv)
						}
					}
				}
			}
			locFuncs[id] = fns
		case 5: // Function
			var id, name uint64
			for len(q.b) > 0 && q.err == nil {
				n, _, v, _ := q.field()
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			funcName[id] = name
		case 6: // string table
			strs = append(strs, string(payload))
		}
		if q.err != nil {
			return nil, q.err
		}
	}
	if p.err != nil {
		return nil, p.err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		if len(s.vals) < 2 {
			return nil, errors.New("not a CPU profile: want sample count and CPU time per sample")
		}
		st := stack{count: int64(s.vals[0]), weight: int64(s.vals[1])}
		for _, l := range s.locs {
			for _, f := range locFuncs[l] {
				st.funcs = append(st.funcs, str(funcName[f]))
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// stages are the pipeline-stage shares reported as core.share.<stage>.
var stages = []string{"fetch", "rename", "issue", "replica", "complete", "commit", "ff", "recover", "cycle"}

const corePkg = "civect/internal/core."

// stageOf maps a core function to the stage whose call tree it roots.
// The leaf-most match in a stack decides, so recovery called from the
// complete stage counts as recover.
var stageOf = map[string]string{
	"(*Proc).fetchStage":       "fetch",
	"(*Proc).renameStage":      "rename",
	"(*Proc).issueStage":       "issue",
	"(*Proc).replicaTick":      "replica",
	"(*Proc).advanceValidated": "replica",
	"(*Proc).completeStage":    "complete",
	"(*Proc).commitStage":      "commit",
	"(*Proc).observeCommits":   "commit",
	"(*Proc).maybeFastForward": "ff",
	"(*Proc).recoverBranch":    "recover",
	"(*Proc).squashAfter":      "recover",
	"(*Proc).replaySquash":     "recover",
	"(*Proc).step":             "cycle",
	"(*Proc).Step":             "cycle",
	"(*laneState).stepChunk":   "cycle",
}

// roots are the simulation entry points whose samples are attributed.
var roots = map[string]bool{
	corePkg + "(*Proc).RunContext":        true,
	corePkg + "(*BatchProc).RunContext":   true,
	"civect/internal/sample.RunFromState": true,
}

// attribution is a traced run's CPU-profile breakdown of simulation
// time. Stages partition the samples under the roots; Layers overlap
// them (a cache access inside the issue stage counts for both).
type attribution struct {
	// Samples is the CPU-sample count under the roots.
	Samples int64 `json:"samples"`
	// Stages holds each stage's share, plus "restore" (sample-state
	// decoding and warm-state installation under RunFromState), "new"
	// (machine construction) and "other" (everything else).
	Stages map[string]float64 `json:"stages"`
	// Layers holds the share of samples with a frame in each
	// simulator package.
	Layers map[string]float64 `json:"layers"`
	// Coverage is 1 - Stages["other"].
	Coverage float64 `json:"coverage"`
}

var layerPkgs = []string{"cache", "bpred", "ci", "ckpt", "mem", "stride", "regfile", "emu"}

// attribute reads the profiles and attributes samples under the roots.
func attribute(profiles [][]byte) (*attribution, error) {
	a := &attribution{Stages: map[string]float64{}, Layers: map[string]float64{}}
	var total int64
	stageW := map[string]int64{}
	layerW := map[string]int64{}
	for _, gz := range profiles {
		stacks, err := parseProfile(gz)
		if err != nil {
			return nil, err
		}
		for _, s := range stacks {
			rootAt := -1
			for i, f := range s.funcs {
				if roots[f] {
					rootAt = i
					break
				}
			}
			if rootAt < 0 {
				continue
			}
			a.Samples += s.count
			total += s.weight
			stageW[classify(s.funcs[:rootAt+1])] += s.weight
			seen := map[string]bool{}
			for _, f := range s.funcs[:rootAt+1] {
				for _, l := range layerPkgs {
					if !seen[l] && strings.HasPrefix(f, "civect/internal/"+l+".") {
						seen[l] = true
						layerW[l] += s.weight
					}
				}
			}
		}
	}
	if total == 0 {
		return nil, errors.New("no CPU samples under the simulation entry points")
	}
	for _, st := range append(append([]string{}, stages...), "restore", "new", "other") {
		a.Stages[st] = float64(stageW[st]) / float64(total)
	}
	for _, l := range layerPkgs {
		a.Layers[l] = float64(layerW[l]) / float64(total)
	}
	a.Coverage = 1 - a.Stages["other"]
	return a, nil
}

// classify names the stage of one stack (leaf first, ending at its
// root).
func classify(funcs []string) string {
	for _, f := range funcs {
		if name, ok := strings.CutPrefix(f, corePkg); ok {
			if st, ok := stageOf[name]; ok {
				return st
			}
		}
	}
	for _, f := range funcs {
		switch {
		case strings.HasPrefix(f, "civect/internal/ckpt."),
			strings.HasPrefix(f, "civect/internal/mem.LoadDelta"),
			strings.HasSuffix(f, ".LoadState"),
			strings.HasPrefix(f, "civect/internal/sample.decodeHeader"),
			strings.HasPrefix(f, "civect/internal/sample.(*warmer)."),
			strings.HasPrefix(f, "civect/internal/sample.newWarmer"),
			f == corePkg+"(*Proc).AdoptWarmState",
			f == corePkg+"(*Proc).SetArchState":
			return "restore"
		case f == corePkg+"New", f == corePkg+"NewShared", f == corePkg+"build",
			f == corePkg+"ShareProgram", f == corePkg+"predecode":
			return "new"
		}
	}
	return "other"
}
