package core

import "civect/internal/ci"

// captureIW implements the squash-reuse restriction of the mechanism
// (Figure 10's ci-iw): at a hard-branch misprediction, the completed
// control-independent instructions already inside the instruction
// window — on the wrong path, past the re-convergent point, with
// sources untouched by the control-dependent region — have their
// results harvested before the squash. When the correct path refetches
// the same PCs with the same dynamic operand producers, the result is
// reused instead of re-executed.
func (p *Proc) captureIW(branchIdx, reconv int, mask ci.RegMask) {
	// Reset the previous episode's table without touching untouched PCs:
	// only the PCs the last capture wrote are cleared, and the record
	// slices keep their backing arrays.
	for _, pc := range p.iwPCs {
		p.iwTable[pc] = p.iwTable[pc][:0]
		p.iwHead[pc] = 0
	}
	p.iwPCs = p.iwPCs[:0]
	p.iwLive = 0
	p.iwRemapFrom = p.iwRemapFrom[:0]
	p.iwRemapTo = p.iwRemapTo[:0]
	// The chain scratch maps a wrong-path physical destination to the
	// value its instruction has produced or will produce: instructions
	// kept in the window complete regardless of the squash, so a waiting
	// ALU instruction whose operands are (transitively) available is as
	// good as a finished one. Epoch stamping starts each capture empty.
	p.iwChainEpoch++
	reached := false
	i := p.robIndexAfter(branchIdx)
	for i != p.robTail {
		e := &p.rob[i]
		i = p.robIndexAfter(i)
		if !e.valid {
			continue
		}
		if int(e.pc) == reconv {
			reached = true
		}
		if !e.hasDest {
			continue
		}

		// Resolve the instruction's value: already produced, or
		// computable from resolved operands (ALU only — loads need the
		// memory system).
		value := e.value
		resolved := e.state == stDone || e.state == stExecuting
		if resolved {
			p.chainSet(int(e.physDest), value)
		} else if e.state == stWaiting && !p.metaAt(int(e.pc)).IsMem() && !p.metaAt(int(e.pc)).IsControl() {
			var vals [2]uint64
			ok := true
			for s := 0; s < int(e.nsrc); s++ {
				ph := int(e.srcPhys[s])
				switch {
				case p.rf.Ready(ph):
					vals[s] = p.rf.Value(ph)
				default:
					v, hit := p.chainGet(ph)
					if !hit {
						ok = false
						break
					}
					vals[s] = v
				}
			}
			if !ok {
				continue
			}
			value = execALU(e.in, vals[0], vals[1])
			p.chainSet(int(e.physDest), value)
			resolved = true
		}
		if !resolved || !reached {
			continue
		}

		srcs := p.metaAt(int(e.pc)).Srcs()
		indep := true
		for _, r := range srcs {
			if mask.Has(r) {
				indep = false
				break
			}
		}
		if !indep {
			continue
		}
		rec := iwReuse{pc: int(e.pc), seq: e.seq, nsrc: int(e.nsrc), value: value}
		rec.writerSeq = e.srcWriterSeq
		if len(p.iwTable[e.pc]) == 0 {
			p.iwPCs = append(p.iwPCs, int(e.pc))
		}
		p.iwTable[e.pc] = append(p.iwTable[e.pc], rec)
		p.iwLive++
		p.Stats.IWCaptured++
	}
}

// chainSet records a resolved wrong-path value for physical register
// reg in the capture-scoped chain scratch. The zero-valued mark array
// reads as "set at epoch 0", so the scratch is only meaningful after
// captureIW's epoch increment — call chainGet/chainSet from nowhere
// else. (Same epoch-set pattern as freedMark in proc.go, which guards
// the epoch-0 pitfall by starting at 1 instead.)
func (p *Proc) chainSet(reg int, val uint64) {
	if reg >= len(p.iwChainVal) {
		n := max(2*len(p.iwChainVal), reg+64)
		//civet:allow hotalloc amortized chain-scratch doubling; grows O(log n) times, then never again
		grownV := make([]uint64, n)
		copy(grownV, p.iwChainVal)
		//civet:allow hotalloc amortized chain-scratch doubling; grows O(log n) times, then never again
		grownM := make([]uint64, n)
		copy(grownM, p.iwChainMark)
		p.iwChainVal, p.iwChainMark = grownV, grownM
	}
	p.iwChainVal[reg] = val
	p.iwChainMark[reg] = p.iwChainEpoch
}

// chainGet reads a value recorded by chainSet during this capture.
func (p *Proc) chainGet(reg int) (uint64, bool) {
	if reg >= len(p.iwChainMark) || p.iwChainMark[reg] != p.iwChainEpoch {
		return 0, false
	}
	return p.iwChainVal[reg], true
}
