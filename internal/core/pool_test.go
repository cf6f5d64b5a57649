package core

import (
	"math/bits"
	"testing"

	"civect/internal/ci"
	"civect/internal/workload"
)

// checkReplicaInvariants verifies the bookkeeping the hot path relies
// on instead of rescanning: the worklist holds exactly one live ref per
// Listed incarnation, and every entry's Pending/Issue/ActiveMask agree
// with a full scan of its replica ring.
func checkReplicaInvariants(t *testing.T, p *Proc) {
	t.Helper()
	if p.srsmt == nil {
		return
	}

	liveRefs := make(map[*ci.Entry]int)
	for _, ref := range p.activeEntries {
		if !ref.live() {
			continue
		}
		liveRefs[ref.ent]++
		if n := liveRefs[ref.ent]; n > 1 {
			t.Fatalf("cycle %d: entry pc=%d listed %d times (duplicate arbitration turns)",
				p.cycle, ref.ent.PC, n)
		}
		if !ref.ent.Listed {
			t.Fatalf("cycle %d: live worklist ref for pc=%d but entry not marked Listed", p.cycle, ref.ent.PC)
		}
		if ref.stamp != ref.ent.Stamp {
			t.Fatalf("cycle %d: worklist stamp %d != entry stamp %d", p.cycle, ref.stamp, ref.ent.Stamp)
		}
	}

	p.srsmt.ForEachValid(func(ent *ci.Entry) bool {
		pending, issued := 0, 0
		var mask, issuedMask uint64
		for i := range ent.Replicas {
			s := &ent.Replicas[i]
			if s.Abs < 0 {
				continue
			}
			switch s.State {
			case ci.ReplicaWaiting:
				pending++
				mask |= 1 << uint(i&63)
			case ci.ReplicaIssued:
				pending++
				issued++
				mask |= 1 << uint(i&63)
				issuedMask |= 1 << uint(i&63)
			}
		}
		if pending != ent.Pending {
			t.Fatalf("cycle %d: pc=%d Pending=%d, ring scan says %d", p.cycle, ent.PC, ent.Pending, pending)
		}
		if issued != ent.Issue {
			t.Fatalf("cycle %d: pc=%d Issue=%d, ring scan says %d", p.cycle, ent.PC, ent.Issue, issued)
		}
		if len(ent.Replicas) <= 64 {
			// Pending slots are split across the actionable and blocked
			// masks; the two are disjoint, cover the ring scan exactly,
			// and only Waiting slots may be blocked (the naive scheduler
			// never blocks at all).
			if ent.ActiveMask&ent.BlockedMask != 0 {
				t.Fatalf("cycle %d: pc=%d slot in both masks: active=%b blocked=%b",
					p.cycle, ent.PC, ent.ActiveMask, ent.BlockedMask)
			}
			if got := ent.ActiveMask | ent.BlockedMask; got != mask {
				t.Fatalf("cycle %d: pc=%d ActiveMask|BlockedMask=%b, ring scan says %b",
					p.cycle, ent.PC, got, mask)
			}
			if ent.BlockedMask&issuedMask != 0 {
				t.Fatalf("cycle %d: pc=%d issued slot blocked: blocked=%b issued=%b",
					p.cycle, ent.PC, ent.BlockedMask, issuedMask)
			}
			if !p.eventSched && ent.BlockedMask != 0 {
				t.Fatalf("cycle %d: pc=%d naive scheduler blocked slots: %b",
					p.cycle, ent.PC, ent.BlockedMask)
			}
		}
		if wantListed := ent.Listed; (liveRefs[ent] == 1) != wantListed {
			t.Fatalf("cycle %d: pc=%d Listed=%v but %d live refs", p.cycle, ent.PC, wantListed, liveRefs[ent])
		}
		// A parked entry must have genuinely nothing to do: actionable
		// work, an unresolved seed or an unfilled batch all require a
		// listing, or the worklist would never process them again.
		// Under the event-driven scheduler, blocked slots may park
		// (every blocking condition has a wakeup hook) and in-flight
		// executions may sleep — but then a live completion-wheel wake
		// must be scheduled at or before NextDone.
		if !ent.Listed {
			seedResolved := ent.SeedCaptured || ent.SeedBroken || ent.SeedPhys < 0
			if !seedResolved || ent.Alloc-ent.Decode < ent.NRegs {
				t.Fatalf("cycle %d: pc=%d parked with work: seedResolved=%v alloc=%d decode=%d nregs=%d",
					p.cycle, ent.PC, seedResolved, ent.Alloc, ent.Decode, ent.NRegs)
			}
			if !p.eventSched || len(ent.Replicas) > 64 {
				if ent.Pending > 0 {
					t.Fatalf("cycle %d: pc=%d parked with %d pending slots", p.cycle, ent.PC, ent.Pending)
				}
			} else {
				if open := ent.ActiveMask &^ ent.IssuedMask; open != 0 {
					t.Fatalf("cycle %d: pc=%d parked with actionable waiting slots: %b", p.cycle, ent.PC, open)
				}
				if ent.Issue > 0 {
					if ent.NextDone <= p.cycle || ent.NextDone-p.cycle >= wheelSpan {
						t.Fatalf("cycle %d: pc=%d parked with %d in flight but NextDone=%d outside wheel",
							p.cycle, ent.PC, ent.Issue, ent.NextDone)
					}
					woken := false
					for _, ref := range p.doneWheel[ent.NextDone&(wheelSpan-1)] {
						if ref.ent == ent && ref.gen == ent.Gen {
							woken = true
							break
						}
					}
					if !woken {
						t.Fatalf("cycle %d: pc=%d parked with %d in flight but no wheel wake at %d",
							p.cycle, ent.PC, ent.Issue, ent.NextDone)
					}
				}
			}
		}
		if n := len(ent.Replicas); n&(n-1) != 0 {
			t.Fatalf("pc=%d ring size %d not a power of two", ent.PC, n)
		}
		_ = bits.OnesCount64(mask)
		return true
	})
}

// checkSchedulerInvariants re-derives the issue-side wakeup-engine
// bookkeeping from the ROB: every live waiting instruction is findable
// exactly once across the scheduler lists, ready-list entries really
// have ready operands, and a parked instruction's wake register is
// genuinely unready (its producer still in flight) — the condition
// that guarantees a wake is still coming.
func checkSchedulerInvariants(t *testing.T, p *Proc) {
	t.Helper()
	type key struct {
		idx int
		seq uint64
	}
	count := make(map[key]int)
	scan := func(refs []waitRef, ready bool, parkedOn int) {
		for _, w := range refs {
			e := &p.rob[w.idx]
			if !e.valid || e.seq != w.seq || e.state != stWaiting {
				continue // stale refs are dropped lazily; ignore
			}
			count[key{w.idx, w.seq}]++
			if ready {
				for i := 0; i < int(e.nsrc); i++ {
					if !p.rf.Ready(int(e.srcPhys[i])) {
						t.Fatalf("cycle %d: ready-list instr rob=%d has unready operand p%d",
							p.cycle, w.idx, e.srcPhys[i])
					}
				}
			}
			if parkedOn >= 0 && p.rf.Ready(parkedOn) {
				t.Fatalf("cycle %d: instr rob=%d parked on ready register p%d (missed wake)",
					p.cycle, w.idx, parkedOn)
			}
		}
	}
	if p.eventSched {
		scan(p.readyQ, true, -1)
		for r := range p.regWaiters {
			scan(p.regWaiters[r], false, r)
		}
	} else {
		scan(p.waitQ, false, -1)
	}
	i := p.robHead
	for c := 0; c < p.robCount; c++ {
		e := &p.rob[i]
		if e.valid && e.state == stWaiting {
			if n := count[key{i, e.seq}]; n != 1 {
				t.Fatalf("cycle %d: waiting instr rob=%d seq=%d on %d scheduler lists, want 1",
					p.cycle, i, e.seq, n)
			}
		}
		i = p.robIndexAfter(i)
	}
}

// TestWorklistInvariants steps vectorizing pipelines cycle by cycle and
// re-derives the worklist bookkeeping from scratch at intervals, under
// both the event-driven scheduler and the naive reference.
func TestWorklistInvariants(t *testing.T) {
	configs := []struct {
		name string
		cfg  Config
	}{
		{"ci", DefaultConfig(ModeCI)},
		{"vect", DefaultConfig(ModeVect)},
		{"ci-specmem", func() Config {
			c := DefaultConfig(ModeCI)
			c.SpecMemSize = 768
			return c
		}()},
		{"ci-8rep", func() Config {
			c := DefaultConfig(ModeCI)
			c.Replicas = 8
			return c
		}()},
		{"ci-naive", func() Config {
			c := DefaultConfig(ModeCI)
			c.SetEngineForTest(EngineNaive)
			return c
		}()},
	}
	for _, tc := range configs {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			wl, err := workload.Spec("gcc")
			if err != nil {
				t.Fatal(err)
			}
			cfg := tc.cfg
			cfg.MaxInstr = 12_000
			p, err := New(cfg, wl.Program, wl.NewMem())
			if err != nil {
				t.Fatal(err)
			}
			for !p.halted && p.Stats.Committed < cfg.MaxInstr && p.cycle < 2_000_000 {
				p.step()
				if p.cycle%64 == 0 {
					checkReplicaInvariants(t, p)
					checkSchedulerInvariants(t, p)
				}
			}
			checkReplicaInvariants(t, p)
			checkSchedulerInvariants(t, p)
			if p.Stats.Committed < cfg.MaxInstr {
				t.Fatalf("pipeline stalled: committed %d of %d", p.Stats.Committed, cfg.MaxInstr)
			}
		})
	}
}

// TestStridedPCsCap ensures the inline rename-entry list bound is
// enforced at configuration time.
func TestStridedPCsCap(t *testing.T) {
	cfg := DefaultConfig(ModeCI)
	cfg.StridedPCsPerEntry = maxStridedPCs
	if err := cfg.Validate(); err != nil {
		t.Fatalf("StridedPCsPerEntry=%d must validate: %v", maxStridedPCs, err)
	}
	cfg.StridedPCsPerEntry = maxStridedPCs + 1
	if err := cfg.Validate(); err == nil {
		t.Fatal("StridedPCsPerEntry beyond the inline bound must be rejected")
	}
}
