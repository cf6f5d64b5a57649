package ci

import "civect/internal/isa"

// RegMask is a bit per logical register; bit r set means register r was
// written in the region the mask covers.
type RegMask uint64

// Set marks register r as written.
func (m *RegMask) Set(r isa.Reg) { *m |= 1 << r }

// Has reports whether register r is marked written.
func (m RegMask) Has(r isa.Reg) bool { return m&(1<<r) != 0 }

// NRBQEntry tracks one in-flight conditional branch: its estimated
// re-convergent point and the mask of logical registers written after
// this branch and before the next one (§2.3.2).
type NRBQEntry struct {
	Seq      uint64 // pipeline sequence number of the branch
	BranchPC uint64
	ReconvPC int
	Mask     RegMask
	used     bool
}

// NRBQ is the Not Retired Branch Queue: a FIFO of in-flight conditional
// branches (16 entries in the paper, §3.1). When the queue is full the
// oldest entry is dropped; losing mask information for very old branches
// only makes CI detection more conservative for them.
type NRBQ struct {
	entries []NRBQEntry
	n       int // live entries, stored at entries[0:n], oldest first
}

// NewNRBQ builds a queue with the given capacity.
func NewNRBQ(capacity int) *NRBQ {
	q := new(NRBQ)
	q.Reset(capacity)
	return q
}

// Reset empties q in place and sizes it to capacity, reusing the entry
// array when the capacity is unchanged.
func (q *NRBQ) Reset(capacity int) {
	if capacity <= 0 {
		panic("ci: NRBQ capacity must be positive")
	}
	entries := q.entries
	if len(entries) == capacity {
		clear(entries)
	} else {
		entries = make([]NRBQEntry, capacity)
	}
	*q = NRBQ{entries: entries}
}

// Len returns the number of live entries.
func (q *NRBQ) Len() int { return q.n }

// PushBranch appends an entry for a newly decoded conditional branch
// with a cleared mask. If the queue is full, the oldest entry is
// dropped.
func (q *NRBQ) PushBranch(seq, branchPC uint64, reconvPC int) {
	if q.n == len(q.entries) {
		copy(q.entries, q.entries[1:])
		q.n--
	}
	q.entries[q.n] = NRBQEntry{Seq: seq, BranchPC: branchPC, ReconvPC: reconvPC, used: true}
	q.n++
}

// NoteDest records that the newest region wrote logical register r
// ("for each new instruction, the bit corresponding to the destination
// register is set to one for the entry at the tail"). With no in-flight
// branch there is nothing to track.
func (q *NRBQ) NoteDest(r isa.Reg) {
	if q.n == 0 {
		return
	}
	q.entries[q.n-1].Mask.Set(r)
}

// Find returns the entry for the branch with sequence number seq, or
// nil.
func (q *NRBQ) Find(seq uint64) *NRBQEntry {
	for i := 0; i < q.n; i++ {
		if q.entries[i].Seq == seq {
			return &q.entries[i]
		}
	}
	return nil
}

// MaskFrom ORs the masks of the branch with sequence seq and every
// younger entry — the CRP-mask initialisation on a misprediction
// ("ORing all the masks in NRBQ starting from the mispredicted branch to
// the branch at the tail"). ok is false when the branch has already left
// the queue.
func (q *NRBQ) MaskFrom(seq uint64) (RegMask, bool) {
	var m RegMask
	found := false
	for i := 0; i < q.n; i++ {
		if q.entries[i].Seq == seq {
			found = true
		}
		if found {
			m |= q.entries[i].Mask
		}
	}
	return m, found
}

// SquashYoungerThan removes entries with sequence numbers strictly
// greater than seq (misprediction recovery: the squashed wrong path's
// branches leave the queue).
func (q *NRBQ) SquashYoungerThan(seq uint64) {
	keep := 0
	for i := 0; i < q.n; i++ {
		if q.entries[i].Seq <= seq {
			q.entries[keep] = q.entries[i]
			keep++
		}
	}
	q.n = keep
}

// RetireUpTo removes entries with sequence numbers less than or equal
// to seq (the branch has committed and is no longer in flight).
func (q *NRBQ) RetireUpTo(seq uint64) {
	keep := 0
	for i := 0; i < q.n; i++ {
		if q.entries[i].Seq > seq {
			q.entries[keep] = q.entries[i]
			keep++
		}
	}
	q.n = keep
}

// SizeBytes returns the §3.1 accounting: 8 bytes per entry (16 entries
// -> 128 bytes in the paper's configuration).
func (q *NRBQ) SizeBytes() int { return len(q.entries) * 8 }

// CRP is the Current Re-convergent Point register (§2.3.1–2.3.2): the
// re-convergent PC of the most recent qualifying misprediction, the R
// (reached) flag, and the mask of logical registers written since the
// branch was fetched and before the re-convergent point was reached, on
// either path.
type CRP struct {
	Valid   bool
	PC      int
	Reached bool
	Mask    RegMask
	// Episode numbers CRP activations so reuse statistics can be
	// attributed to the misprediction that opened the episode.
	Episode uint64
}

// Activate loads the CRP for a new misprediction episode.
func (c *CRP) Activate(reconvPC int, mask RegMask) {
	c.Valid = true
	c.PC = reconvPC
	c.Reached = false
	c.Mask = mask
	c.Episode++
}

// Deactivate clears the CRP.
func (c *CRP) Deactivate() { c.Valid = false; c.Reached = false }

// NoteFetch updates the CRP for a newly decoded instruction at pc that
// writes dest (hasDest). Before the re-convergent point is reached,
// destination registers accumulate into the mask; reaching the
// re-convergent PC sets R. It returns true if this fetch reached the
// re-convergent point.
func (c *CRP) NoteFetch(pc int, dest isa.Reg, hasDest bool) (reachedNow bool) {
	if !c.Valid {
		return false
	}
	if !c.Reached {
		if pc == c.PC {
			c.Reached = true
			return true
		}
		if hasDest {
			c.Mask.Set(dest)
		}
	}
	return false
}

// Independent reports whether an instruction fetched after the
// re-convergent point, with the given source registers, is control
// independent: all its sources must be unwritten in the mask.
func (c *CRP) Independent(srcs []isa.Reg) bool {
	if !c.Valid || !c.Reached {
		return false
	}
	for _, r := range srcs {
		if c.Mask.Has(r) {
			return false
		}
	}
	return true
}

// SizeBytes returns the §3.1 accounting: 8 bytes of PC plus 8 bytes of
// mask.
func (c *CRP) SizeBytes() int { return 16 }
