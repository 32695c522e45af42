package hashtable

// Batch (morsel-wide) insert path: the only way rows enter a table.
//
// Probing row by row makes every probe a dependent cache miss, and folding
// state words row by row pays a dynamic dispatch through agg.Op.Apply per
// word. The batch inserts restructure that work into two phases over a
// whole batch of rows:
//
//  1. Claim — locate (or claim) the slot of every row. The probe loop is
//     software-pipelined: the first probe line of a group of pipelineWidth
//     rows is loaded up front, so the independent misses overlap instead of
//     serializing, before each row's (now cache-warm) probe is resolved.
//  2. Fold/Merge — apply the aggregate contributions word-major: one
//     monomorphic kernel per state word sweeps the whole batch (see
//     agg.ColumnFolder), eliminating per-row dispatch.
//
// New rows are initialized to the word's identity during the claim and then
// folded like every other row — identity ⊕ v is bitwise v for all supported
// operations, so a group's state is bit-identical to agg.Kind's Init
// followed by Fold (or Merge) over its rows, which the differential tests
// check against a Go map folded through that reference. A batch stops at
// the first row that does not fit (fill limit or exhausted block) and
// reports how many rows it absorbed; rows before the failing one are fully
// applied, the failing row and everything after it not at all.

import "cacheagg/internal/agg"

// pipelineWidth is the number of probes kept in flight by the claim loop.
// Eight independent loads comfortably cover the handful of line-fill
// buffers current cores resolve misses through, without bloating the
// per-group bookkeeping.
const pipelineWidth = 8

// slotScratch returns a reusable []int32 of length n.
func (t *Table) slotScratch(n int) []int32 {
	if cap(t.batchSlots) < n {
		t.batchSlots = make([]int32, n)
	}
	return t.batchSlots[:n]
}

// claimBatch assigns a slot to each of the n batch rows by its hash
// hashes[j], claiming fresh slots — initialized to the per-word identity —
// for groups not yet present. It returns the number of rows claimed; a return
// m < n means row m hit the fill limit or an exhausted block (and rows
// m..n-1 were not touched). rowsIn counts the m absorbed rows.
func (t *Table) claimBatch(hashes []uint64, slots []int32, ops []agg.WordOp) int {
	var s0 [pipelineWidth]int32
	// Hoist the table columns into locals: the compiler cannot otherwise
	// prove the receiver's fields stable across the stores below, and the
	// reloads show up at this loop's per-row scale.
	version, hs := t.version, t.hashes
	epoch := t.epoch
	blockShift, blockHigh, blockMask := t.shift, uint64(t.blocks-1), t.blockMask
	blockRows := t.blockRows
	n := len(hashes)
	j := 0
	for j < n {
		g := n - j
		if g > pipelineWidth {
			g = pipelineWidth
		}
		// Pipeline stage 1: compute the first probe slot of every row in
		// the group and touch its version word. The loads are independent,
		// so outstanding misses overlap instead of serializing; the
		// resolution stage then probes cache-warm lines. The sum keeps the
		// loads observable (no dead-code elimination). The slot within the
		// block comes from the hash's low bits, which no recursion level
		// consumes (digits come from the top), so in-block placement stays
		// independent of the partitioning digits.
		warm := uint32(0)
		for x := 0; x < g; x++ {
			h := hashes[j+x]
			s := int(h>>blockShift&blockHigh)*blockRows + int(h&blockMask)
			s0[x] = int32(s)
			warm += uint32(version[s])
		}
		t.warmSink += warm
		// Pipeline stage 2: resolve each probe. At the paper's 25 % fill
		// the first slot is almost always either free or the matching
		// group, so the common path touches only the pre-warmed line.
	resolve:
		for x := 0; x < g; x++ {
			h := hashes[j+x]
			s := int(s0[x])
			if version[s] == epoch {
				if hs[s] == h {
					slots[j+x] = int32(s)
					continue
				}
				// Home slot holds a different group: continue the linear
				// probe in-block from the next offset.
				m := int(blockMask)
				off := int(h) & m
				base := s - off
				free := -1
				for i := 1; i < blockRows; i++ {
					s2 := base + (off+i)&m
					if version[s2] != epoch {
						free = s2
						break
					}
					if hs[s2] == h {
						slots[j+x] = int32(s2)
						continue resolve
					}
				}
				if free < 0 {
					t.rowsIn += j + x
					return j + x
				}
				s = free
			}
			// s is a free slot: claim it, initialized to the identity.
			if t.rows >= t.maxRows {
				t.rowsIn += j + x
				return j + x
			}
			version[s] = epoch
			hs[s] = h
			for w := range ops {
				t.states[w][s] = ops[w].Op.Identity()
			}
			t.rows++
			slots[j+x] = int32(s)
		}
		j += g
	}
	t.rowsIn += n
	return n
}

// InsertRawBatch inserts (or folds) a batch of raw input rows. Row j of the
// batch is hashes[j] and corresponds to global row lo+j of the full input
// columns cols. The hash is the group, so keys is unused: it stays in the
// signature for callers that still pass their key column. It returns the
// number of rows absorbed; a short count means the table is full at the
// first unconsumed row, and the caller grows or splits the table and
// retries from there.
func (t *Table) InsertRawBatch(hashes, keys []uint64, cols [][]int64, lo int, kern *agg.Kernels) int {
	slots := t.slotScratch(len(hashes))
	m := t.claimBatch(hashes, slots, kern.Ops)
	for w, fold := range kern.Fold {
		if c := kern.Cols[w]; c >= 0 {
			fold(t.states[w], slots[:m], cols[c][lo:lo+m])
		} else {
			fold(t.states[w], slots[:m], nil)
		}
	}
	return m
}

// InsertStateBatch inserts (or merges) a batch of rows carrying partial
// aggregate states. Row j of the batch is hashes[j] and corresponds to row
// lo+j of the column-decomposed states; keys is unused, as in
// InsertRawBatch. Returns the number of rows absorbed (short count ⇒ table
// full at the first unconsumed row).
func (t *Table) InsertStateBatch(hashes, keys []uint64, states [][]uint64, lo int, kern *agg.Kernels) int {
	slots := t.slotScratch(len(hashes))
	m := t.claimBatch(hashes, slots, kern.Ops)
	for w, merge := range kern.Merge {
		merge(t.states[w], slots[:m], states[w][lo:lo+m])
	}
	return m
}
