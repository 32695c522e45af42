// Package hashtable implements the hash table of the HASHING routine
// (paper Section 4.1): a single-level table with linear probing, fixed to
// the size of the cache, considered full at a low fill rate (25 %), with
// probing adapted to work within blocks so that a full table can be split
// cleanly into one contiguous range per partition — "merely a logical
// operation" (Section 3.1).
//
// Design notes mirrored from the paper:
//
//   - Collisions are resolved by linear probing confined to the entry's
//     block (1/fanout of the table). This keeps all rows of one radix digit
//     in one contiguous range so SplitRuns is a per-block compaction.
//   - An insert that cannot proceed (global fill limit reached, or the
//     entry's block has no free slot) reports a short count and changes
//     nothing. A table below the cache size then grows (Grow doubles it in
//     place when its allocation allows); a cache-sized table is full, and
//     the caller splits it into runs and starts afresh. Only that split
//     bounds the working set to the cache, so only it is a fill event.
//     A table that never splits (a finalization table) grows up to
//     MaxSlots, the int32 range of the slot indices, and no further.
//   - The table tracks how many input rows it absorbed (rowsIn) so the
//     ADAPTIVE strategy can read the reduction factor α = rowsIn/rowsOut at
//     split time (Section 5).
//
// The hash is the group. Keys are uint64 and Murmur2 on one uint64 is a
// bijection, so a slot stores the 64-bit hash alone, probes compare that one
// word, and the runs a split produces carry the hash in their Keys column.
// Keys come back once per group, through hashfn.InverseBatch, when
// EmitColumns is asked for them. Every hash a caller inserts must therefore
// be hashfn.Murmur2 of its key.
//
// Rows go in and out a batch at a time, and only so: InsertRawBatch and
// InsertStateBatch fill the table (batch.go), SplitRuns and EmitColumns
// empty it. The row-at-a-time reference the tests check them against is
// agg.Kind's Init, Fold and Merge folded into a Go map.
//
// Occupancy uses epoch versioning so Reset is O(1) and tables can be reused
// without re-zeroing cache-sized arrays.
package hashtable

import (
	"fmt"
	"math"

	"cacheagg/internal/hashfn"
	"cacheagg/internal/runs"
)

// DefaultMaxFill is the fill rate at which the table declares itself full.
// The paper uses 25 %: "we fix the hash table to the size of the L3 cache
// and consider it full at a very low fill rate of 25 %", making collisions
// "very rare or even non-existing".
const DefaultMaxFill = 0.25

// MinBlockRows is the minimum rows per block; smaller blocks make in-block
// probing degenerate.
const MinBlockRows = 8

// MaxSlots caps a table's capacity: the batch kernels index slots with
// int32, so a table holds at most 2^31 slots and Grow refuses beyond them.
// Only a table that never splits reaches the cap, with about 2^30 groups
// held at once (a finalization table, the stream's accumulator); its
// callers turn the refusal into a memory-budget failure.
const MaxSlots = 1 << 31

// Config configures a Table.
type Config struct {
	// CapacityRows is the total number of slots. It is rounded up to a
	// power of two and to at least Blocks*MinBlockRows, and capped at
	// MaxSlots.
	CapacityRows int
	// Blocks is the number of split ranges, normally the partitioning
	// fan-out (256). Must be a power of two.
	Blocks int
	// MaxFill is the fraction of slots that may be occupied before the
	// table reports full; 0 selects DefaultMaxFill.
	MaxFill float64
	// Words is the number of aggregate state words per row.
	Words int
	// Level is the recursion level; an entry's block is the radix digit of
	// its hash at this level.
	Level int
}

// Table is a block-structured linear-probing hash table.
type Table struct {
	capRows   int
	blockRows int
	blockMask uint64
	blocks    int
	words     int
	maxRows   int
	fill      float64 // fill rate: maxRows per slot
	shift     uint    // digit shift for this level

	rows   int
	rowsIn int

	hashes  []uint64
	states  [][]uint64
	version []uint8
	epoch   uint8

	// batchSlots is the reusable slot scratch of the batch-insert path
	// (grown on demand); warmSink keeps the pipelined warm-up loads of
	// claimBatch observable so they are not dead-code-eliminated.
	batchSlots []int32
	warmSink   uint32
	// blockOffs is the reusable per-block offset scratch of the
	// arena-allocating SplitRuns.
	blockOffs []int
}

func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// New creates a table from cfg.
func New(cfg Config) *Table {
	if cfg.Blocks <= 0 || cfg.Blocks&(cfg.Blocks-1) != 0 {
		panic(fmt.Sprintf("hashtable: blocks %d must be a positive power of two", cfg.Blocks))
	}
	if cfg.Level < 0 || cfg.Level >= 8 {
		panic(fmt.Sprintf("hashtable: level %d out of range", cfg.Level))
	}
	capRows := max(ceilPow2(min(cfg.CapacityRows, MaxSlots)), cfg.Blocks*MinBlockRows)
	fill := cfg.MaxFill
	if fill <= 0 {
		fill = DefaultMaxFill
	}
	t := &Table{
		blocks: cfg.Blocks,
		words:  cfg.Words,
		fill:   min(fill, 1),
		shift:  uint(64 - 8*(cfg.Level+1)),
		epoch:  1,
	}
	t.alloc(capRows)
	t.setCapacity(capRows)
	return t
}

// alloc gives the table fresh, zeroed columns of c slots.
func (t *Table) alloc(c int) {
	t.hashes, t.version = make([]uint64, c), make([]uint8, c)
	t.states = make([][]uint64, t.words)
	for w := range t.states {
		t.states[w] = make([]uint64, c)
	}
}

// CapacityRows returns the total slot count (after rounding): the logical
// capacity set by ResetCapacity, at most the allocated one.
func (t *Table) CapacityRows() int { return t.capRows }

// FootprintBytes returns the heap footprint of the table's backing arrays
// (hash and version columns plus one column per state word), for
// registration with the memory governor. It counts the allocated slots,
// whatever the logical capacity.
func (t *Table) FootprintBytes() int64 {
	return int64(cap(t.version)) * int64(SlotBytes(t.words))
}

// ResetCapacity empties the table and sets its logical capacity to rows,
// rounded as New rounds it and capped at the allocated capacity. The first
// slots of every column are reused and nothing is allocated; blocks, fill
// rate, level and width are kept, and every scan stops at the logical end.
// A table sized to a small input keeps its emit scan proportional to that
// input rather than to the cache.
func (t *Table) ResetCapacity(rows int) {
	t.setCapacity(min(max(ceilPow2(rows), t.blocks*MinBlockRows), cap(t.version)))
	t.Reset()
}

// setCapacity sets the logical capacity to c slots, a power of two within
// the allocation, and the block size and fill limit that go with it.
func (t *Table) setCapacity(c int) {
	t.capRows = c
	t.blockRows = c / t.blocks
	t.blockMask = uint64(t.blockRows - 1)
	t.maxRows = max(int(float64(c)*t.fill), 1)
	t.hashes = t.hashes[:c]
	t.version = t.version[:c]
	for w := range t.states {
		t.states[w] = t.states[w][:c]
	}
}

// SetLevel re-targets an empty table to a different recursion level, so a
// worker can reuse one cache-sized allocation across bucket tasks. It
// panics if the table still holds rows or the level is out of range.
func (t *Table) SetLevel(level int) {
	if t.rows != 0 {
		panic("hashtable: SetLevel on non-empty table")
	}
	if level < 0 || level >= 8 {
		panic(fmt.Sprintf("hashtable: level %d out of range", level))
	}
	t.shift = uint(64 - 8*(level+1))
}

// MaxRows returns the fill limit in rows.
func (t *Table) MaxRows() int { return t.maxRows }

// Len returns the number of occupied slots (distinct groups stored).
func (t *Table) Len() int { return t.rows }

// RowsIn returns the number of input rows absorbed since the last Reset.
func (t *Table) RowsIn() int { return t.rowsIn }

// Alpha returns the reduction factor α = rowsIn / rowsOut observed so far.
// An empty table has α = 1 by convention; the strategy only consults α on
// non-empty tables.
func (t *Table) Alpha() float64 {
	if t.rows == 0 {
		return 1
	}
	return float64(t.rowsIn) / float64(t.rows)
}

// block returns the block index of hash h at the table's level.
func (t *Table) block(h uint64) int {
	return int(h >> t.shift & uint64(t.blocks-1))
}

// SplitRuns compacts every non-empty block into one aggregated run and
// returns a slice indexed by block (= radix digit at the table's level);
// empty blocks yield nil entries. A run's Keys column holds the groups'
// hashes. The table is reset afterwards.
//
// The compaction is arena-allocated: every column (hashes, state words)
// is gathered into a single slab, block after block, and the per-block
// runs are carved out of the slabs as sub-slices. A split therefore costs
// a handful of allocations instead of a few per non-empty block, which at
// high group counts removes most of the operator's GC pressure.
func (t *Table) SplitRuns() []*runs.Run {
	out := make([]*runs.Run, t.blocks)
	off := t.offScratch(t.blocks + 1)
	hashSlab := make([]uint64, t.rows)
	stateSlabs := make([][]uint64, t.words)
	for w := range stateSlabs {
		stateSlabs[w] = make([]uint64, t.rows)
	}
	var idx [compactRows]int32
	pos := 0
	for b := 0; b < t.blocks; b++ {
		off[b] = pos
		pos = t.compact(&idx, b*t.blockRows, (b+1)*t.blockRows, hashSlab, stateSlabs, pos)
	}
	off[t.blocks] = pos

	// Carve the slabs into per-block runs. The Run structs and their
	// States headers come from two further slabs so the whole split stays
	// at O(words) allocations.
	nonEmpty := 0
	for b := 0; b < t.blocks; b++ {
		if off[b+1] > off[b] {
			nonEmpty++
		}
	}
	runSlab := make([]runs.Run, nonEmpty)
	viewSlab := make([][]uint64, nonEmpty*t.words)
	ri := 0
	for b := 0; b < t.blocks; b++ {
		lo, hi := off[b], off[b+1]
		if lo == hi {
			continue
		}
		r := &runSlab[ri]
		r.Keys = hashSlab[lo:hi:hi]
		r.States = viewSlab[ri*t.words : (ri+1)*t.words : (ri+1)*t.words]
		for w := 0; w < t.words; w++ {
			r.States[w] = stateSlabs[w][lo:hi:hi]
		}
		out[b] = r
		ri++
	}
	t.Reset()
	return out
}

// offScratch returns a reusable []int of length n for per-block offsets.
func (t *Table) offScratch(n int) []int {
	if cap(t.blockOffs) < n {
		t.blockOffs = make([]int, n)
	}
	return t.blockOffs[:n]
}

// compactRows is the slot span compact scans at a time: its slot list,
// on the caller's stack (1 KiB), stays in L1 for the gathers.
const compactRows = 256

// compact gathers the occupied rows of slots [lo, hi), in slot order,
// into hashes and the state columns from row pos on, and returns the row
// after the last one written. It lists the occupied slots in idx
// compactRows at a time, then gathers each column through the list.
func (t *Table) compact(idx *[compactRows]int32, lo, hi int, hashes []uint64, states [][]uint64, pos int) int {
	for c := lo; c < hi; c += compactRows {
		occ := idx[:occupiedSlots(idx, t.version[c:min(c+compactRows, hi)], t.epoch, c)]
		hashfn.Gather(hashes[pos:pos+len(occ)], t.hashes, occ)
		for w, src := range t.states {
			hashfn.Gather(states[w][pos:pos+len(occ)], src, occ)
		}
		pos += len(occ)
	}
	return pos
}

// occupiedSlots lists in idx the slots base+i whose version ver[i] is
// epoch and returns how many it listed; ver holds at most compactRows
// versions. It stores every slot and advances the count by the compare,
// so the scan has no data-dependent branch. Inlined into compact, the
// loop kept its count on the stack, hence noinline.
//
//go:noinline
func occupiedSlots(idx *[compactRows]int32, ver []uint8, epoch uint8, base int) int {
	n := 0
	for i, v := range ver {
		idx[n&(compactRows-1)] = int32(base + i)
		if v == epoch {
			n++
		}
	}
	return n
}

// EmitColumns gathers every occupied row into the provided column slices in
// block order. hashes must have length Len(), and so must keys unless it is
// nil; states must hold one length-Len() column per state word. Keys are
// recovered from the gathered hashes in one batch, once per group; a nil
// keys slice skips the recovery. It does not reset the table.
func (t *Table) EmitColumns(hashes, keys []uint64, states [][]uint64) {
	var idx [compactRows]int32
	t.compact(&idx, 0, len(t.version), hashes, states, 0)
	if keys != nil {
		hashfn.InverseBatch(hashes[:t.rows], keys)
	}
}

// Grow doubles the table's capacity and keeps its rows, rowsIn, fill rate,
// blocks, level and width. Rows move in slot order, each to the first free
// slot of its probe sequence in the doubled table: the hashes are distinct,
// so no hash is compared and no state merged, and the result is the table
// that re-inserting the emitted rows builds. Every block and the fill limit
// double, so every row finds a slot. When the allocation already holds
// twice the capacity the rows move within it and nothing is allocated
// beyond the slot scratch the batch inserts share; otherwise the doubled
// columns are allocated, the rows move in one pass over the version
// column, and FootprintBytes doubles. A table at MaxSlots does not grow:
// Grow returns false and changes nothing.
func (t *Table) Grow() bool {
	c, blockRows := t.capRows, t.blockRows
	if c >= MaxSlots {
		return false
	}
	if cap(t.version) >= 2*c {
		t.setCapacity(2 * c)
		t.moveInPlace(blockRows)
		return true
	}
	hashes, version, states, epoch := t.hashes, t.version, t.states, t.epoch
	t.alloc(2 * c)
	t.setCapacity(2 * c)
	t.epoch = 1
	nh, nv, ns, B := t.hashes, t.version, t.states, t.blockRows
	m := B - 1
	for s, v := range version {
		if v != epoch {
			continue
		}
		h := hashes[s]
		base := t.block(h) * B
		d := base + int(h)&m
		for nv[d] != 0 {
			d = base + (d+1-base)&m
		}
		nv[d], nh[d] = 1, h
		for w, col := range states {
			ns[w][d] = col[s]
		}
	}
	return true
}

// moveInPlace moves the rows of a table doubled within its allocation from
// the layout of blocks of B slots to the doubled one. Blocks move from the
// last to the first: doubled block b covers the slots of blocks 2b and
// 2b+1, which have moved by then, so only block 0 lands on rows of its own
// that have not moved yet. Each block moves in two passes. The first
// claims every row's slot, in slot order, as re-insertion would, and keeps
// it in the slot scratch; the second moves the rows there, and a row whose
// slot still holds an unmoved row swaps with it and moves that row on.
func (t *Table) moveInPlace(B int) {
	version, hashes, states := t.version, t.hashes, t.states
	if t.epoch > math.MaxUint8-2 {
		// Renumber so the epoch and both marks above it fit a version.
		all := version[:cap(version)]
		for s, v := range all {
			all[s] = 0
			if v == t.epoch {
				all[s] = 1
			}
		}
		t.epoch = 1
	}
	// A slot at old holds a row not yet moved; one at moved holds a row in
	// its final slot or is claimed for one; one at held holds a row not
	// yet moved and is claimed for another. A slot moved out of drops to 0.
	old, moved, held := t.epoch, t.epoch+1, t.epoch+2
	m := 2*B - 1
	dest := t.slotScratch(B)
	for b := t.blocks - 1; b >= 0; b-- {
		lo, base := b*B, 2*b*B
		for s := lo; s < lo+B; s++ {
			if version[s] != old && version[s] != held {
				continue
			}
			d := base + int(hashes[s])&m
			for version[d] == moved || version[d] == held {
				d = base + (d+1-base)&m
			}
			dest[s-lo] = int32(d)
			if version[d] == old {
				version[d] = held
			} else {
				version[d] = moved
			}
		}
		for s := lo; s < lo+B; s++ {
			for version[s] == old || version[s] == held {
				d := int(dest[s-lo])
				if v := version[d]; d != s && v != old && v != held {
					hashes[d] = hashes[s]
					for _, col := range states {
						col[d] = col[s]
					}
					version[d], version[s] = moved, 0
					break
				}
				// d is s itself, or holds an unmoved row of this block:
				// swap, and move that row on from s.
				hashes[s], hashes[d] = hashes[d], hashes[s]
				for _, col := range states {
					col[s], col[d] = col[d], col[s]
				}
				version[d] = moved
				dest[s-lo] = dest[d-lo]
			}
		}
	}
	t.epoch = moved
}

// Reset clears the table in O(1) via epoch bump (O(capacity) re-zeroing
// happens only on the rare epoch wrap).
func (t *Table) Reset() {
	t.rows = 0
	t.rowsIn = 0
	t.epoch++
	if t.epoch == 0 { // wrapped: versions may alias, clear for real
		// The whole allocation, not only the logical capacity: a stale
		// version past the logical end would alias a later epoch once
		// ResetCapacity grows the table again.
		clear(t.version[:cap(t.version)])
		t.epoch = 1
	}
}

// SlotBytes returns the per-slot memory footprint in bytes for a table with
// the given number of state words: hash + states + version. The hash is the
// group, so no key is stored.
func SlotBytes(words int) int { return 8 + 8*words + 1 }

// CapacityForCache returns the slot count of a table sized to occupy
// roughly cacheBytes, for the given state width. The result is rounded
// DOWN to a power of two so the table never exceeds the cache budget.
func CapacityForCache(cacheBytes, words int) int {
	slots := cacheBytes / SlotBytes(words)
	if slots < 1 {
		return 1
	}
	p := 1
	for p*2 <= slots {
		p *= 2
	}
	return p
}
