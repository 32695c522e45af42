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
//   - The table never grows: when an insert cannot proceed (global fill
//     limit reached, or the entry's block has no free slot), the insert
//     reports failure and the caller splits the table into runs and starts
//     a fresh one. This is the mechanism that bounds the working set to the
//     cache.
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
// Occupancy uses epoch versioning so Reset is O(1) and tables can be reused
// without re-zeroing cache-sized arrays.
package hashtable

import (
	"fmt"
	"math"

	"cacheagg/internal/agg"
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

// Config configures a Table.
type Config struct {
	// CapacityRows is the total number of slots. It is rounded up to a
	// power of two and to at least Blocks*MinBlockRows.
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
	level     int
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
	capRows := ceilPow2(cfg.CapacityRows)
	if min := cfg.Blocks * MinBlockRows; capRows < min {
		capRows = min
	}
	fill := cfg.MaxFill
	if fill <= 0 {
		fill = DefaultMaxFill
	}
	if fill > 1 {
		fill = 1
	}
	maxRows := int(float64(capRows) * fill)
	if maxRows < 1 {
		maxRows = 1
	}
	t := &Table{
		capRows:   capRows,
		blockRows: capRows / cfg.Blocks,
		blocks:    cfg.Blocks,
		level:     cfg.Level,
		words:     cfg.Words,
		maxRows:   maxRows,
		fill:      fill,
		shift:     uint(64 - 8*(cfg.Level+1)),
		hashes:    make([]uint64, capRows),
		states:    make([][]uint64, cfg.Words),
		version:   make([]uint8, capRows),
		epoch:     1,
	}
	t.blockMask = uint64(t.blockRows - 1)
	for i := range t.states {
		t.states[i] = make([]uint64, capRows)
	}
	return t
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
	c := min(max(ceilPow2(rows), t.blocks*MinBlockRows), cap(t.version))
	t.capRows = c
	t.blockRows = c / t.blocks
	t.blockMask = uint64(t.blockRows - 1)
	t.maxRows = max(int(float64(c)*t.fill), 1)
	t.hashes = t.hashes[:c]
	t.version = t.version[:c]
	for w := range t.states {
		t.states[w] = t.states[w][:c]
	}
	t.Reset()
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
	t.level = level
	t.shift = uint(64 - 8*(level+1))
}

// MaxRows returns the fill limit in rows.
func (t *Table) MaxRows() int { return t.maxRows }

// Len returns the number of occupied slots (distinct groups stored).
func (t *Table) Len() int { return t.rows }

// RowsIn returns the number of input rows absorbed since the last Reset.
func (t *Table) RowsIn() int { return t.rowsIn }

// Level returns the recursion level the table was built for.
func (t *Table) Level() int { return t.level }

// Alpha returns the reduction factor α = rowsIn / rowsOut observed so far.
// An empty table has α = 1 by convention; the strategy only consults α on
// non-empty tables.
func (t *Table) Alpha() float64 {
	if t.rows == 0 {
		return 1
	}
	return float64(t.rowsIn) / float64(t.rows)
}

// Full reports whether the global fill limit has been reached.
func (t *Table) Full() bool { return t.rows >= t.maxRows }

// block returns the block index of hash h at the table's level.
func (t *Table) block(h uint64) int {
	return int(h >> t.shift & uint64(t.blocks-1))
}

// slot probing: position within block derived from the LOW bits of the
// hash, which no recursion level consumes (digits come from the top), so
// in-block placement stays independent of the partitioning digits.
func (t *Table) probeStart(h uint64) int {
	return int(h & t.blockMask)
}

// find locates the group of hash h in its block. It returns the slot index
// and true if present; otherwise the first free slot and false, or -1 and
// false if the block is completely full.
func (t *Table) find(h uint64) (int, bool) {
	base := t.block(h) * t.blockRows
	start := t.probeStart(h)
	for i := 0; i < t.blockRows; i++ {
		s := base + int((uint64(start+i))&t.blockMask)
		if t.version[s] != t.epoch {
			return s, false
		}
		if t.hashes[s] == h {
			return s, true
		}
	}
	return -1, false
}

// InsertState inserts (or merges) a row carrying an initialized aggregate
// state vector. It returns false — without modifying the table — if the
// row is new and the table is full (fill limit reached or block exhausted);
// the caller must then split the table and retry on a fresh one.
func (t *Table) InsertState(h uint64, state []uint64, lay *agg.Layout) bool {
	s, found := t.find(h)
	if found {
		if lay != nil {
			for i, sp := range lay.Specs {
				off := lay.Offsets[i]
				w := sp.Kind.Width()
				// Merge in place on the column-decomposed state.
				mergeColumns(sp.Kind, t.states[off:off+w], s, state[off:off+w])
			}
		}
		t.rowsIn++
		return true
	}
	if s < 0 || t.rows >= t.maxRows {
		return false
	}
	t.version[s] = t.epoch
	t.hashes[s] = h
	for i := 0; i < t.words; i++ {
		t.states[i][s] = state[i]
	}
	t.rows++
	t.rowsIn++
	return true
}

// InsertRaw inserts (or folds) a raw input row whose aggregate inputs are
// provided by values. It returns false, without modifying the table, when
// the row is new and the table is full.
func (t *Table) InsertRaw(h uint64, values func(col int) int64, lay *agg.Layout) bool {
	s, found := t.find(h)
	if found {
		if lay != nil {
			for i, sp := range lay.Specs {
				off := lay.Offsets[i]
				var v int64
				if sp.Kind != agg.Count {
					v = values(sp.Col)
				}
				foldColumns(sp.Kind, t.states[off:off+sp.Kind.Width()], s, v)
			}
		}
		t.rowsIn++
		return true
	}
	if s < 0 || t.rows >= t.maxRows {
		return false
	}
	t.version[s] = t.epoch
	t.hashes[s] = h
	if lay != nil {
		for i, sp := range lay.Specs {
			off := lay.Offsets[i]
			var v int64
			if sp.Kind != agg.Count {
				v = values(sp.Col)
			}
			initColumns(sp.Kind, t.states[off:off+sp.Kind.Width()], s, v)
		}
	}
	t.rows++
	t.rowsIn++
	return true
}

// mergeColumns applies kind's super-aggregate merge at row s of the
// column-decomposed state storage.
func mergeColumns(k agg.Kind, cols [][]uint64, s int, src []uint64) {
	switch k {
	case agg.Count, agg.Sum:
		cols[0][s] = uint64(int64(cols[0][s]) + int64(src[0]))
	case agg.Min:
		if int64(src[0]) < int64(cols[0][s]) {
			cols[0][s] = src[0]
		}
	case agg.Max:
		if int64(src[0]) > int64(cols[0][s]) {
			cols[0][s] = src[0]
		}
	case agg.Avg:
		cols[0][s] = uint64(int64(cols[0][s]) + int64(src[0]))
		cols[1][s] += src[1]
	default:
		panic("hashtable: invalid kind")
	}
}

func foldColumns(k agg.Kind, cols [][]uint64, s int, v int64) {
	switch k {
	case agg.Count:
		cols[0][s]++
	case agg.Sum:
		cols[0][s] = uint64(int64(cols[0][s]) + v)
	case agg.Min:
		if v < int64(cols[0][s]) {
			cols[0][s] = uint64(v)
		}
	case agg.Max:
		if v > int64(cols[0][s]) {
			cols[0][s] = uint64(v)
		}
	case agg.Avg:
		cols[0][s] = uint64(int64(cols[0][s]) + v)
		cols[1][s]++
	default:
		panic("hashtable: invalid kind")
	}
}

func initColumns(k agg.Kind, cols [][]uint64, s int, v int64) {
	switch k {
	case agg.Count:
		cols[0][s] = 1
	case agg.Sum, agg.Min, agg.Max:
		cols[0][s] = uint64(v)
	case agg.Avg:
		cols[0][s] = uint64(v)
		cols[1][s] = 1
	default:
		panic("hashtable: invalid kind")
	}
}

// InsertStateCols inserts or merges row `row` of column-decomposed partial
// states (the layout of runs.Run.States), combining word-wise with the
// layout's word operations. This is the columnar fast path of the engine:
// no per-row state gathering. Returns false when the row is new and the
// table is full.
func (t *Table) InsertStateCols(h uint64, states [][]uint64, row int, ops []agg.WordOp) bool {
	s, found := t.find(h)
	if found {
		for w := range ops {
			t.states[w][s] = ops[w].Op.Apply(t.states[w][s], states[w][row])
		}
		t.rowsIn++
		return true
	}
	if s < 0 || t.rows >= t.maxRows {
		return false
	}
	t.version[s] = t.epoch
	t.hashes[s] = h
	for w := range ops {
		t.states[w][s] = states[w][row]
	}
	t.rows++
	t.rowsIn++
	return true
}

// InsertRawCols inserts or folds row `row` of raw input columns, using the
// layout's word operations (SrcOne words contribute 1, SrcCol words read
// cols[op.Col][row]). Returns false when the row is new and the table is
// full.
func (t *Table) InsertRawCols(h uint64, cols [][]int64, row int, ops []agg.WordOp) bool {
	s, found := t.find(h)
	if found {
		for w := range ops {
			v := int64(1)
			if ops[w].Src == agg.SrcCol {
				v = cols[ops[w].Col][row]
			}
			t.states[w][s] = ops[w].Op.Apply(t.states[w][s], uint64(v))
		}
		t.rowsIn++
		return true
	}
	if s < 0 || t.rows >= t.maxRows {
		return false
	}
	t.version[s] = t.epoch
	t.hashes[s] = h
	for w := range ops {
		v := int64(1)
		if ops[w].Src == agg.SrcCol {
			v = cols[ops[w].Col][row]
		}
		t.states[w][s] = uint64(v)
	}
	t.rows++
	t.rowsIn++
	return true
}

// Contains reports whether the group of hash h is in the table.
func (t *Table) Contains(h uint64) bool {
	_, found := t.find(h)
	return found
}

// Lookup returns a copy of the state vector stored for hash h and whether
// its group is present. Intended for tests and small finalization paths.
func (t *Table) Lookup(h uint64) ([]uint64, bool) {
	s, found := t.find(h)
	if !found {
		return nil, false
	}
	out := make([]uint64, t.words)
	for i := 0; i < t.words; i++ {
		out[i] = t.states[i][s]
	}
	return out, true
}

// SplitRuns compacts every non-empty block into one aggregated run and
// returns a slice indexed by block (= radix digit at the table's level);
// empty blocks yield nil entries. A run's Keys column holds the groups'
// hashes. The table is reset afterwards.
//
// The compaction is batched and arena-allocated: one scan collects the
// occupied slot indices of every block (recording per-block boundaries),
// each column (hashes, state words) is then gathered into a single
// slab with one tight monomorphic copy loop, and the per-block runs are
// carved out of the slabs as sub-slices. A split therefore costs a handful
// of allocations instead of a few per non-empty block, which at high group
// counts removes most of the operator's GC pressure.
func (t *Table) SplitRuns() []*runs.Run {
	if t.capRows > math.MaxInt32 {
		return t.splitRunsSlow()
	}
	out := make([]*runs.Run, t.blocks)
	off := t.offScratch(t.blocks + 1)
	hashSlab := make([]uint64, t.rows)
	version, hashCol, epoch := t.version, t.hashes, t.epoch
	blockRows := t.blockRows
	// The occupancy scan gathers the hash column as it goes; the slot list is
	// only materialized when state columns need it for their own gathers.
	needIdx := t.words > 0
	var idx []int32
	if needIdx {
		idx = t.slotScratch(t.rows)
	}
	pos := 0
	for b := 0; b < t.blocks; b++ {
		off[b] = pos
		base := b * blockRows
		ver := version[base : base+blockRows]
		if needIdx {
			for i, v := range ver {
				if v == epoch {
					s := base + i
					idx[pos] = int32(s)
					hashSlab[pos] = hashCol[s]
					pos++
				}
			}
		} else {
			for i, v := range ver {
				if v == epoch {
					hashSlab[pos] = hashCol[base+i]
					pos++
				}
			}
		}
	}
	off[t.blocks] = pos
	var occ []int32
	if needIdx {
		occ = idx[:pos]
	}

	stateSlabs := make([][]uint64, t.words)
	for w := 0; w < t.words; w++ {
		col := make([]uint64, pos)
		src := t.states[w]
		for j, s := range occ {
			col[j] = src[s]
		}
		stateSlabs[w] = col
	}

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

// splitRunsSlow is the row-at-a-time SplitRuns for tables whose slot
// indices do not fit int32 (unreachable through the engine's cache-sized
// tables; kept for API completeness).
func (t *Table) splitRunsSlow() []*runs.Run {
	out := make([]*runs.Run, t.blocks)
	for b := 0; b < t.blocks; b++ {
		base := b * t.blockRows
		n := 0
		for i := 0; i < t.blockRows; i++ {
			if t.version[base+i] == t.epoch {
				n++
			}
		}
		if n == 0 {
			continue
		}
		r := &runs.Run{
			Keys:   make([]uint64, 0, n),
			States: make([][]uint64, t.words),
		}
		for w := range r.States {
			r.States[w] = make([]uint64, 0, n)
		}
		for i := 0; i < t.blockRows; i++ {
			s := base + i
			if t.version[s] != t.epoch {
				continue
			}
			r.Keys = append(r.Keys, t.hashes[s])
			for w := 0; w < t.words; w++ {
				r.States[w] = append(r.States[w], t.states[w][s])
			}
		}
		out[b] = r
	}
	t.Reset()
	return out
}

// Emit appends every occupied row to the provided callback in block order,
// each with its key recovered from its hash. Unlike SplitRuns it does not
// reset the table.
func (t *Table) Emit(fn func(hash, key uint64, state []uint64)) {
	scratch := make([]uint64, t.words)
	for s := 0; s < t.capRows; s++ {
		if t.version[s] != t.epoch {
			continue
		}
		for w := 0; w < t.words; w++ {
			scratch[w] = t.states[w][s]
		}
		fn(t.hashes[s], hashfn.Murmur2Inverse(t.hashes[s]), scratch)
	}
}

// EmitColumns gathers every occupied row into the provided column slices in
// block order (the same order Emit visits). hashes must have length Len(),
// and so must keys unless it is nil; states must hold one length-Len()
// column per state word. Keys are recovered from the gathered hashes in
// one batch, once per group; a nil keys slice skips the recovery. Like
// Emit it does not reset the table. This is the batched output path: one
// occupancy scan, then one tight copy loop per column.
func (t *Table) EmitColumns(hashes, keys []uint64, states [][]uint64) {
	if t.capRows > math.MaxInt32 {
		j := 0
		t.Emit(func(h, _ uint64, st []uint64) {
			hashes[j] = h
			for w := range st {
				states[w][j] = st[w]
			}
			j++
		})
	} else {
		idx := t.slotScratch(t.rows)
		version, epoch, hsCol := t.version, t.epoch, t.hashes
		n := 0
		for s, v := range version {
			if v == epoch {
				idx[n] = int32(s)
				hashes[n] = hsCol[s]
				n++
			}
		}
		occ := idx[:n]
		for w := 0; w < t.words; w++ {
			src := t.states[w]
			dst := states[w]
			for j, s := range occ {
				dst[j] = src[s]
			}
		}
	}
	if keys != nil {
		hashfn.InverseBatch(hashes[:t.rows], keys)
	}
}

// Double returns a table of twice t's capacity — same blocks, fill rate,
// level and width — holding every row of t; t is left
// unchanged. Rows move in slot order, each to the first free slot of its
// probe sequence in the new table: the hashes are distinct, so no hash is
// compared and no state merged, and the result is the table that
// re-inserting t's emitted rows would build. Every block and the fill
// limit at least double, so every row finds a slot; running out is a bug
// and panics.
func (t *Table) Double() *Table {
	nt := New(Config{
		CapacityRows: 2 * t.capRows,
		Blocks:       t.blocks,
		Words:        t.words,
		Level:        t.level,
	})
	nt.maxRows = 2 * t.maxRows // the same fill rate
	nt.fill = t.fill
	m := int(nt.blockMask)
	for s, v := range t.version {
		if v != t.epoch {
			continue
		}
		h := t.hashes[s]
		base, off := nt.block(h)*nt.blockRows, nt.probeStart(h)
		d := -1
		for i := 0; i < nt.blockRows; i++ {
			if s2 := base + (off+i)&m; nt.version[s2] != nt.epoch {
				d = s2
				break
			}
		}
		if d < 0 {
			panic("hashtable: doubled table overflowed")
		}
		nt.version[d] = nt.epoch
		nt.hashes[d] = h
		for w, col := range t.states {
			nt.states[w][d] = col[s]
		}
	}
	nt.rows, nt.rowsIn = t.rows, t.rowsIn
	return nt
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
