package hashtable

// Differential tests of the batch kernels against a reference model: a Go
// map from hash to packed state, folded through agg's row-at-a-time
// reference (Layout.InitRow/FoldRow for raw rows, Kind.Merge for partial
// states). The model also knows when an insert must stop short, so every
// batch must absorb exactly the rows the model takes, keep the same group
// and row counts, and every split must hand back the model's groups, each
// in the run of its block — for every aggregate kind, input distribution,
// batch-size pattern (including the sizes 0, 1, width-1 and width at the
// pipelined claim loop's group edges), and reaction to a short count:
// split, grow into new columns, or grow within the allocation.

import (
	"fmt"
	"testing"

	"cacheagg/internal/agg"
	"cacheagg/internal/datagen"
	"cacheagg/internal/hashfn"
	"cacheagg/internal/runs"
	"cacheagg/internal/xrand"
)

// diffLayouts are the aggregate layouts the differential tests sweep: every
// kind alone (Count = SrcOne, Avg = two words) plus a wide multi-aggregate.
func diffLayouts() map[string]*agg.Layout {
	return map[string]*agg.Layout{
		"distinct": agg.NewLayout(nil),
		"count":    agg.NewLayout([]agg.Spec{{Kind: agg.Count, Col: 0}}),
		"sum":      agg.NewLayout([]agg.Spec{{Kind: agg.Sum, Col: 0}}),
		"min":      agg.NewLayout([]agg.Spec{{Kind: agg.Min, Col: 0}}),
		"max":      agg.NewLayout([]agg.Spec{{Kind: agg.Max, Col: 0}}),
		"avg":      agg.NewLayout([]agg.Spec{{Kind: agg.Avg, Col: 0}}),
		"multi": agg.NewLayout([]agg.Spec{
			{Kind: agg.Count, Col: 0}, {Kind: agg.Sum, Col: 1},
			{Kind: agg.Min, Col: 0}, {Kind: agg.Max, Col: 1},
			{Kind: agg.Avg, Col: 0},
		}),
	}
}

func diffTable(words int) *Table {
	return New(Config{CapacityRows: 4096, Blocks: 256, Words: words})
}

// onShort is what a drain does when a batch stops short.
type onShort int

const (
	split       onShort = iota // split the table into runs
	grow                       // grow into newly allocated columns
	growInPlace                // grow within a larger allocation
)

// growCap is the capacity up to which a growing drain grows; past it, it
// splits.
const growCap = 1 << 15

func (m onShort) String() string { return [...]string{"split", "grow", "grow in place"}[m] }

// drainTable returns diffTable's table for a drain that reacts with m.
func drainTable(words int, m onShort) *Table {
	if m != growInPlace {
		return diffTable(words)
	}
	tb := New(Config{CapacityRows: growCap, Blocks: 256, Words: words})
	tb.ResetCapacity(4096)
	return tb
}

// refTable models a Table with the reference aggregation. Linear probing
// inside a block finds a free slot exactly when the block holds fewer
// groups than slots, so counting the groups of each block models block
// exhaustion without modelling slots; the fill limit caps the groups.
type refTable struct {
	lay       *agg.Layout
	shift     uint
	blocks    int
	blockRows int
	maxRows   int
	rowsIn    int
	groups    map[uint64][]uint64
	perBlock  []int
}

// newRef models an empty table of tb's geometry: blocks, level, slots per
// block and fill limit.
func newRef(tb *Table, lay *agg.Layout) *refTable {
	return &refTable{
		lay: lay, shift: tb.shift, blocks: tb.blocks, blockRows: tb.blockRows, maxRows: tb.maxRows,
		groups: map[uint64][]uint64{}, perBlock: make([]int, tb.blocks),
	}
}

func (r *refTable) block(h uint64) int { return int(h >> r.shift & uint64(r.blocks-1)) }

// group returns the state of h's group and whether it was just created, or
// nil when h is a new group the table has no room for.
func (r *refTable) group(h uint64) ([]uint64, bool) {
	if st, ok := r.groups[h]; ok {
		return st, false
	}
	b := r.block(h)
	if len(r.groups) >= r.maxRows || r.perBlock[b] == r.blockRows {
		return nil, false
	}
	st := make([]uint64, r.lay.Words)
	r.groups[h] = st
	r.perBlock[b]++
	return st, true
}

// insertRaw folds raw input row row of cols into h's group.
func (r *refTable) insertRaw(h uint64, cols [][]int64, row int) bool {
	st, fresh := r.group(h)
	if st == nil {
		return false
	}
	val := func(c int) int64 { return cols[c][row] }
	if fresh {
		r.lay.InitRow(st, val)
	} else {
		r.lay.FoldRow(st, val)
	}
	r.rowsIn++
	return true
}

// insertState merges partial-state row row of states into h's group.
func (r *refTable) insertState(h uint64, states [][]uint64, row int) bool {
	st, fresh := r.group(h)
	if st == nil {
		return false
	}
	src := make([]uint64, len(st))
	for w := range src {
		src[w] = states[w][row]
	}
	if fresh {
		copy(st, src)
	} else {
		mergeRow(r.lay, st, src)
	}
	r.rowsIn++
	return true
}

// mergeRow merges packed state src into dst through each spec's Kind.Merge.
func mergeRow(lay *agg.Layout, dst, src []uint64) {
	for i, s := range lay.Specs {
		off, w := lay.Offsets[i], s.Kind.Width()
		s.Kind.Merge(dst[off:off+w], src[off:off+w])
	}
}

// grow doubles every block and the fill limit, as Grow does.
func (r *refTable) grow() {
	r.blockRows *= 2
	r.maxRows *= 2
}

// requireCounts checks tb's groups, absorbed rows and fill limit against r.
func (r *refTable) requireCounts(t *testing.T, tb *Table) {
	t.Helper()
	if tb.Len() != len(r.groups) || tb.RowsIn() != r.rowsIn || tb.MaxRows() != r.maxRows {
		t.Fatalf("table holds %d groups of %d rows, fill limit %d; reference %d of %d, limit %d",
			tb.Len(), tb.RowsIn(), tb.MaxRows(), len(r.groups), r.rowsIn, r.maxRows)
	}
}

// requireSplit checks the runs of a split against r's groups, each in the
// run of its block, and empties r as the split empties the table.
func (r *refTable) requireSplit(t *testing.T, split []*runs.Run) {
	t.Helper()
	if len(split) != r.blocks {
		t.Fatalf("split into %d runs, want one per block (%d)", len(split), r.blocks)
	}
	seen := 0
	for b, run := range split {
		if run == nil {
			continue
		}
		if err := run.Validate(r.lay.Words); err != nil {
			t.Fatal(err)
		}
		for i, h := range run.Keys {
			want, ok := r.groups[h]
			if !ok || r.block(h) != b {
				t.Fatalf("hash %#x in the run of block %d: block %d, in the reference %v", h, b, r.block(h), ok)
			}
			for w := range want {
				if run.States[w][i] != want[w] {
					t.Fatalf("hash %#x word %d: state %#x, reference %#x", h, w, run.States[w][i], want[w])
				}
			}
			seen++
		}
		if run.Len() == 0 {
			t.Fatalf("block %d split into an empty run", b)
		}
	}
	if seen != len(r.groups) {
		t.Fatalf("split %d groups, reference holds %d", seen, len(r.groups))
	}
	clear(r.groups)
	clear(r.perBlock)
	r.rowsIn = 0
}

// drain feeds the rows of keys through batch in batches of the cycled
// sizes, and the same rows one at a time through the reference's one.
// Every batch must absorb exactly the rows the reference takes. On a short
// count the table grows or splits as m says and the batch resumes at the
// first row it did not take; every split, and the final one, must hand
// back the reference's groups.
func drain(t *testing.T, tb *Table, ref *refTable, keys []uint64, sizes []int, m onShort,
	batch func(hs []uint64, lo int) int, one func(h uint64, row int) bool) {
	t.Helper()
	hs := make([]uint64, len(keys))
	hashfn.HashBatch(keys, hs)
	for i, si := 0, 0; i < len(keys); si++ {
		blk := min(sizes[si%len(sizes)], len(keys)-i)
		for done := 0; ; {
			want := done
			for want < blk && one(hs[i+want], i+want) {
				want++
			}
			if got := done + batch(hs[i+done:i+blk], i+done); got != want {
				t.Fatalf("%v: batch of rows %d..%d absorbed up to row %d, reference up to %d",
					m, i+done, i+blk, i+got, i+want)
			}
			ref.requireCounts(t, tb)
			if done = want; done == blk {
				break
			}
			if m != split && tb.CapacityRows() < growCap {
				if !tb.Grow() {
					t.Fatalf("%v: Grow refused at %d slots", m, tb.CapacityRows())
				}
				ref.grow()
				ref.requireCounts(t, tb)
				continue
			}
			ref.requireSplit(t, tb.SplitRuns())
		}
		i += blk
	}
	ref.requireSplit(t, tb.SplitRuns())
}

// drainRaw drains raw input rows through InsertRawBatch.
func drainRaw(t *testing.T, lay *agg.Layout, keys []uint64, cols [][]int64, sizes []int, m onShort) {
	t.Helper()
	tb := drainTable(lay.Words, m)
	ref := newRef(tb, lay)
	kern := lay.Kernels()
	drain(t, tb, ref, keys, sizes, m,
		func(hs []uint64, lo int) int { return tb.InsertRawBatch(hs, keys[lo:], cols, lo, kern) },
		func(h uint64, row int) bool { return ref.insertRaw(h, cols, row) })
}

// batchSizePatterns are the batch-size schedules the differential tests
// cycle through; the boundary sizes 0, 1, pipelineWidth-1 and pipelineWidth
// exercise the pipelined claim loop's group-edge handling.
var batchSizePatterns = [][]int{
	{1},
	{pipelineWidth - 1},
	{pipelineWidth},
	{0, 1, pipelineWidth - 1, pipelineWidth},
	{3, 17, 256, pipelineWidth + 1},
	{4096},
}

func TestBatchedInsertRawEquivalence(t *testing.T) {
	const n = 6000
	for name, lay := range diffLayouts() {
		for _, dist := range datagen.Dists() {
			t.Run(fmt.Sprintf("%s/%s", name, dist), func(t *testing.T) {
				// K = 2500 exceeds the 1024-row fill limit, so every
				// drain hits the table-full short-count path repeatedly.
				keys := datagen.Generate(datagen.Spec{Dist: dist, N: n, K: 2500, Seed: 11})
				rng := xrand.NewXoshiro256(99)
				cols := [][]int64{make([]int64, n), make([]int64, n)}
				for i := 0; i < n; i++ {
					cols[0][i] = int64(rng.Next()) >> 32
					cols[1][i] = -int64(rng.Next() % 5000)
				}
				for _, sizes := range batchSizePatterns {
					for _, m := range []onShort{split, grow, growInPlace} {
						drainRaw(t, lay, keys, cols, sizes, m)
					}
				}
			})
		}
	}
}

// TestBatchedInsertStateEquivalence checks the state-merge batch path (the
// run-absorption side of the engine) against Kind.Merge.
func TestBatchedInsertStateEquivalence(t *testing.T) {
	const n = 5000
	for name, lay := range diffLayouts() {
		if lay.Words == 0 {
			continue
		}
		t.Run(name, func(t *testing.T) {
			keys := datagen.Generate(datagen.Spec{Dist: datagen.Zipf, N: n, K: 2600, Seed: 5})
			rng := xrand.NewXoshiro256(42)
			states := make([][]uint64, lay.Words)
			for w := range states {
				states[w] = make([]uint64, n)
				for i := range states[w] {
					states[w][i] = rng.Next()
				}
			}
			kern := lay.Kernels()
			for _, sizes := range batchSizePatterns {
				for _, m := range []onShort{split, grow, growInPlace} {
					tb := drainTable(lay.Words, m)
					ref := newRef(tb, lay)
					drain(t, tb, ref, keys, sizes, m,
						func(hs []uint64, lo int) int { return tb.InsertStateBatch(hs, nil, states, lo, kern) },
						func(h uint64, row int) bool { return ref.insertState(h, states, row) })
				}
			}
		})
	}
}

// TestHashIsTheGroup: the table compares hashes only. Rows under one
// forced hash are one group whatever keys they come with, in both batch
// inserts, and the group's emitted key is the hash's Murmur2 inverse. The
// operator never hands the table two keys with one hash: Murmur2 is a
// bijection on uint64 keys, so distinct keys get distinct hashes and
// groups of their own.
func TestHashIsTheGroup(t *testing.T) {
	lay := agg.NewLayout([]agg.Spec{{Kind: agg.Count}, {Kind: agg.Sum, Col: 0}})
	kern := lay.Kernels()
	const n = 60
	const forced = uint64(0xDEADBEEFCAFEF00D)
	keys := make([]uint64, n)
	vals := make([]int64, n)
	hs := make([]uint64, n)
	var sum uint64
	for i := range keys {
		keys[i] = uint64(i%5) * 1000003
		vals[i] = int64(i)
		hs[i] = forced
		sum += uint64(i)
	}
	cfg := Config{CapacityRows: 2048, Blocks: 16, Words: lay.Words}
	raw := New(cfg)
	if m := raw.InsertRawBatch(hs, keys, [][]int64{vals}, 0, kern); m != n {
		t.Fatalf("InsertRawBatch absorbed %d of %d rows", m, n)
	}
	if st, ok := lookup(raw, forced); raw.Len() != 1 || !ok || st[0] != n || st[1] != sum {
		t.Fatalf("raw: %d groups, forced hash holds %v (found %v), want count %d sum %d", raw.Len(), st, ok, n, sum)
	}
	eh, ek := make([]uint64, 1), make([]uint64, 1)
	es := [][]uint64{make([]uint64, 1), make([]uint64, 1)}
	raw.EmitColumns(eh, ek, es)
	if eh[0] != forced || ek[0] != hashfn.Murmur2Inverse(forced) || hashfn.Murmur2(ek[0]) != forced {
		t.Fatalf("emitted hash %#x key %#x, want %#x and its inverse", eh[0], ek[0], forced)
	}

	// Merging the emitted row twice, with no keys at all, doubles the state.
	merged := New(cfg)
	for range 2 {
		if m := merged.InsertStateBatch(eh, nil, es, 0, kern); m != 1 {
			t.Fatalf("InsertStateBatch absorbed %d of 1 rows", m)
		}
	}
	if st, ok := lookup(merged, forced); merged.Len() != 1 || !ok || st[0] != 2*n || st[1] != 2*sum {
		t.Fatalf("merged: %d groups, forced hash holds %v (found %v)", merged.Len(), st, ok)
	}

	// The real hashes of the five keys keep them apart.
	hashfn.HashBatch(keys, hs)
	apart := New(cfg)
	if m := apart.InsertRawBatch(hs, nil, [][]int64{vals}, 0, kern); m != n || apart.Len() != 5 {
		t.Fatalf("real hashes: absorbed %d of %d rows into %d groups, want 5", m, n, apart.Len())
	}
}

// TestEmitColumnsMatchesEmit checks the batched output gather against a
// walk of the slots in order, emitting each occupied one (the reference
// order: blocks in order), and the emitted rows against the map reference.
func TestEmitColumnsMatchesEmit(t *testing.T) {
	lay := agg.NewLayout([]agg.Spec{{Kind: agg.Sum, Col: 0}, {Kind: agg.Avg, Col: 0}})
	kern := lay.Kernels()
	const n = 3000
	keys := datagen.Generate(datagen.Spec{Dist: datagen.Uniform, N: n, K: 500, Seed: 3})
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i) - 1500
	}
	cols := [][]int64{vals}
	tb := diffTable(lay.Words)
	ref := newRef(tb, lay)
	hs := make([]uint64, n)
	hashfn.HashBatch(keys, hs)
	if m := tb.InsertRawBatch(hs, keys, cols, 0, kern); m != n {
		t.Fatalf("table filled after %d rows; test wants a no-split table", m)
	}
	for i, h := range hs {
		ref.insertRaw(h, cols, i)
	}

	var wantH []uint64
	var wantS [][]uint64
	for s, v := range tb.version {
		if v != tb.epoch {
			continue
		}
		row := make([]uint64, tb.words)
		for w := range row {
			row[w] = tb.states[w][s]
		}
		wantH, wantS = append(wantH, tb.hashes[s]), append(wantS, row)
	}

	gotH := make([]uint64, tb.Len())
	gotK := make([]uint64, tb.Len())
	gotS := [][]uint64{make([]uint64, tb.Len()), make([]uint64, tb.Len()), make([]uint64, tb.Len())}
	tb.EmitColumns(gotH, gotK, gotS)
	// A nil key column skips the recovery and leaves the rest unchanged.
	nilH := make([]uint64, tb.Len())
	nilS := [][]uint64{make([]uint64, tb.Len()), make([]uint64, tb.Len()), make([]uint64, tb.Len())}
	tb.EmitColumns(nilH, nil, nilS)

	if len(wantH) != tb.Len() || len(ref.groups) != tb.Len() {
		t.Fatalf("walk found %d rows, reference %d groups, Len() = %d", len(wantH), len(ref.groups), tb.Len())
	}
	for i := range wantH {
		if gotH[i] != wantH[i] || nilH[i] != wantH[i] || hashfn.Murmur2(gotK[i]) != gotH[i] {
			t.Fatalf("row %d: hash/key mismatch", i)
		}
		want := ref.groups[gotH[i]]
		for w := range wantS[i] {
			if gotS[w][i] != wantS[i][w] || nilS[w][i] != wantS[i][w] || gotS[w][i] != want[w] {
				t.Fatalf("row %d word %d: state mismatch", i, w)
			}
		}
	}
}

// TestBatchedIntakeAllocFree pins the steady-state morsel loop — morsel-wide
// hashing plus batch insert into a warm, non-splitting table — as
// allocation-free (the batch scratch is claimed on first use and reused).
func TestBatchedIntakeAllocFree(t *testing.T) {
	lay := agg.NewLayout([]agg.Spec{{Kind: agg.Sum, Col: 0}})
	kern := lay.Kernels()
	const n = 4096
	keys := datagen.Generate(datagen.Spec{Dist: datagen.Uniform, N: n, K: 300, Seed: 1})
	vals := make([]int64, n)
	cols := [][]int64{vals}
	hs := make([]uint64, n)
	tb := diffTable(lay.Words)
	// Warm up: first insert grows the slot scratch.
	hashfn.HashBatch(keys, hs)
	if m := tb.InsertRawBatch(hs, keys, cols, 0, kern); m != n {
		t.Fatalf("warm-up insert absorbed %d of %d rows", m, n)
	}
	avg := testing.AllocsPerRun(10, func() {
		hashfn.HashBatch(keys, hs)
		if m := tb.InsertRawBatch(hs, keys, cols, 0, kern); m != n {
			t.Fatalf("insert absorbed %d of %d rows", m, n)
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state morsel loop allocates %.1f objects per batch, want 0", avg)
	}
}

// FuzzBatchedInsertEquivalence drives the raw batch path with fuzz-chosen
// distribution, key domain, batch schedule and reaction to a short count,
// against the reference model.
func FuzzBatchedInsertEquivalence(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint16(100), uint8(1), uint8(5))
	f.Add(uint64(2), uint8(3), uint16(2000), uint8(7), uint8(0))
	f.Add(uint64(3), uint8(6), uint16(1), uint8(8), uint8(64))
	f.Fuzz(func(t *testing.T, seed uint64, distSel uint8, k uint16, s1, s2 uint8) {
		dists := datagen.Dists()
		dist := dists[int(distSel)%len(dists)]
		n := 3000
		keys := datagen.Generate(datagen.Spec{Dist: dist, N: n, K: uint64(k) + 1, Seed: seed})
		rng := xrand.NewXoshiro256(seed ^ 0xabcdef)
		cols := [][]int64{make([]int64, n), make([]int64, n)}
		for i := range cols[0] {
			cols[0][i] = int64(rng.Next()) >> 40
			cols[1][i] = int64(rng.Next()) >> 50
		}
		lays := diffLayouts()
		names := []string{"distinct", "count", "sum", "min", "max", "avg", "multi"}
		lay := lays[names[int(seed%uint64(len(names)))]]
		sizes := []int{int(s1), int(s2)}
		if sizes[0] == 0 && sizes[1] == 0 {
			sizes = []int{1}
		}
		drainRaw(t, lay, keys, cols, sizes, onShort(seed/uint64(len(names))%3))
	})
}
