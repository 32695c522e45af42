package hashtable

import (
	"fmt"
	"testing"
	"testing/quick"

	"cacheagg/internal/agg"
	"cacheagg/internal/hashfn"
	"cacheagg/internal/xrand"
)

func newSmall(words, level int) *Table {
	return New(Config{CapacityRows: 4096, Blocks: 16, Words: words, Level: level})
}

// distinctKern is the kernel set of a layout with no aggregates.
var distinctKern = agg.NewLayout(nil).Kernels()

// insertHash inserts one row of hash h into a table of width 0 and reports
// whether it fit.
func insertHash(t *Table, h uint64) bool {
	return t.InsertStateBatch([]uint64{h}, nil, nil, 0, distinctKern) == 1
}

// lookup returns a copy of the state of hash h's group and whether t holds
// it, found by a scan of every slot rather than by the probe.
func lookup(t *Table, h uint64) ([]uint64, bool) {
	for s, v := range t.version {
		if v == t.epoch && t.hashes[s] == h {
			st := make([]uint64, t.words)
			for w := range st {
				st[w] = t.states[w][s]
			}
			return st, true
		}
	}
	return nil, false
}

// occupied counts the slots a scan up to the logical end finds occupied.
func occupied(t *Table) int {
	n := 0
	for _, v := range t.version {
		if v == t.epoch {
			n++
		}
	}
	return n
}

func TestNewRoundsCapacity(t *testing.T) {
	tb := New(Config{CapacityRows: 1000, Blocks: 16})
	if tb.CapacityRows() != 1024 {
		t.Fatalf("capacity = %d, want 1024", tb.CapacityRows())
	}
	tb = New(Config{CapacityRows: 1, Blocks: 256})
	if tb.CapacityRows() != 256*MinBlockRows {
		t.Fatalf("capacity = %d, want %d", tb.CapacityRows(), 256*MinBlockRows)
	}
}

func TestNewPanicsOnBadBlocks(t *testing.T) {
	for _, blocks := range []int{0, -1, 3, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("blocks=%d: expected panic", blocks)
				}
			}()
			New(Config{CapacityRows: 64, Blocks: blocks})
		}()
	}
}

func TestNewPanicsOnBadLevel(t *testing.T) {
	for _, level := range []int{-1, 8, 99} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("level=%d: expected panic", level)
				}
			}()
			New(Config{CapacityRows: 64, Blocks: 16, Level: level})
		}()
	}
}

func TestInsertRawAndLookup(t *testing.T) {
	lay := agg.NewLayout([]agg.Spec{{Kind: agg.Count}, {Kind: agg.Sum, Col: 0}})
	tb := newSmall(lay.Words, 0)
	hs := make([]uint64, 100)
	vals := make([]int64, 100)
	for i := range hs {
		hs[i] = hashfn.Murmur2(uint64(i % 10)) // 10 groups, 10 rows each
		vals[i] = int64(i)
	}
	if m := tb.InsertRawBatch(hs, nil, [][]int64{vals}, 0, lay.Kernels()); m != 100 {
		t.Fatalf("unexpected full at row %d", m)
	}
	if tb.Len() != 10 {
		t.Fatalf("Len = %d, want 10", tb.Len())
	}
	if tb.RowsIn() != 100 {
		t.Fatalf("RowsIn = %d, want 100", tb.RowsIn())
	}
	if got := tb.Alpha(); got != 10 {
		t.Fatalf("Alpha = %v, want 10", got)
	}
	// Group k received values k, k+10, ..., k+90: count 10, sum 10k+450.
	for k := uint64(0); k < 10; k++ {
		st, ok := lookup(tb, hashfn.Murmur2(k))
		if !ok {
			t.Fatalf("group %d missing", k)
		}
		if st[0] != 10 || int64(st[1]) != int64(k)*10+450 {
			t.Fatalf("group %d state = %v", k, st)
		}
	}
	if _, ok := lookup(tb, hashfn.Murmur2(999)); ok {
		t.Fatal("phantom key found")
	}
}

func TestInsertStateMergesSuperAggregate(t *testing.T) {
	lay := agg.NewLayout([]agg.Spec{{Kind: agg.Count}})
	tb := newSmall(lay.Words, 0)
	h := hashfn.Murmur2(7)
	if tb.InsertStateBatch([]uint64{h, h}, nil, [][]uint64{{3, 4}}, 0, lay.Kernels()) != 2 {
		t.Fatal("insert or merge failed")
	}
	st, _ := lookup(tb, h)
	if st[0] != 7 {
		t.Fatalf("COUNT super-aggregate gave %d, want 7", st[0])
	}
	if tb.Len() != 1 || tb.RowsIn() != 2 {
		t.Fatalf("Len=%d RowsIn=%d", tb.Len(), tb.RowsIn())
	}
}

func TestFillLimitReportsFull(t *testing.T) {
	tb := New(Config{CapacityRows: 1024, Blocks: 16, Words: 0, MaxFill: 0.25})
	rng := xrand.NewXoshiro256(3)
	inserted := 0
	for {
		key := rng.Next()
		if !insertHash(tb, hashfn.Murmur2(key)) {
			break
		}
		inserted++
		if inserted > tb.MaxRows()+1 {
			t.Fatalf("table accepted %d rows beyond MaxRows %d", inserted, tb.MaxRows())
		}
	}
	if inserted != tb.MaxRows() {
		t.Fatalf("inserted %d distinct keys, expected exactly MaxRows %d", inserted, tb.MaxRows())
	}
	if tb.Len() != tb.MaxRows() {
		t.Fatalf("Len() = %d at the fill limit, want MaxRows %d", tb.Len(), tb.MaxRows())
	}
	// Existing groups still merge fine when full.
	hs, _, _ := emitAll(tb)
	if !insertHash(tb, hs[0]) {
		t.Fatal("merge into full table must still succeed for existing keys")
	}
}

func TestBlockExhaustionReportsFull(t *testing.T) {
	// Force all keys into one block by crafting hashes with identical top
	// digit; with MaxFill=1 the block itself must overflow.
	tb := New(Config{CapacityRows: 256, Blocks: 16, MaxFill: 1})
	blockRows := tb.CapacityRows() / 16
	var rejected bool
	for i := 0; ; i++ {
		h := uint64(i) // top digit 0 for small i → all in block 0
		if !insertHash(tb, h) {
			rejected = true
			break
		}
		if i > blockRows {
			t.Fatalf("block accepted %d rows, capacity %d", i+1, blockRows)
		}
	}
	if !rejected {
		t.Fatal("expected rejection")
	}
	if tb.Len() != blockRows {
		t.Fatalf("Len = %d, want %d (one full block)", tb.Len(), blockRows)
	}
}

func TestSplitRunsPartitionsByDigit(t *testing.T) {
	tb := New(Config{CapacityRows: 4096, Blocks: 16, Words: 1, Level: 0})
	lay := agg.NewLayout([]agg.Spec{{Kind: agg.Sum, Col: 0}})
	rng := xrand.NewXoshiro256(7)
	type row struct{ h, k, v uint64 }
	var rows []row
	for i := 0; i < 500; i++ {
		k := rng.Next() % 400
		h := hashfn.Murmur2(k)
		v := rng.Next() % 1000
		rows = append(rows, row{h, k, v})
		if tb.InsertRawBatch([]uint64{h}, nil, [][]int64{{int64(v)}}, 0, lay.Kernels()) != 1 {
			t.Fatalf("unexpected full at %d", i)
		}
	}
	want := map[uint64]int64{} // key → sum
	for _, r := range rows {
		want[r.k] += int64(r.v)
	}

	splits := tb.SplitRuns()
	if len(splits) != 16 {
		t.Fatalf("got %d split slots", len(splits))
	}
	total := 0
	got := map[uint64]int64{}
	for digit, r := range splits {
		if r == nil {
			continue
		}
		if err := r.Validate(1); err != nil {
			t.Fatal(err)
		}
		for i, h := range r.Keys {
			// Runs carry the hash. Every row must be in the block matching
			// its level-0 digit, masked to the table's 16 blocks.
			if d := int(h >> 56 & 15); d != digit {
				t.Fatalf("hash %#x in block %d, digit %d", h, digit, d)
			}
			k := hashfn.Murmur2Inverse(h)
			if _, dup := got[k]; dup {
				t.Fatalf("key %d duplicated across split", k)
			}
			got[k] = int64(r.States[0][i])
			total++
		}
	}
	if total != len(want) {
		t.Fatalf("split has %d groups, want %d", total, len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("group %d sum = %d, want %d", k, got[k], v)
		}
	}
	// Table must be reset after split.
	if tb.Len() != 0 || tb.RowsIn() != 0 {
		t.Fatal("table not reset after SplitRuns")
	}
}

func TestSplitRunsRespectsLevel(t *testing.T) {
	// At level 1 the block must be derived from the SECOND radix digit.
	tb := New(Config{CapacityRows: 4096, Blocks: 256, Words: 0, Level: 1})
	h := uint64(0xAB_CD_000000000000) // digit0=0xAB, digit1=0xCD
	if !insertHash(tb, h) {
		t.Fatal("insert failed")
	}
	splits := tb.SplitRuns()
	for d, r := range splits {
		if r == nil {
			continue
		}
		if d != 0xCD {
			t.Fatalf("row landed in block %#x, want 0xCD", d)
		}
	}
}

func TestResetEpoch(t *testing.T) {
	tb := newSmall(0, 0)
	for i := uint64(0); i < 100; i++ {
		insertHash(tb, hashfn.Murmur2(i))
	}
	tb.Reset()
	if tb.Len() != 0 {
		t.Fatalf("Len after reset = %d", tb.Len())
	}
	if _, ok := lookup(tb, hashfn.Murmur2(5)); ok {
		t.Fatal("stale row visible after reset")
	}
	// Reuse works.
	if !insertHash(tb, hashfn.Murmur2(5)) {
		t.Fatal("insert after reset failed")
	}
	if tb.Len() != 1 {
		t.Fatalf("Len = %d", tb.Len())
	}
}

func TestResetEpochWrap(t *testing.T) {
	tb := New(Config{CapacityRows: 64, Blocks: 16})
	tb.epoch = ^uint8(0) // force wrap on next Reset
	insertHash(tb, hashfn.Murmur2(1))
	tb.Reset()
	if tb.epoch != 1 {
		t.Fatalf("epoch after wrap = %d, want 1", tb.epoch)
	}
	if _, ok := lookup(tb, hashfn.Murmur2(1)); ok {
		t.Fatal("stale row visible after epoch wrap")
	}
}

// TestAgainstMapReference: property test — inserting any sequence of
// (key, value) pairs through the raw batch insert and emitting must
// reproduce exactly the map-based reference aggregation, for every
// aggregate kind.
func TestAgainstMapReference(t *testing.T) {
	kinds := []agg.Kind{agg.Count, agg.Sum, agg.Min, agg.Max, agg.Avg}
	f := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw)%800 + 1
		rng := xrand.NewXoshiro256(seed)
		for _, kind := range kinds {
			lay := agg.NewLayout([]agg.Spec{{Kind: kind, Col: 0}})
			tb := New(Config{CapacityRows: 8192, Blocks: 16, Words: lay.Words})
			ref := map[uint64][]uint64{}
			hs, vals := make([]uint64, n), make([]int64, n)
			for i := range hs {
				k := rng.Next() % 64
				v := int64(rng.Next()%4001) - 2000
				hs[i], vals[i] = hashfn.Murmur2(k), v
				if st, ok := ref[k]; ok {
					kind.Fold(st, v)
				} else {
					st := make([]uint64, kind.Width())
					kind.Init(st, v)
					ref[k] = st
				}
			}
			if tb.InsertRawBatch(hs, nil, [][]int64{vals}, 0, lay.Kernels()) != n || tb.Len() != len(ref) {
				return false
			}
			_, keys, states := emitAll(tb)
			for j, k := range keys {
				want, ok := ref[k]
				if !ok {
					return false
				}
				for w := range want {
					if states[w][j] != want[w] {
						return false
					}
				}
				delete(ref, k)
			}
			if len(ref) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestZeroHashKey(t *testing.T) {
	// hash 0 / key 0 must be storable (no sentinel confusion).
	tb := newSmall(0, 0)
	if !insertHash(tb, 0) {
		t.Fatal("insert of zero hash/key failed")
	}
	if _, ok := lookup(tb, 0); !ok {
		t.Fatal("zero key not found")
	}
	if tb.Len() != 1 {
		t.Fatalf("Len = %d", tb.Len())
	}
}

func TestCapacityForCache(t *testing.T) {
	c := CapacityForCache(1<<20, 0) // 1 MiB, 9-byte slots → 116508 → pow2 down: 65536
	if c != 65536 {
		t.Fatalf("CapacityForCache = %d, want 65536", c)
	}
	if CapacityForCache(1, 4) != 1 {
		t.Fatal("tiny cache should clamp to 1")
	}
	// More words → fewer slots.
	if CapacityForCache(1<<20, 4) >= CapacityForCache(1<<20, 0) {
		t.Fatal("capacity should shrink with wider states")
	}
}

func TestSlotBytes(t *testing.T) {
	// hash + states + version: the hash is the group, so no key column.
	if SlotBytes(0) != 9 || SlotBytes(2) != 25 {
		t.Fatalf("SlotBytes wrong: %d %d", SlotBytes(0), SlotBytes(2))
	}
}

// TestSplitRunsCarryTheHash: split runs hold each group's hash in their
// Keys column, its digit at the table's level is the block the group was
// split from, and it inverts to the inserted key.
func TestSplitRunsCarryTheHash(t *testing.T) {
	tb := New(Config{CapacityRows: 4096, Blocks: 16, Level: 1})
	for i := uint64(0); i < 100; i++ {
		if !insertHash(tb, hashfn.Murmur2(i)) {
			t.Fatal("insert failed")
		}
	}
	seen := map[uint64]bool{}
	for block, r := range tb.SplitRuns() {
		if r == nil {
			continue
		}
		if err := r.Validate(0); err != nil {
			t.Fatal(err)
		}
		for _, h := range r.Keys {
			k := hashfn.Murmur2Inverse(h)
			if d := hashfn.Digit(h, 1) & 15; d != block || k >= 100 || seen[k] {
				t.Fatalf("hash %#x (key %d) split into block %d, digit %d, seen before %v", h, k, block, d, seen[k])
			}
			seen[k] = true
		}
	}
	if len(seen) != 100 {
		t.Fatalf("split %d groups, want 100", len(seen))
	}
}

// TestInsertColsAgainstKindAPI: for every aggregate kind, folding raw
// columns through InsertRawBatch must agree with the Kind API's Init and
// Fold, and merging the emitted states twice through InsertStateBatch with
// its Merge.
func TestInsertColsAgainstKindAPI(t *testing.T) {
	specs := []agg.Spec{{Kind: agg.Count}, {Kind: agg.Sum, Col: 0}, {Kind: agg.Min, Col: 1},
		{Kind: agg.Max, Col: 0}, {Kind: agg.Avg, Col: 1}}
	lay := agg.NewLayout(specs)
	kern := lay.Kernels()
	rng := xrand.NewXoshiro256(17)

	const n = 500
	cols := [][]int64{make([]int64, n), make([]int64, n)}
	hs := make([]uint64, n)
	ref := map[uint64][]uint64{}
	for i := range hs {
		k := rng.Next() % 40
		cols[0][i] = int64(rng.Next()%999) - 500
		cols[1][i] = int64(rng.Next()%999) - 500
		hs[i] = hashfn.Murmur2(k)
		val := func(c int) int64 { return cols[c][i] }
		if st, ok := ref[k]; ok {
			lay.FoldRow(st, val)
		} else {
			st = make([]uint64, lay.Words)
			lay.InitRow(st, val)
			ref[k] = st
		}
	}
	raw := New(Config{CapacityRows: 4096, Blocks: 16, Words: lay.Words})
	if m := raw.InsertRawBatch(hs, nil, cols, 0, kern); m != n {
		t.Fatalf("raw insert absorbed %d of %d rows", m, n)
	}
	eh, ek, es := emitAll(raw)
	merged := New(Config{CapacityRows: 4096, Blocks: 16, Words: lay.Words})
	for range 2 {
		if m := merged.InsertStateBatch(eh, nil, es, 0, kern); m != len(eh) {
			t.Fatalf("state merge absorbed %d of %d rows", m, len(eh))
		}
	}
	if raw.Len() != len(ref) || merged.Len() != len(ref) {
		t.Fatalf("%d raw and %d merged groups, want %d", raw.Len(), merged.Len(), len(ref))
	}
	for j, k := range ek {
		want := ref[k]
		twice := append([]uint64(nil), want...)
		mergeRow(lay, twice, want)
		got, _ := lookup(merged, eh[j])
		for w := range want {
			if es[w][j] != want[w] || got[w] != twice[w] {
				t.Fatalf("key %d word %d: raw %d merged %d, want %d and %d", k, w, es[w][j], got[w], want[w], twice[w])
			}
		}
	}
}

// TestGrowWithoutLoss drives a table from its smallest legal size through
// every doubling a short count forces, along both of Grow's paths: in an
// allocation of exactly its capacity, where Grow allocates the doubled
// columns, and in a large allocation, where the rows move in place. The
// large allocation holds stale rows past the logical end, and its epoch
// starts near the wrap, so the moves also renumber the versions. Every
// grown table is checked against the table that re-inserting its emitted
// rows builds (same rows in the same slots), and the last one against a
// map reference.
func TestGrowWithoutLoss(t *testing.T) {
	lay := agg.NewLayout([]agg.Spec{
		{Kind: agg.Count}, {Kind: agg.Sum, Col: 0}, {Kind: agg.Min, Col: 0},
		{Kind: agg.Max, Col: 0}, {Kind: agg.Avg, Col: 0},
	})
	kern := lay.Kernels()
	for _, cfg := range []Config{
		{Blocks: 1, MaxFill: 0.5},
		{Blocks: 4, MaxFill: 0.25, Level: 1},
		{Blocks: 256, MaxFill: 0.25},
	} {
		cfg.Words = lay.Words
		floor := cfg.Blocks * MinBlockRows
		for _, inPlace := range []bool{false, true} {
			label := fmt.Sprintf("blocks %d in place %v", cfg.Blocks, inPlace)
			cfg.CapacityRows = floor
			if inPlace {
				cfg.CapacityRows = 1 << 16
			}
			tb := New(cfg)
			if inPlace {
				stale := 0
				for k := uint64(1 << 40); stale < tb.MaxRows()/2; k++ {
					if tb.InsertRawBatch([]uint64{hashfn.Murmur2(k)}, nil, [][]int64{{0}}, 0, kern) == 1 {
						stale++
					}
				}
				for range 250 {
					tb.Reset()
				}
				tb.ResetCapacity(floor)
			}
			rng := xrand.NewXoshiro256(uint64(cfg.Blocks))
			const n = 5000
			keys := make([]uint64, n)
			vals := make([]int64, n)
			for i := range keys {
				keys[i] = rng.Next() % 1500
				vals[i] = int64(rng.Next()%4001) - 2000
			}
			hashes := make([]uint64, n)
			hashfn.HashBatch(keys, hashes)
			cols := [][]int64{vals}
			grows := 0
			for i := 0; i < n; {
				i += tb.InsertRawBatch(hashes[i:], keys[i:], cols, i, kern)
				if i == n {
					break
				}
				before, footprint, capRows, limit := tb.Len(), tb.FootprintBytes(), tb.CapacityRows(), tb.MaxRows()
				eh, ek, es := emitAll(tb)
				if !tb.Grow() {
					t.Fatalf("%s: Grow refused at %d slots", label, capRows)
				}
				grows++
				wantFootprint := 2 * footprint
				if inPlace {
					wantFootprint = footprint
				}
				if tb.CapacityRows() != 2*capRows || tb.FootprintBytes() != wantFootprint || tb.MaxRows() != 2*limit {
					t.Fatalf("%s: grew %d slots / %d B / fill %d into %d / %d / %d", label,
						capRows, footprint, limit, tb.CapacityRows(), tb.FootprintBytes(), tb.MaxRows())
				}
				// The moved table is the one re-inserting the emitted rows
				// builds: same rows in the same slots.
				ref := New(Config{CapacityRows: 2 * capRows, Blocks: cfg.Blocks, MaxFill: cfg.MaxFill,
					Words: cfg.Words, Level: cfg.Level})
				if m := ref.InsertStateBatch(eh, ek, es, 0, kern); m != before {
					t.Fatalf("%s: reference re-insert absorbed %d of %d rows", label, m, before)
				}
				gh, gk, gs := emitAll(tb)
				rh, rk, rs := emitAll(ref)
				for j := range gk {
					if gh[j] != rh[j] || gk[j] != rk[j] {
						t.Fatalf("%s: row %d moved to a different slot than a re-insert puts it", label, j)
					}
					for w := range gs {
						if gs[w][j] != rs[w][j] {
							t.Fatalf("%s: row %d word %d differs from the re-insert", label, j, w)
						}
					}
				}
				if tb.Len() != before || tb.RowsIn() != i {
					t.Fatalf("%s: groups %d -> %d, rowsIn %d want %d", label, before, tb.Len(), tb.RowsIn(), i)
				}
			}
			if grows < 2 {
				t.Fatalf("%s: only %d doublings from the smallest table", label, grows)
			}
			ref := map[uint64][]uint64{}
			for i, k := range keys {
				st, ok := ref[k]
				if !ok {
					st = make([]uint64, lay.Words)
					lay.InitRow(st, func(int) int64 { return vals[i] })
					ref[k] = st
					continue
				}
				lay.FoldRow(st, func(int) int64 { return vals[i] })
			}
			if tb.Len() != len(ref) {
				t.Fatalf("%s: %d groups, want %d", label, tb.Len(), len(ref))
			}
			for k, want := range ref {
				got, ok := lookup(tb, hashfn.Murmur2(k))
				if !ok {
					t.Fatalf("%s: key %d lost", label, k)
				}
				for w := range want {
					if got[w] != want[w] {
						t.Fatalf("%s: key %d word %d = %d, want %d", label, k, w, got[w], want[w])
					}
				}
			}
		}
	}
}

// TestGrowRefusesAtTheCap: a table whose logical capacity is MaxSlots does
// not grow. Grow reports false and leaves the rows, the absorbed-row count,
// the capacity and the footprint as they were. The test sets the capacity
// field in place of a 2^31-slot allocation; Grow refuses before it reads
// anything else.
func TestGrowRefusesAtTheCap(t *testing.T) {
	kern := agg.NewLayout([]agg.Spec{{Kind: agg.Sum, Col: 0}}).Kernels()
	tb := New(Config{CapacityRows: 4096, Blocks: 16, Words: 1})
	hs := []uint64{hashfn.Murmur2(1), hashfn.Murmur2(2), hashfn.Murmur2(1)}
	if m := tb.InsertRawBatch(hs, nil, [][]int64{{5, 6, 7}}, 0, kern); m != 3 {
		t.Fatalf("insert absorbed %d of 3 rows", m)
	}
	tb.capRows = MaxSlots
	rows, rowsIn, footprint := tb.Len(), tb.RowsIn(), tb.FootprintBytes()
	wantH, _, wantS := emitAll(tb)
	if tb.Grow() {
		t.Fatal("Grow at MaxSlots reported success")
	}
	if tb.Len() != rows || tb.RowsIn() != rowsIn || tb.FootprintBytes() != footprint || tb.CapacityRows() != MaxSlots {
		t.Fatalf("refused Grow changed the table: %d rows of %d, %d B, %d slots; was %d of %d, %d B, %d slots",
			tb.Len(), tb.RowsIn(), tb.FootprintBytes(), tb.CapacityRows(), rows, rowsIn, footprint, MaxSlots)
	}
	gotH, _, gotS := emitAll(tb)
	for j := range wantH {
		if gotH[j] != wantH[j] || gotS[0][j] != wantS[0][j] {
			t.Fatalf("refused Grow moved row %d", j)
		}
	}
}

// TestGrowInPlaceAllocatesNothing: growing within the allocation moves the
// rows and allocates nothing, for a blocked and an unblocked table.
func TestGrowInPlaceAllocatesNothing(t *testing.T) {
	kern := agg.NewLayout([]agg.Spec{{Kind: agg.Count}}).Kernels()
	hs := make([]uint64, 1)
	for _, blocks := range []int{1, 256} {
		tb := New(Config{CapacityRows: 1 << 14, Blocks: blocks, Words: 1})
		fill := func() {
			tb.ResetCapacity(blocks * MinBlockRows)
			for k := uint64(0); k < uint64(tb.MaxRows()); k++ {
				hs[0] = hashfn.Murmur2(k)
				for tb.InsertRawBatch(hs, nil, nil, 0, kern) == 0 {
					tb.Grow()
				}
			}
			tb.Grow()
		}
		if avg := testing.AllocsPerRun(10, fill); avg != 0 {
			t.Fatalf("blocks %d: in-place growth allocates %.0f times", blocks, avg)
		}
	}
}

// TestGrowInPlaceMatchesReallocation fills small tables up to a full block
// (fill rate 1, so clusters wrap around their block's end), then grows one
// copy in a large allocation and one in an exact one: both must hold the
// same rows in the same slots. Wrapped clusters are where a row's slot in
// the doubled block still holds a row that has not moved.
func TestGrowInPlaceMatchesReallocation(t *testing.T) {
	kern := agg.NewLayout([]agg.Spec{{Kind: agg.Sum, Col: 0}}).Kernels()
	rng := xrand.NewXoshiro256(7)
	for trial := range 300 {
		blocks := []int{1, 4}[trial%2]
		capRows := blocks * MinBlockRows << (trial / 2 % 3)
		exact := New(Config{CapacityRows: capRows, Blocks: blocks, MaxFill: 1, Words: 1})
		large := New(Config{CapacityRows: 4 * capRows, Blocks: blocks, MaxFill: 1, Words: 1})
		large.ResetCapacity(capRows)
		for {
			hs := []uint64{hashfn.Murmur2(rng.Next())}
			cols := [][]int64{{int64(hs[0] >> 8)}}
			if exact.InsertRawBatch(hs, nil, cols, 0, kern) == 0 {
				break
			}
			large.InsertRawBatch(hs, nil, cols, 0, kern)
		}
		exact.Grow()
		large.Grow()
		eh, _, es := emitAll(exact)
		lh, _, ls := emitAll(large)
		if exact.CapacityRows() != large.CapacityRows() || len(eh) != len(lh) {
			t.Fatalf("trial %d: %d rows in %d slots vs %d rows in %d slots",
				trial, len(eh), exact.CapacityRows(), len(lh), large.CapacityRows())
		}
		for j := range eh {
			if eh[j] != lh[j] || es[0][j] != ls[0][j] {
				t.Fatalf("trial %d (blocks %d, %d slots): row %d differs between the two growths",
					trial, blocks, capRows, j)
			}
		}
	}
}

// emitAll gathers every row of t in slot order.
func emitAll(t *Table) (hashes, keys []uint64, states [][]uint64) {
	hashes, keys = make([]uint64, t.Len()), make([]uint64, t.Len())
	states = make([][]uint64, t.words)
	for w := range states {
		states[w] = make([]uint64, t.Len())
	}
	t.EmitColumns(hashes, keys, states)
	return hashes, keys, states
}

// TestResetCapacityShrinkGrow: the logical capacity follows ResetCapacity
// within the allocation and scans stop at the logical end; stale versions
// past it never show as occupied, also when the epoch wraps while the table
// is small: rows written all over the allocation at epoch 2, a shrink, the
// Resets that wrap the epoch, and a grow back to epoch 2.
func TestResetCapacityShrinkGrow(t *testing.T) {
	kern := agg.NewLayout([]agg.Spec{{Kind: agg.Count}}).Kernels()
	// fill inserts keys [from, from+n) and counts the rows a scan visits.
	fill := func(tb *Table, from, n uint64) int {
		t.Helper()
		for k := from; k < from+n; k++ {
			if tb.InsertRawBatch([]uint64{hashfn.Murmur2(k)}, nil, nil, 0, kern) != 1 {
				t.Fatalf("insert of key %d failed at capacity %d", k, tb.CapacityRows())
			}
		}
		return occupied(tb)
	}
	for resets := 250; resets <= 258; resets++ {
		tb := New(Config{CapacityRows: 4096, Blocks: 16, Words: 1})
		footprint, full := tb.FootprintBytes(), tb.MaxRows()
		tb.Reset()
		fill(tb, 1<<20, 900)
		tb.ResetCapacity(300)
		if tb.CapacityRows() != 512 || tb.MaxRows() != full/8 || tb.FootprintBytes() != footprint {
			t.Fatalf("shrunk table: capacity %d, fill limit %d, footprint %d",
				tb.CapacityRows(), tb.MaxRows(), tb.FootprintBytes())
		}
		if got := fill(tb, 0, 10); got != 10 {
			t.Fatalf("small table visits %d rows, want 10", got)
		}
		for range resets {
			tb.Reset()
		}
		tb.ResetCapacity(4096)
		if tb.CapacityRows() != 4096 || tb.MaxRows() != full || tb.Len() != 0 {
			t.Fatalf("grown table: capacity %d, fill limit %d, %d rows", tb.CapacityRows(), tb.MaxRows(), tb.Len())
		}
		if got := fill(tb, 1<<30, 1); got != 1 {
			t.Fatalf("%d resets: grown table visits %d rows, want 1", resets, got)
		}
	}
	tb := New(Config{CapacityRows: 4096, Blocks: 16, Words: 1})
	if tb.ResetCapacity(1 << 20); tb.CapacityRows() != 4096 {
		t.Fatalf("capacity %d beyond the allocation", tb.CapacityRows())
	}
	if avg := testing.AllocsPerRun(10, func() { tb.ResetCapacity(1000) }); avg != 0 {
		t.Fatalf("ResetCapacity allocates %.0f times", avg)
	}
}
