package hashtable

import (
	"testing"
	"testing/quick"

	"cacheagg/internal/agg"
	"cacheagg/internal/hashfn"
	"cacheagg/internal/xrand"
)

func newSmall(words, level int) *Table {
	return New(Config{CapacityRows: 4096, Blocks: 16, Words: words, Level: level})
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
	vals := func(v int64) func(int) int64 { return func(int) int64 { return v } }

	for i := 0; i < 100; i++ {
		key := uint64(i % 10) // 10 groups, 10 rows each
		h := hashfn.Murmur2(key)
		if !tb.InsertRaw(h, vals(int64(i)), lay) {
			t.Fatalf("unexpected full at row %d", i)
		}
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
		st, ok := tb.Lookup(hashfn.Murmur2(k))
		if !ok {
			t.Fatalf("group %d missing", k)
		}
		if st[0] != 10 || int64(st[1]) != int64(k)*10+450 {
			t.Fatalf("group %d state = %v", k, st)
		}
	}
	if _, ok := tb.Lookup(hashfn.Murmur2(999)); ok || tb.Contains(hashfn.Murmur2(999)) {
		t.Fatal("phantom key found")
	}
	if !tb.Contains(hashfn.Murmur2(3)) {
		t.Fatal("Contains misses group 3")
	}
}

func TestInsertStateMergesSuperAggregate(t *testing.T) {
	lay := agg.NewLayout([]agg.Spec{{Kind: agg.Count}})
	tb := newSmall(lay.Words, 0)
	h := hashfn.Murmur2(7)
	if !tb.InsertState(h, []uint64{3}, lay) {
		t.Fatal("insert failed")
	}
	if !tb.InsertState(h, []uint64{4}, lay) {
		t.Fatal("merge failed")
	}
	st, _ := tb.Lookup(h)
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
		if !tb.InsertState(hashfn.Murmur2(key), nil, nil) {
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
	if !tb.Full() {
		t.Fatal("Full() should report true")
	}
	// Existing groups still merge fine when full.
	// Re-insert the first hash we can find via Emit.
	var anyHash uint64
	found := false
	tb.Emit(func(h, _ uint64, _ []uint64) {
		if !found {
			anyHash = h
			found = true
		}
	})
	if !found {
		t.Fatal("no rows emitted")
	}
	if !tb.InsertState(anyHash, nil, nil) {
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
		if !tb.InsertState(h, nil, nil) {
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
		if !tb.InsertRaw(h, func(int) int64 { return int64(v) }, lay) {
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
	if !tb.InsertState(h, nil, nil) {
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
		tb.InsertState(hashfn.Murmur2(i), nil, nil)
	}
	tb.Reset()
	if tb.Len() != 0 {
		t.Fatalf("Len after reset = %d", tb.Len())
	}
	if _, ok := tb.Lookup(hashfn.Murmur2(5)); ok {
		t.Fatal("stale row visible after reset")
	}
	// Reuse works.
	if !tb.InsertState(hashfn.Murmur2(5), nil, nil) {
		t.Fatal("insert after reset failed")
	}
	if tb.Len() != 1 {
		t.Fatalf("Len = %d", tb.Len())
	}
}

func TestResetEpochWrap(t *testing.T) {
	tb := New(Config{CapacityRows: 64, Blocks: 16})
	tb.epoch = ^uint8(0) // force wrap on next Reset
	tb.InsertState(hashfn.Murmur2(1), nil, nil)
	tb.Reset()
	if tb.epoch != 1 {
		t.Fatalf("epoch after wrap = %d, want 1", tb.epoch)
	}
	if _, ok := tb.Lookup(hashfn.Murmur2(1)); ok {
		t.Fatal("stale row visible after epoch wrap")
	}
}

// TestAgainstMapReference: property test — inserting any sequence of
// (key, value) pairs and emitting must reproduce exactly the map-based
// reference aggregation, for every aggregate kind.
func TestAgainstMapReference(t *testing.T) {
	kinds := []agg.Kind{agg.Count, agg.Sum, agg.Min, agg.Max, agg.Avg}
	f := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw)%800 + 1
		rng := xrand.NewXoshiro256(seed)
		for _, kind := range kinds {
			lay := agg.NewLayout([]agg.Spec{{Kind: kind, Col: 0}})
			tb := New(Config{CapacityRows: 8192, Blocks: 16, Words: lay.Words})
			ref := map[uint64][]uint64{}
			for i := 0; i < n; i++ {
				k := rng.Next() % 64
				v := int64(rng.Next()%4001) - 2000
				h := hashfn.Murmur2(k)
				if !tb.InsertRaw(h, func(int) int64 { return v }, lay) {
					return false
				}
				if st, ok := ref[k]; ok {
					kind.Fold(st, v)
				} else {
					st := make([]uint64, kind.Width())
					kind.Init(st, v)
					ref[k] = st
				}
			}
			if tb.Len() != len(ref) {
				return false
			}
			bad := false
			tb.Emit(func(h, k uint64, st []uint64) {
				want, ok := ref[k]
				if !ok {
					bad = true
					return
				}
				for i := range want {
					if st[i] != want[i] {
						bad = true
					}
				}
				delete(ref, k)
			})
			if bad || len(ref) != 0 {
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
	if !tb.InsertState(0, nil, nil) {
		t.Fatal("insert of zero hash/key failed")
	}
	if _, ok := tb.Lookup(0); !ok {
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

func BenchmarkInsertInCache(b *testing.B) {
	// The paper reports < 6 ns/element for in-cache insertion. This bench
	// measures our equivalent: distinct-count insert into an L3-sized table
	// at low fill.
	tb := New(Config{CapacityRows: 1 << 20, Blocks: 256})
	keys := make([]uint64, 1<<16)
	hs := make([]uint64, len(keys))
	rng := xrand.NewXoshiro256(1)
	for i := range keys {
		keys[i] = rng.Next() % (1 << 14)
		hs[i] = hashfn.Murmur2(keys[i])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i & (len(keys) - 1)
		tb.InsertState(hs[j], nil, nil)
	}
}

// TestSplitRunsCarryTheHash: split runs hold each group's hash in their
// Keys column, its digit at the table's level is the block the group was
// split from, and it inverts to the inserted key.
func TestSplitRunsCarryTheHash(t *testing.T) {
	tb := New(Config{CapacityRows: 4096, Blocks: 16, Level: 1})
	for i := uint64(0); i < 100; i++ {
		if !tb.InsertState(hashfn.Murmur2(i), nil, nil) {
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

func TestInsertColsAgainstKindAPI(t *testing.T) {
	// InsertStateCols / InsertRawCols must agree with the layout-based
	// InsertState / InsertRaw for every aggregate kind.
	specs := []agg.Spec{{Kind: agg.Count}, {Kind: agg.Sum, Col: 0}, {Kind: agg.Min, Col: 1},
		{Kind: agg.Max, Col: 0}, {Kind: agg.Avg, Col: 1}}
	lay := agg.NewLayout(specs)
	ops := lay.WordOps()
	rng := xrand.NewXoshiro256(17)

	a := New(Config{CapacityRows: 4096, Blocks: 16, Words: lay.Words})
	b := New(Config{CapacityRows: 4096, Blocks: 16, Words: lay.Words})
	cols := [][]int64{make([]int64, 500), make([]int64, 500)}
	keys := make([]uint64, 500)
	for i := 0; i < 500; i++ {
		keys[i] = rng.Next() % 40
		cols[0][i] = int64(rng.Next()%999) - 500
		cols[1][i] = int64(rng.Next()%999) - 500
	}
	for i := 0; i < 500; i++ {
		i := i
		h := hashfn.Murmur2(keys[i])
		if !a.InsertRawCols(h, cols, i, ops) {
			t.Fatal("a full")
		}
		if !b.InsertRaw(h, func(c int) int64 { return cols[c][i] }, lay) {
			t.Fatal("b full")
		}
	}
	if a.Len() != b.Len() {
		t.Fatalf("Len %d vs %d", a.Len(), b.Len())
	}
	b.Emit(func(h, k uint64, st []uint64) {
		got, ok := a.Lookup(h)
		if !ok {
			t.Fatalf("key %d missing in cols table", k)
		}
		for w := range st {
			if got[w] != st[w] {
				t.Fatalf("key %d word %d: %d vs %d", k, w, got[w], st[w])
			}
		}
	})
}

// TestDoubleGrowsWithoutLoss drives a table from its smallest legal size
// through every doubling a fill stop forces, and checks each grown table
// against a map reference: same groups, same states, same rowsIn, twice
// the capacity and footprint, and the source table left untouched.
func TestDoubleGrowsWithoutLoss(t *testing.T) {
	lay := agg.NewLayout([]agg.Spec{
		{Kind: agg.Count}, {Kind: agg.Sum, Col: 0}, {Kind: agg.Min, Col: 0},
		{Kind: agg.Max, Col: 0}, {Kind: agg.Avg, Col: 0},
	})
	kern := lay.Kernels()
	for _, cfg := range []Config{
		{Blocks: 1, MaxFill: 0.5},
		{Blocks: 4, MaxFill: 0.25, Level: 1},
	} {
		cfg.Words = lay.Words
		cfg.CapacityRows = cfg.Blocks * MinBlockRows
		tb := New(cfg)
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
		doublings := 0
		for i := 0; i < n; {
			i += tb.InsertRawBatch(hashes[i:], keys[i:], cols, i, kern)
			if i == n {
				break
			}
			before, footprint, capRows := tb.Len(), tb.FootprintBytes(), tb.CapacityRows()
			grown := tb.Double()
			doublings++
			if grown.CapacityRows() != 2*capRows || grown.FootprintBytes() != 2*footprint ||
				grown.MaxRows() != 2*tb.MaxRows() {
				t.Fatalf("blocks %d: doubled %d slots / %d B / fill %d into %d / %d / %d",
					cfg.Blocks, capRows, footprint, tb.MaxRows(),
					grown.CapacityRows(), grown.FootprintBytes(), grown.MaxRows())
			}
			// The moved table is the one re-inserting t's emitted rows
			// builds: same rows in the same slots.
			ref := New(cfg)
			for ref.CapacityRows() < grown.CapacityRows() {
				ref = ref.Double()
			}
			eh, ek, es := emitAll(tb)
			if m := ref.InsertStateBatch(eh, ek, es, 0, kern); m != before {
				t.Fatalf("blocks %d: reference re-insert absorbed %d of %d rows", cfg.Blocks, m, before)
			}
			gh, gk, gs := emitAll(grown)
			rh, rk, rs := emitAll(ref)
			for j := range gk {
				if gh[j] != rh[j] || gk[j] != rk[j] {
					t.Fatalf("blocks %d: row %d moved to a different slot than a re-insert puts it", cfg.Blocks, j)
				}
				for w := range gs {
					if gs[w][j] != rs[w][j] {
						t.Fatalf("blocks %d: row %d word %d differs from the re-insert", cfg.Blocks, j, w)
					}
				}
			}
			if grown.Len() != before || grown.RowsIn() != i || tb.Len() != before {
				t.Fatalf("blocks %d: groups %d -> %d (source now %d), rowsIn %d want %d",
					cfg.Blocks, before, grown.Len(), tb.Len(), grown.RowsIn(), i)
			}
			tb = grown
		}
		if doublings < 8 {
			t.Fatalf("blocks %d: only %d doublings from the smallest table", cfg.Blocks, doublings)
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
			t.Fatalf("blocks %d: %d groups, want %d", cfg.Blocks, tb.Len(), len(ref))
		}
		for k, want := range ref {
			got, ok := tb.Lookup(hashfn.Murmur2(k))
			if !ok {
				t.Fatalf("blocks %d: key %d lost", cfg.Blocks, k)
			}
			for w := range want {
				if got[w] != want[w] {
					t.Fatalf("blocks %d: key %d word %d = %d, want %d", cfg.Blocks, k, w, got[w], want[w])
				}
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
	ops := agg.NewLayout([]agg.Spec{{Kind: agg.Count}}).WordOps()
	// fill inserts keys [from, from+n) and counts the rows a scan visits.
	fill := func(tb *Table, from, n uint64) int {
		t.Helper()
		for k := from; k < from+n; k++ {
			if !tb.InsertRawCols(hashfn.Murmur2(k), nil, 0, ops) {
				t.Fatalf("insert of key %d failed at capacity %d", k, tb.CapacityRows())
			}
		}
		seen := 0
		tb.Emit(func(uint64, uint64, []uint64) { seen++ })
		return seen
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
