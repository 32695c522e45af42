package global

import (
	"sync"
	"testing"

	"cacheagg/internal/agg"
	"cacheagg/internal/datagen"
	"cacheagg/internal/hashfn"
	"cacheagg/internal/memgov"
	"cacheagg/internal/testutil"
	"cacheagg/internal/xrand"
)

// testOps is the full fold alphabet: COUNT, SUM, MIN, MAX over one column
// (AVG is SUM+COUNT and thus covered by construction).
func testOps() []agg.WordOp {
	lay := agg.NewLayout([]agg.Spec{
		{Kind: agg.Count},
		{Kind: agg.Sum, Col: 0},
		{Kind: agg.Min, Col: 0},
		{Kind: agg.Max, Col: 0},
		{Kind: agg.Avg, Col: 0},
	})
	return lay.WordOps()
}

// refStates folds rows into a scalar map with the same WordOp semantics the
// table uses — the trivially correct oracle.
func refStates(ops []agg.WordOp, keys []uint64, col []int64) map[uint64][]uint64 {
	ref := map[uint64][]uint64{}
	for i, k := range keys {
		st, ok := ref[k]
		if !ok {
			st = make([]uint64, len(ops))
			for w := range ops {
				st[w] = ops[w].Op.Identity()
			}
			ref[k] = st
		}
		for w := range ops {
			v := int64(1)
			if ops[w].Src == agg.SrcCol {
				v = col[i]
			}
			st[w] = ops[w].Op.Apply(st[w], uint64(v))
		}
	}
	return ref
}

// foldEscapes folds escaped rows into a scalar map — the stand-in for the
// local overflow table the core routine uses.
func foldEscapes(local map[uint64][]uint64, ops []agg.WordOp, esc []int32, ks []uint64, col []int64, base int) {
	for _, ei := range esc {
		i := base + int(ei)
		st, ok := local[ks[i]]
		if !ok {
			st = make([]uint64, len(ops))
			for w := range ops {
				st[w] = ops[w].Op.Identity()
			}
			local[ks[i]] = st
		}
		for w := range ops {
			v := int64(1)
			if ops[w].Src == agg.SrcCol {
				v = col[i]
			}
			st[w] = ops[w].Op.Apply(st[w], uint64(v))
		}
	}
}

// drainToMap collects the table's runs into a key-indexed state map and
// checks the per-digit placement invariant on the way.
func drainToMap(t *testing.T, tab *Table) map[uint64][]uint64 {
	t.Helper()
	got := map[uint64][]uint64{}
	rs := tab.DrainRuns()
	for d, r := range rs {
		if r == nil {
			continue
		}
		for i, k := range r.Keys {
			if top := hashfn.Digit(hashfn.Murmur2(k), 0); top != d {
				t.Fatalf("key %d drained from digit %d but hashes to %d", k, d, top)
			}
			if _, dup := got[k]; dup {
				t.Fatalf("key %d appears twice in drain", k)
			}
			st := make([]uint64, len(r.States))
			for w := range r.States {
				st[w] = r.States[w][i]
			}
			got[k] = st
		}
	}
	return got
}

// mergeInto folds src's states into dst with the fold alphabet.
func mergeInto(dst, src map[uint64][]uint64, ops []agg.WordOp) {
	for k, st := range src {
		d, ok := dst[k]
		if !ok {
			dst[k] = st
			continue
		}
		for w := range ops {
			d[w] = ops[w].Op.Apply(d[w], st[w])
		}
	}
}

func checkStates(t *testing.T, got, want map[uint64][]uint64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d groups, want %d", len(got), len(want))
	}
	for k, wantSt := range want {
		gotSt, ok := got[k]
		if !ok {
			t.Fatalf("key %d missing", k)
		}
		for w := range wantSt {
			if gotSt[w] != wantSt[w] {
				t.Fatalf("key %d word %d: got %d, want %d", k, w, gotSt[w], wantSt[w])
			}
		}
	}
}

func makeInput(dist datagen.Dist, n int, k uint64, seed uint64) ([]uint64, []uint64, []int64) {
	keys := datagen.Generate(datagen.Spec{Dist: dist, N: n, K: k, Seed: seed})
	hs := make([]uint64, n)
	hashfn.HashBatch(keys, hs)
	rng := xrand.NewXoshiro256(seed + 1)
	col := make([]int64, n)
	for i := range col {
		col[i] = int64(rng.Next()%2001) - 1000
	}
	return keys, hs, col
}

// TestInsertDrainMatchesReference: serial insert of every fold kind, drain,
// compare bit-for-bit with the scalar oracle.
func TestInsertDrainMatchesReference(t *testing.T) {
	ops := testOps()
	keys, hs, col := makeInput(datagen.Uniform, 20000, 3000, 7)
	tab := New(Config{CapacityRows: 1 << 16, Ops: ops})

	var esc []int32
	cols := [][]int64{col}
	for base := 0; base < len(keys); base += 512 {
		end := min(base+512, len(keys))
		esc, _ = tab.InsertBatch(hs[base:end], keys[base:end], cols, base, esc[:0])
		if len(esc) != 0 {
			t.Fatalf("uncontended insert escaped %d rows", len(esc))
		}
	}
	want := refStates(ops, keys, col)
	checkStates(t, drainToMap(t, tab), want)
	if tab.RowsIn() != int64(len(keys)) {
		t.Fatalf("RowsIn = %d, want %d", tab.RowsIn(), len(keys))
	}
	if got := tab.Alpha(); got < 6 || got > 7 {
		t.Fatalf("Alpha = %.2f, want ≈ %d/%d", got, len(keys), len(want))
	}
}

// TestGrowth: a table seeded far below the key count must grow (governed,
// with the deltas reserved) and still drain the exact oracle states.
func TestGrowth(t *testing.T) {
	ops := testOps()
	keys, hs, col := makeInput(datagen.Uniform, 40000, 30000, 9)
	gov := memgov.New(64 << 20)
	tab := New(Config{
		CapacityRows:    MinRows,
		MaxCapacityRows: 1 << 20,
		Ops:             ops,
		Governor:        gov,
	})
	if !gov.TryReserve(tab.FootprintBytes()) {
		t.Fatal("initial reservation refused")
	}
	cols := [][]int64{col}
	local := map[uint64][]uint64{}
	var esc []int32
	for base := 0; base < len(keys); base += 512 {
		end := min(base+512, len(keys))
		esc, _ = tab.InsertBatch(hs[base:end], keys[base:end], cols, base, esc[:0])
		foldEscapes(local, ops, esc, keys, col, base)
	}
	if tab.Grows() == 0 {
		t.Fatal("table never grew despite MinRows seed and 30k groups")
	}
	got := drainToMap(t, tab)
	mergeInto(got, local, ops)
	checkStates(t, got, refStates(ops, keys, col))
	// The governor must hold the full grown footprint: initial reservation
	// plus every growth delta the table reserved itself.
	if used := gov.Reserved(); used != tab.FootprintBytes() {
		t.Fatalf("governor holds %d bytes, table footprint is %d", used, tab.FootprintBytes())
	}
}

// TestGovernorRefusalDisablesGrowth: a budget that cannot fit a single
// doubling turns growth off permanently; overflow rows escape instead, and
// the run still completes with exact states.
func TestGovernorRefusalDisablesGrowth(t *testing.T) {
	ops := testOps()
	keys, hs, col := makeInput(datagen.Uniform, 20000, 15000, 3)
	gov := memgov.New(1) // any TryReserve(delta>1) fails
	tab := New(Config{
		CapacityRows:    MinRows,
		MaxCapacityRows: 1 << 20,
		Ops:             ops,
		Governor:        gov,
	})
	before := tab.FootprintBytes()
	cols := [][]int64{col}
	local := map[uint64][]uint64{}
	var esc []int32
	for base := 0; base < len(keys); base += 512 {
		end := min(base+512, len(keys))
		esc, _ = tab.InsertBatch(hs[base:end], keys[base:end], cols, base, esc[:0])
		foldEscapes(local, ops, esc, keys, col, base)
	}
	if tab.Grows() != 0 {
		t.Fatalf("refused governor, yet table grew %d times", tab.Grows())
	}
	if tab.FootprintBytes() != before {
		t.Fatal("footprint changed without growth")
	}
	if tab.Escaped() == 0 {
		t.Fatal("no escapes despite a fill-limited, growth-refused table")
	}
	got := drainToMap(t, tab)
	mergeInto(got, local, ops)
	checkStates(t, got, refStates(ops, keys, col))
}

// TestReset: epoch-bump recycling empties the table in O(1) and the next
// run sees none of the old keys.
func TestReset(t *testing.T) {
	ops := testOps()
	keys, hs, col := makeInput(datagen.Uniform, 5000, 400, 5)
	tab := New(Config{CapacityRows: 1 << 14, Ops: ops})
	cols := [][]int64{col}
	esc, _ := tab.InsertBatch(hs, keys, cols, 0, nil)
	if len(esc) != 0 || tab.Len() == 0 {
		t.Fatalf("seed insert: esc=%d len=%d", len(esc), tab.Len())
	}
	tab.Reset()
	if tab.Len() != 0 || tab.RowsIn() != 0 || tab.Alpha() != 0 {
		t.Fatalf("reset left len=%d rowsIn=%d alpha=%f", tab.Len(), tab.RowsIn(), tab.Alpha())
	}
	// Second epoch: a disjoint key set; the drain must contain exactly it.
	keys2 := make([]uint64, len(keys))
	hs2 := make([]uint64, len(keys))
	for i := range keys2 {
		keys2[i] = keys[i] + (1 << 40)
	}
	hashfn.HashBatch(keys2, hs2)
	if esc, _ := tab.InsertBatch(hs2, keys2, cols, 0, nil); len(esc) != 0 {
		t.Fatalf("post-reset insert escaped %d rows", len(esc))
	}
	checkStates(t, drainToMap(t, tab), refStates(ops, keys2, col))
}

// TestEpochWrapRezeroesMeta drives Reset past epochMax and checks the
// table still works (the wrap path clears the meta array).
func TestEpochWrapRezeroesMeta(t *testing.T) {
	tab := New(Config{CapacityRows: MinRows, Ops: nil})
	tab.epoch = epochMax // next Reset wraps
	tab.Reset()
	if tab.epoch != 1 {
		t.Fatalf("epoch after wrap = %d, want 1", tab.epoch)
	}
	keys := []uint64{1, 2, 3, 1}
	hs := make([]uint64, len(keys))
	hashfn.HashBatch(keys, hs)
	if esc, _ := tab.InsertBatch(hs, keys, nil, 0, nil); len(esc) != 0 {
		t.Fatalf("post-wrap insert escaped %d rows", len(esc))
	}
	if tab.Len() != 3 {
		t.Fatalf("post-wrap Len = %d, want 3", tab.Len())
	}
}

// TestNoGrowthEscapes: growth disabled outright (MaxCapacityRows 0), more
// groups than the fill limit — the surplus must escape, never block, and
// the absorbed+escaped split must account for every row.
func TestNoGrowthEscapes(t *testing.T) {
	ops := testOps()
	keys, hs, col := makeInput(datagen.Uniform, 10000, 9000, 11)
	tab := New(Config{CapacityRows: MinRows, Ops: ops})
	cols := [][]int64{col}
	local := map[uint64][]uint64{}
	var esc []int32
	for base := 0; base < len(keys); base += 512 {
		end := min(base+512, len(keys))
		esc, _ = tab.InsertBatch(hs[base:end], keys[base:end], cols, base, esc[:0])
		foldEscapes(local, ops, esc, keys, col, base)
	}
	if tab.Escaped() == 0 {
		t.Fatal("expected escapes from a growth-disabled MinRows table")
	}
	if tab.RowsIn()+tab.Escaped() != int64(len(keys)) {
		t.Fatalf("rows unaccounted: in=%d escaped=%d of %d",
			tab.RowsIn(), tab.Escaped(), len(keys))
	}
	got := drainToMap(t, tab)
	mergeInto(got, local, ops)
	checkStates(t, got, refStates(ops, keys, col))
}

// TestConcurrentHammer is the contention hammer: N workers slam one shared
// table with zipf (hot-key contention on the fold atomics), heavy-hitter
// (claim races on few slots) and uniform (probe-chain races) streams, under
// tight capacity so claim/fold/grow/escape all fire together. Run under
// -race this pins the publication protocol; the drained-plus-escaped states
// must equal the scalar oracle bit for bit.
func TestConcurrentHammer(t *testing.T) {
	defer testutil.VerifyNoLeaks(t)
	const (
		workers = 8
		n       = 1 << 16
	)
	ops := testOps()
	cases := []struct {
		name string
		spec datagen.Spec
		cap  int
		grow int
		spin int
	}{
		{"zipf-hot", datagen.Spec{Dist: datagen.Zipf, K: 1 << 10, Theta: 1.05}, 1 << 14, 1 << 16, 8},
		{"heavy-hitter", datagen.Spec{Dist: datagen.HeavyHitter, K: 1 << 12, HitFraction: 0.9}, MinRows, 1 << 16, 4},
		{"uniform-grow", datagen.Spec{Dist: datagen.Uniform, K: 1 << 13}, MinRows, 1 << 18, 64},
		{"uniform-starved", datagen.Spec{Dist: datagen.Uniform, K: 1 << 13}, MinRows, 0, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := tc.spec
			spec.N = n
			spec.Seed = 19
			keys := datagen.Generate(spec)
			hs := make([]uint64, n)
			hashfn.HashBatch(keys, hs)
			rng := xrand.NewXoshiro256(23)
			col := make([]int64, n)
			for i := range col {
				col[i] = int64(rng.Next()%2001) - 1000
			}
			cols := [][]int64{col}

			tab := New(Config{
				CapacityRows:    tc.cap,
				MaxCapacityRows: tc.grow,
				Ops:             ops,
				SpinLimit:       tc.spin,
			})
			locals := make([]map[uint64][]uint64, workers)
			var wg sync.WaitGroup
			share := n / workers
			for w := 0; w < workers; w++ {
				locals[w] = map[uint64][]uint64{}
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					lo, hi := w*share, (w+1)*share
					if w == workers-1 {
						hi = n
					}
					var esc []int32
					for base := lo; base < hi; base += 512 {
						end := min(base+512, hi)
						esc, _ = tab.InsertBatch(hs[base:end], keys[base:end], cols, base, esc[:0])
						foldEscapes(locals[w], ops, esc, keys, col, base)
					}
				}(w)
			}
			wg.Wait()

			got := drainToMap(t, tab)
			for _, local := range locals {
				mergeInto(got, local, ops)
			}
			checkStates(t, got, refStates(ops, keys, col))
			if tab.RowsIn()+tab.Escaped() != int64(n) {
				t.Fatalf("rows unaccounted: in=%d escaped=%d of %d",
					tab.RowsIn(), tab.Escaped(), n)
			}
		})
	}
}

// TestDistinctOnlyTable: zero state words (pure DISTINCT) must claim and
// drain without touching any fold path.
func TestDistinctOnlyTable(t *testing.T) {
	keys, hs, _ := makeInput(datagen.Uniform, 8000, 500, 31)
	tab := New(Config{CapacityRows: 1 << 14, Ops: nil})
	if esc, _ := tab.InsertBatch(hs, keys, nil, 0, nil); len(esc) != 0 {
		t.Fatalf("escaped %d rows", len(esc))
	}
	got := drainToMap(t, tab)
	want := map[uint64]bool{}
	for _, k := range keys {
		want[k] = true
	}
	if len(got) != len(want) {
		t.Fatalf("got %d distinct keys, want %d", len(got), len(want))
	}
}
