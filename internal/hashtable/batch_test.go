package hashtable

// Differential tests of the batched insert path against the scalar path.
// The scalar inserts (InsertRawCols / InsertStateCols) are the reference
// oracle: the batched path must produce bit-identical tables — same slots,
// same states, same rowsIn/rows accounting, and therefore byte-identical
// SplitRuns output — for every aggregate kind, input distribution, and
// batch-size pattern (including the degenerate sizes 0, 1, width-1, width).

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

// drainScalarRaw inserts every row one at a time, collecting the runs of
// every split forced by the fill limit, and finally the runs of the
// remaining rows.
func drainScalarRaw(tb *Table, keys []uint64, cols [][]int64, ops []agg.WordOp) [][]*runs.Run {
	var splits [][]*runs.Run
	for i := 0; i < len(keys); {
		h := hashfn.Murmur2(keys[i])
		if !tb.InsertRawCols(h, cols, i, ops) {
			splits = append(splits, tb.SplitRuns())
			continue
		}
		i++
	}
	splits = append(splits, tb.SplitRuns())
	return splits
}

// drainBatchedRaw inserts the same rows through the batch path, cycling
// through the given batch sizes (0 entries exercise the empty batch and are
// skipped for progress).
func drainBatchedRaw(tb *Table, keys []uint64, cols [][]int64, kern *agg.Kernels, sizes []int) [][]*runs.Run {
	var splits [][]*runs.Run
	hs := make([]uint64, len(keys)+1)
	si := 0
	for i := 0; i < len(keys); {
		blk := sizes[si%len(sizes)]
		si++
		if blk > len(keys)-i {
			blk = len(keys) - i
		}
		hashfn.HashBatch(keys[i:i+blk], hs[:blk])
		done := 0
		for done < blk {
			n := tb.InsertRawBatch(hs[done:blk], keys[i+done:i+blk], cols, i+done, kern)
			done += n
			if done < blk {
				splits = append(splits, tb.SplitRuns())
			}
		}
		i += blk
		if blk == 0 {
			// Empty batch must be a no-op; make progress via a one-row batch.
			hashfn.HashBatch(keys[i:i+1], hs[:1])
			if tb.InsertRawBatch(hs[:1], keys[i:i+1], cols, i, kern) != 1 {
				splits = append(splits, tb.SplitRuns())
			} else {
				i++
			}
		}
	}
	splits = append(splits, tb.SplitRuns())
	return splits
}

func requireEqualRuns(t *testing.T, want, got [][]*runs.Run) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("split count: scalar %d, batched %d", len(want), len(got))
	}
	for s := range want {
		if len(want[s]) != len(got[s]) {
			t.Fatalf("split %d: block count %d vs %d", s, len(want[s]), len(got[s]))
		}
		for b := range want[s] {
			w, g := want[s][b], got[s][b]
			if (w == nil) != (g == nil) {
				t.Fatalf("split %d block %d: nil mismatch (scalar %v, batched %v)", s, b, w != nil, g != nil)
			}
			if w == nil {
				continue
			}
			if w.Len() != g.Len() {
				t.Fatalf("split %d block %d: %d rows vs %d", s, b, w.Len(), g.Len())
			}
			for i := 0; i < w.Len(); i++ {
				if w.Keys[i] != g.Keys[i] {
					t.Fatalf("split %d block %d row %d: key %d vs %d", s, b, i, w.Keys[i], g.Keys[i])
				}
			}
			if len(w.States) != len(g.States) {
				t.Fatalf("split %d block %d: %d state words vs %d", s, b, len(w.States), len(g.States))
			}
			for wd := range w.States {
				for i := range w.States[wd] {
					if w.States[wd][i] != g.States[wd][i] {
						t.Fatalf("split %d block %d word %d row %d: state %#x vs %#x",
							s, b, wd, i, w.States[wd][i], g.States[wd][i])
					}
				}
			}
		}
	}
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
				ops, kern := lay.WordOps(), lay.Kernels()
				ref := diffTable(lay.Words)
				wantRuns := drainScalarRaw(ref, keys, cols, ops)
				for _, sizes := range batchSizePatterns {
					tb := diffTable(lay.Words)
					gotRuns := drainBatchedRaw(tb, keys, cols, kern, sizes)
					requireEqualRuns(t, wantRuns, gotRuns)
				}
			})
		}
	}
}

// TestBatchedInsertStateEquivalence checks the state-merge batch path (the
// run-absorption side of the engine) against InsertStateCols.
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
			ops, kern := lay.WordOps(), lay.Kernels()

			ref := diffTable(lay.Words)
			var wantRuns [][]*runs.Run
			for i := 0; i < n; {
				h := hashfn.Murmur2(keys[i])
				if !ref.InsertStateCols(h, states, i, ops) {
					wantRuns = append(wantRuns, ref.SplitRuns())
					continue
				}
				i++
			}
			wantRuns = append(wantRuns, ref.SplitRuns())

			for _, sizes := range batchSizePatterns {
				tb := diffTable(lay.Words)
				hs := make([]uint64, n)
				var gotRuns [][]*runs.Run
				si := 0
				for i := 0; i < n; {
					blk := sizes[si%len(sizes)]
					si++
					if blk == 0 || blk > n-i {
						if blk = n - i; blk > 64 {
							blk = 64
						}
					}
					hashfn.HashBatch(keys[i:i+blk], hs[:blk])
					done := 0
					for done < blk {
						m := tb.InsertStateBatch(hs[done:blk], keys[i+done:i+blk], states, i+done, kern)
						done += m
						if done < blk {
							gotRuns = append(gotRuns, tb.SplitRuns())
						}
					}
					i += blk
				}
				gotRuns = append(gotRuns, tb.SplitRuns())
				requireEqualRuns(t, wantRuns, gotRuns)
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
	if st, ok := raw.Lookup(forced); raw.Len() != 1 || !ok || st[0] != n || st[1] != sum {
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
	if st, ok := merged.Lookup(forced); merged.Len() != 1 || !ok || st[0] != 2*n || st[1] != 2*sum {
		t.Fatalf("merged: %d groups, forced hash holds %v (found %v)", merged.Len(), st, ok)
	}

	// The real hashes of the five keys keep them apart.
	hashfn.HashBatch(keys, hs)
	apart := New(cfg)
	if m := apart.InsertRawBatch(hs, nil, [][]int64{vals}, 0, kern); m != n || apart.Len() != 5 {
		t.Fatalf("real hashes: absorbed %d of %d rows into %d groups, want 5", m, n, apart.Len())
	}
}

// TestEmitColumnsMatchesEmit checks the batched output gather against the
// row-at-a-time Emit callback order.
func TestEmitColumnsMatchesEmit(t *testing.T) {
	lay := agg.NewLayout([]agg.Spec{{Kind: agg.Sum, Col: 0}, {Kind: agg.Avg, Col: 0}})
	kern := lay.Kernels()
	const n = 3000
	keys := datagen.Generate(datagen.Spec{Dist: datagen.Uniform, N: n, K: 500, Seed: 3})
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i) - 1500
	}
	tb := diffTable(lay.Words)
	hs := make([]uint64, n)
	hashfn.HashBatch(keys, hs)
	for lo := 0; lo < n; {
		m := tb.InsertRawBatch(hs[lo:], keys[lo:], [][]int64{vals}, lo, kern)
		lo += m
		if m == 0 {
			t.Fatal("table filled; test wants a no-split table")
		}
	}

	var wantH, wantK []uint64
	var wantS [][]uint64
	tb.Emit(func(h, k uint64, st []uint64) {
		wantH = append(wantH, h)
		wantK = append(wantK, k)
		row := make([]uint64, len(st))
		copy(row, st)
		wantS = append(wantS, row)
	})

	gotH := make([]uint64, tb.Len())
	gotK := make([]uint64, tb.Len())
	gotS := [][]uint64{make([]uint64, tb.Len()), make([]uint64, tb.Len()), make([]uint64, tb.Len())}
	tb.EmitColumns(gotH, gotK, gotS)
	// A nil key column skips the recovery and leaves the rest unchanged.
	nilH := make([]uint64, tb.Len())
	nilS := [][]uint64{make([]uint64, tb.Len()), make([]uint64, tb.Len()), make([]uint64, tb.Len())}
	tb.EmitColumns(nilH, nil, nilS)

	if len(wantK) != tb.Len() {
		t.Fatalf("emit visited %d rows, Len() = %d", len(wantK), tb.Len())
	}
	for i := range wantK {
		if gotH[i] != wantH[i] || gotK[i] != wantK[i] || nilH[i] != wantH[i] || hashfn.Murmur2(gotK[i]) != gotH[i] {
			t.Fatalf("row %d: hash/key mismatch", i)
		}
		for w := range wantS[i] {
			if gotS[w][i] != wantS[i][w] || nilS[w][i] != wantS[i][w] {
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
// distribution, key domain, and batch schedule, and requires byte-identical
// split output against the scalar oracle.
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
		lay := lays[names[int(seed)%len(names)]]
		sizes := []int{int(s1), int(s2)}
		if sizes[0] == 0 && sizes[1] == 0 {
			sizes = []int{1}
		}
		ref := diffTable(lay.Words)
		want := drainScalarRaw(ref, keys, cols, lay.WordOps())
		tb := diffTable(lay.Words)
		got := drainBatchedRaw(tb, keys, cols, lay.Kernels(), sizes)
		requireEqualRuns(t, want, got)
	})
}
