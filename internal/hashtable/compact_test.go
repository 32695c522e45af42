package hashtable

import (
	"fmt"
	"testing"

	"cacheagg/internal/agg"
	"cacheagg/internal/hashfn"
	"cacheagg/internal/xrand"
)

// slotWalk is the reference the emit and the split are checked against:
// every occupied slot in slot order, with its state words.
func slotWalk(t *Table) (slots []int, hashes []uint64, states [][]uint64) {
	states = make([][]uint64, t.words)
	for s, v := range t.version {
		if v != t.epoch {
			continue
		}
		slots, hashes = append(slots, s), append(hashes, t.hashes[s])
		for w := range states {
			states[w] = append(states[w], t.states[w][s])
		}
	}
	return slots, hashes, states
}

// fillBlocks inserts rows rows into every block of t (or as many as fit)
// through the state kernel, with random state words. The hashes carry the
// block's digit and random low bits, so they probe from random home
// slots.
func fillBlocks(t *Table, kern *agg.Kernels, rows int, rng *xrand.Xoshiro256) {
	blocks := t.blocks
	hs := make([]uint64, 0, rows)
	for b := 0; b < blocks; b++ {
		hs = hs[:0]
		for i := 0; i < rows; i++ {
			hs = append(hs, uint64(b)<<t.shift|rng.Next()&(1<<t.shift-1))
		}
		states := make([][]uint64, t.words)
		for w := range states {
			states[w] = make([]uint64, rows)
			for i := range states[w] {
				states[w][i] = rng.Next()
			}
		}
		for lo := 0; lo < len(hs); {
			m := t.InsertStateBatch(hs[lo:], nil, states, lo, kern)
			if m == 0 {
				break
			}
			lo += m
		}
	}
}

// TestCompactionMatchesSlotWalk checks EmitColumns and SplitRuns against
// the slot walk on tables whose capacity is below, at and above the
// compaction's span, with blocks of 8 slots and blocks wider than the
// span; empty, holding one row, partly full, and with every slot taken
// (MaxFill 1); and after Resets that leave stale epochs behind.
func TestCompactionMatchesSlotWalk(t *testing.T) {
	kern := agg.NewLayout([]agg.Spec{{Kind: agg.Sum, Col: 0}, {Kind: agg.Count}}).Kernels()
	shapes := []struct{ capRows, blocks int }{
		{128, 16},              // below the span, blocks of 8
		{compactRows, 32},      // at the span, blocks of 8
		{2048, 256},            // above the span, blocks of 8
		{4096, 4},              // blocks of 1024, wider than the span
		{compactRows*8 + 1, 1}, // one block, rounded up past the span
	}
	rng := xrand.NewXoshiro256(17)
	for _, sh := range shapes {
		for _, fill := range []string{"empty", "one", "partial", "full", "stale"} {
			name := fmt.Sprintf("cap=%d/blocks=%d/%s", sh.capRows, sh.blocks, fill)
			tb := New(Config{CapacityRows: sh.capRows, Blocks: sh.blocks, Words: 2, MaxFill: 1})
			blockRows := tb.CapacityRows() / sh.blocks
			switch fill {
			case "one":
				tb.InsertStateBatch([]uint64{rng.Next()}, nil, [][]uint64{{1}, {2}}, 0, kern)
			case "partial":
				fillBlocks(tb, kern, blockRows/3, rng)
			case "full":
				fillBlocks(tb, kern, blockRows, rng)
				if tb.Len() != tb.CapacityRows() {
					t.Fatalf("%s: %d rows in %d slots, want every slot taken", name, tb.Len(), tb.CapacityRows())
				}
			case "stale":
				// Rows of earlier epochs stay in the version column.
				fillBlocks(tb, kern, blockRows, rng)
				tb.Reset()
				fillBlocks(tb, kern, blockRows/2, rng)
				tb.Reset()
				fillBlocks(tb, kern, blockRows/4, rng)
			}
			slots, wantH, wantS := slotWalk(tb)
			if len(wantH) != tb.Len() {
				t.Fatalf("%s: walk finds %d rows, Len() = %d", name, len(wantH), tb.Len())
			}

			hs, keys, states := emitAll(tb)
			for i := range wantH {
				if hs[i] != wantH[i] || keys[i] != hashfn.Murmur2Inverse(wantH[i]) ||
					states[0][i] != wantS[0][i] || states[1][i] != wantS[1][i] {
					t.Fatalf("%s: emitted row %d differs from slot %d", name, i, slots[i])
				}
			}

			split := tb.SplitRuns()
			i := 0
			for b, r := range split {
				if r == nil {
					continue
				}
				for j, h := range r.Keys {
					if slots[i]/blockRows != b || h != wantH[i] ||
						r.States[0][j] != wantS[0][i] || r.States[1][j] != wantS[1][i] {
						t.Fatalf("%s: row %d of block %d's run differs from slot %d", name, j, b, slots[i])
					}
					i++
				}
			}
			if i != len(wantH) || tb.Len() != 0 {
				t.Fatalf("%s: split %d of %d rows, %d left in the table", name, i, len(wantH), tb.Len())
			}
		}
	}
}

// TestCompactionKeepsSlotScratch: an emit or a split of a table holding
// more rows than one insert batch leaves the insert path's slot scratch
// at the batch size.
func TestCompactionKeepsSlotScratch(t *testing.T) {
	kern := agg.NewLayout([]agg.Spec{{Kind: agg.Count}}).Kernels()
	const batch = 64
	tb := New(Config{CapacityRows: 1 << 14, Blocks: 256, Words: 1})
	hs := make([]uint64, batch)
	for k := uint64(0); tb.Len() < 16*batch; {
		for i := range hs {
			hs[i] = hashfn.Murmur2(k)
			k++
		}
		if m := tb.InsertRawBatch(hs, nil, nil, 0, kern); m != batch {
			t.Fatalf("insert took %d of %d rows", m, batch)
		}
	}
	if c := cap(tb.batchSlots); c != batch {
		t.Fatalf("slot scratch holds %d slots after batches of %d", c, batch)
	}
	emitAll(tb)
	if c := cap(tb.batchSlots); c != batch {
		t.Fatalf("emit of %d rows grew the slot scratch to %d", tb.Len(), c)
	}
	rows := tb.Len()
	tb.SplitRuns()
	if c := cap(tb.batchSlots); c != batch {
		t.Fatalf("split of %d rows grew the slot scratch to %d", rows, c)
	}
}
