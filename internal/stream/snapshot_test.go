package stream

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"cacheagg/internal/agg"
	"cacheagg/internal/testutil"
)

// mergeRows is a batch of raw rows in the layout pushAll takes.
type mergeRows struct {
	keys []uint64
	cols [][]int64
}

func (r *mergeRows) add(o mergeRows) {
	r.keys = append(r.keys, o.keys...)
	if r.cols == nil {
		r.cols = make([][]int64, 2)
	}
	for c := range r.cols {
		r.cols[c] = append(r.cols[c], o.cols[c]...)
	}
}

// rowsOver gives every key 1–3 rows with random values, shuffled.
func rowsOver(rng *rand.Rand, keys []uint64) mergeRows {
	var r mergeRows
	r.cols = make([][]int64, 2)
	for _, k := range keys {
		for n := 1 + rng.Intn(3); n > 0; n-- {
			r.keys = append(r.keys, k)
			r.cols[0] = append(r.cols[0], int64(rng.Intn(2001)-1000))
			r.cols[1] = append(r.cols[1], int64(rng.Intn(2001)-1000))
		}
	}
	rng.Shuffle(len(r.keys), func(i, j int) {
		r.keys[i], r.keys[j] = r.keys[j], r.keys[i]
		for _, col := range r.cols {
			col[i], col[j] = col[j], col[i]
		}
	})
	return r
}

func keyRange(lo, n int) []uint64 {
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(lo + i)
	}
	return keys
}

// TestSnapshotMergeMatchesOracle checks the snapshot merge against the map
// oracle over the raw rows it covers: epochs with identical key sets,
// epochs with disjoint key sets (the merge table doubles at least twice
// from its floor), and a live-only stream; whole and windowed snapshots;
// unbudgeted and with a budget one byte below a single epoch's record
// bytes, so every merge reservation exceeds it. A Snapshot leaves the
// ledger where it found it and Finish leaves it at zero.
func TestSnapshotMergeMatchesOracle(t *testing.T) {
	defer testutil.VerifyNoLeaks(t)
	const epochs, epochKeys = 5, 256
	width := agg.NewLayout(allSpecs).Words
	budget := int64(epochKeys*(8+8*width)) - 1
	histories := []struct {
		name  string
		epoch func(e int) []uint64 // key set of epoch e
		nEp   int
	}{
		{"identical", func(int) []uint64 { return keyRange(0, epochKeys) }, epochs},
		{"disjoint", func(e int) []uint64 { return keyRange(e*epochKeys, epochKeys) }, epochs},
		{"live-only", nil, 0},
	}
	// The disjoint history's whole merge must outgrow the floor table
	// twice.
	floor := newAccumTable(width, 2*epochKeys)
	if epochs*epochKeys <= 2*floor.MaxRows() {
		t.Fatalf("disjoint history of %d groups fits a floor table doubled once (%d rows)",
			epochs*epochKeys, 2*floor.MaxRows())
	}
	for _, h := range histories {
		for _, bud := range []int64{0, budget} {
			t.Run(fmt.Sprintf("%s/budget%d", h.name, bud), func(t *testing.T) {
				ctx := context.Background()
				rng := rand.New(rand.NewSource(11))
				dir := t.TempDir()
				a, err := Begin(Options{Dir: dir, Specs: allSpecs, NoSync: true})
				if err != nil {
					t.Fatal(err)
				}
				sealed := make([]mergeRows, h.nEp)
				for e := range sealed {
					sealed[e] = rowsOver(rng, h.epoch(e))
					pushAll(t, a, sealed[e].keys, sealed[e].cols, 64)
					if _, err := a.Checkpoint(ctx); err != nil {
						t.Fatal(err)
					}
				}
				if bud > 0 {
					// Sealed history is written unbudgeted; the snapshots
					// run under the budget.
					if err := a.Close(); err != nil {
						t.Fatal(err)
					}
					opts := Options{Dir: dir, MemoryBudgetBytes: bud, NoSync: true}
					if h.nEp == 0 {
						opts.Specs = allSpecs
						a, err = Begin(opts)
					} else {
						a, err = Resume(opts)
					}
					if err != nil {
						t.Fatal(err)
					}
				}
				// A live tail small enough to stay under the budget: keys
				// the history holds and new ones.
				liveKeys := append(keyRange(0, 8), keyRange(1<<40, 8)...)
				if h.nEp == 0 {
					liveKeys = keyRange(0, 32)
				}
				live := rowsOver(rng, liveKeys)
				pushAll(t, a, live.keys, live.cols, 16)

				want := func(window int) mergeRows {
					var r mergeRows
					for _, s := range sealed[len(sealed)-window:] {
						r.add(s)
					}
					r.add(live)
					return r
				}
				// The first Snapshot also drains the queue, so the ledger
				// is at rest once it returns.
				res, err := a.Snapshot(ctx, 0)
				if err != nil {
					t.Fatal(err)
				}
				all := want(h.nEp)
				checkResult(t, allSpecs, res, all.keys, all.cols)
				rest := a.gov.Reserved()
				for _, w := range []int{0, 1, h.nEp - 1, h.nEp} {
					res, err := a.Snapshot(ctx, w)
					if err != nil {
						t.Fatalf("window %d: %v", w, err)
					}
					covered := h.nEp
					if w > 0 && w < h.nEp {
						covered = w
					}
					if res.Epochs != covered {
						t.Fatalf("window %d: snapshot covers %d epochs, want %d", w, res.Epochs, covered)
					}
					r := want(covered)
					checkResult(t, allSpecs, res, r.keys, r.cols)
					if got := a.gov.Reserved(); got != rest {
						t.Fatalf("window %d: ledger %d after Snapshot, %d before", w, got, rest)
					}
				}
				if got := a.Stats().EarlySeals; got != 0 {
					t.Fatalf("live tail pressure-sealed %d epochs", got)
				}
				res, err = a.Finish(ctx)
				if err != nil {
					t.Fatal(err)
				}
				checkResult(t, allSpecs, res, all.keys, all.cols)
				if g := a.gov.Reserved(); g != 0 {
					t.Fatalf("ledger holds %d bytes after Finish", g)
				}
			})
		}
	}
}

// TestFinalizeFillsEveryColumn: finalize turns AVG's (sum, count) words
// into its quotients — 0 on a zero count — and widens every other spec
// into its float column.
func TestFinalizeFillsEveryColumn(t *testing.T) {
	lay := agg.NewLayout([]agg.Spec{{Kind: agg.Count}, {Kind: agg.Avg, Col: 0}, {Kind: agg.Min, Col: 0}})
	states := [][]uint64{
		{3, 1},                 // COUNT
		{7, uint64(1<<64 - 5)}, // AVG sum: 7, -5
		{2, 0},                 // AVG count
		{uint64(1<<64 - 9), 4}, // MIN: -9, 4
	}
	var res Result
	finalize(lay, []uint64{10, 20}, []uint64{1, 2}, states, &res)
	wantI := [][]int64{{3, 1}, {3, 0}, {-9, 4}}
	wantF := [][]float64{{3, 1}, {3.5, 0}, {-9, 4}}
	for c := range wantI {
		if len(res.Aggs[c]) != 2 || len(res.AggsFloat[c]) != 2 {
			t.Fatalf("spec %d: %d ints, %d floats, want 2", c, len(res.Aggs[c]), len(res.AggsFloat[c]))
		}
		for g := range wantI[c] {
			if res.Aggs[c][g] != wantI[c][g] || res.AggsFloat[c][g] != wantF[c][g] {
				t.Fatalf("spec %d row %d: %d/%v, want %d/%v",
					c, g, res.Aggs[c][g], res.AggsFloat[c][g], wantI[c][g], wantF[c][g])
			}
		}
	}
}
