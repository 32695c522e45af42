package stream

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"cacheagg/internal/agg"
	"cacheagg/internal/datagen"
	"cacheagg/internal/hashtable"
	"cacheagg/internal/memgov"
	"cacheagg/internal/runs"
	"cacheagg/internal/testutil"
)

// ---------------------------------------------------------------------------
// The batch-table fold against a map oracle, epoch by epoch.

// foldShape is one input of the fold differential test: a key column and
// the block sizes it is pushed in (cycled).
type foldShape struct {
	name   string
	keys   []uint64
	blocks []int
}

func foldShapes(rng *rand.Rand, n int) []foldShape {
	uniform := func(k int) []uint64 {
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = uint64(rng.Intn(k))
		}
		return keys
	}
	sorted := make([]uint64, n)
	for i := range sorted {
		sorted[i] = uint64(i * 3000 / n)
	}
	clustered, _ := genInput(rng, "clustered", n, 2500)
	single := make([]uint64, n)
	for i := range single {
		single[i] = 7
	}
	return []foldShape{
		{"sorted", sorted, []int{512, 97}},
		{"clustered", clustered, []int{256, 600}},
		{"zipf", datagen.Generate(datagen.Spec{Dist: datagen.Zipf, N: n, K: 4000, Seed: 3}), []int{300, 41}},
		{"uniform", uniform(5000), []int{509}},
		{"one-row-blocks", uniform(400), []int{1}},
		{"single-key", single, []int{128, 3}},
		// One block holding every row: its inserts cross every doubling
		// from the smallest table on.
		{"one-block", uniform(6000), []int{n}},
	}
}

// epochOracle folds rows [lo, hi) of the input under the layout, one state
// row per key.
func epochOracle(lay *agg.Layout, keys []uint64, cols [][]int64, lo, hi int) map[uint64][]uint64 {
	groups := make(map[uint64][]uint64)
	for r := lo; r < hi; r++ {
		values := func(c int) int64 { return cols[c][r] }
		st, ok := groups[keys[r]]
		if !ok {
			st = make([]uint64, lay.Words)
			lay.InitRow(st, values)
			groups[keys[r]] = st
			continue
		}
		lay.FoldRow(st, values)
	}
	return groups
}

// checkEpochs reads every committed epoch file of a and compares it with
// the oracle over the rows it covers, looking every group up by key. Epochs
// cover consecutive rows; the COUNT word (spec 0 of allSpecs) tells how
// many. It returns the rows covered.
func checkEpochs(t *testing.T, a *Aggregator, keys []uint64, cols [][]int64) int {
	t.Helper()
	width := a.layout.Words
	lo := 0
	for _, e := range a.man.Epochs {
		ekeys, ecols, err := runs.ReadBlockFile(a.fs, filepath.Join(a.dir, epochFileName(e.Seq)), "checkpoint", width)
		if err != nil {
			t.Fatalf("epoch %d: %v", e.Seq, err)
		}
		rows := 0
		for _, c := range ecols[0] {
			rows += int(c)
		}
		want := epochOracle(a.layout, keys, cols, lo, lo+rows)
		if e.Records != uint64(len(want)) || len(ekeys) != len(want) {
			t.Fatalf("epoch %d (rows %d..%d): manifest records %d, file %d, want %d distinct keys",
				e.Seq, lo, lo+rows, e.Records, len(ekeys), len(want))
		}
		for i, k := range ekeys {
			st, ok := want[k]
			if !ok {
				t.Fatalf("epoch %d: key %d is not in rows %d..%d", e.Seq, k, lo, lo+rows)
			}
			for w := range st {
				if ecols[w][i] != st[w] {
					t.Fatalf("epoch %d key %d word %d = %d, want %d", e.Seq, k, w, ecols[w][i], st[w])
				}
			}
			delete(want, k)
		}
		lo += rows
	}
	return lo
}

func pushBlocks(t *testing.T, a *Aggregator, keys []uint64, cols [][]int64, lo, hi int, sizes []int, step *int) {
	t.Helper()
	for off := lo; off < hi; {
		end := min(off+sizes[*step%len(sizes)], hi)
		*step++
		b := Block{Keys: keys[off:end], Cols: [][]int64{cols[0][off:end], cols[1][off:end]}}
		if err := a.Push(context.Background(), b); err != nil {
			t.Fatalf("Push: %v", err)
		}
		off = end
	}
}

// TestTableFoldMatchesMapOracle pushes each input shape into a budgeted
// and an unbudgeted stream, with explicit checkpoints, row-count seals and
// (budgeted) pressure seals landing at every table size. After a
// Checkpoint every epoch file must equal the map oracle of its rows; the
// stream is then closed, resumed, fed the rest and finished against the
// whole-input oracle, and the ledger must drain to zero.
func TestTableFoldMatchesMapOracle(t *testing.T) {
	defer testutil.VerifyNoLeaks(t)
	const n = 12000
	rng := rand.New(rand.NewSource(99))
	_, cols := genInput(rng, "random", n, 1)
	for _, shape := range foldShapes(rng, n) {
		for _, budget := range []int64{0, 48 << 10} {
			t.Run(fmt.Sprintf("%s/budget%d", shape.name, budget), func(t *testing.T) {
				keys := shape.keys
				if rows := slices.Max(shape.blocks); budget > 0 &&
					blockBytes(Block{Keys: keys[:rows], Cols: cols})+foldBytes(rows, 6) > budget {
					t.Skip("block larger than the budget")
				}
				dir := t.TempDir()
				ctx := context.Background()
				a, err := Begin(Options{
					Dir: dir, Specs: allSpecs, NoSync: true,
					EpochMaxRows:      3001,
					MemoryBudgetBytes: budget,
				})
				if err != nil {
					t.Fatal(err)
				}
				step := 0
				pushBlocks(t, a, keys, cols, 0, n/3, shape.blocks, &step)
				if _, err := a.Checkpoint(ctx); err != nil {
					t.Fatal(err)
				}
				pushBlocks(t, a, keys, cols, n/3, 2*n/3, shape.blocks, &step)
				if _, err := a.Checkpoint(ctx); err != nil {
					t.Fatal(err)
				}
				if got := checkEpochs(t, a, keys, cols); got != 2*n/3 {
					t.Fatalf("epochs cover %d rows, want %d", got, 2*n/3)
				}
				if budget == 0 {
					if got, want := a.gov.Reserved(), a.acc.tab.FootprintBytes(); got != want {
						t.Fatalf("ledger holds %d bytes between epochs, table footprint is %d", got, want)
					}
				}
				// Rows after the last checkpoint die with Close; Resume
				// replays them from the durable offset.
				pushBlocks(t, a, keys, cols, 2*n/3, 5*n/6, shape.blocks, &step)
				if err := a.Close(); err != nil {
					t.Fatal(err)
				}
				if g := a.gov.Reserved(); g != 0 {
					t.Fatalf("ledger holds %d bytes after Close", g)
				}
				b, err := Resume(Options{Dir: dir, NoSync: true, EpochMaxRows: 3001, MemoryBudgetBytes: budget})
				if err != nil {
					t.Fatal(err)
				}
				durable := int(b.Progress().RowsDurable)
				pushBlocks(t, b, keys, cols, durable, n, shape.blocks, &step)
				if _, err := b.Checkpoint(ctx); err != nil {
					t.Fatal(err)
				}
				if got := checkEpochs(t, b, keys, cols); got != n {
					t.Fatalf("epochs cover %d rows after resume, want %d", got, n)
				}
				res, err := b.Finish(ctx)
				if err != nil {
					t.Fatal(err)
				}
				checkResult(t, allSpecs, res, keys, cols)
				if g := b.gov.Reserved(); g != 0 {
					t.Fatalf("ledger holds %d bytes after Finish", g)
				}
				if budget > 0 && b.Stats().EarlySeals == 0 && shape.name == "uniform" {
					t.Fatalf("budget %d never pressure-sealed: %+v", budget, b.Stats())
				}
			})
		}
	}
}

// TestAccumLedgerIsTableFootprint checks the ledger of an unbudgeted
// stream: once the queue has drained, the governor holds exactly the
// accumulator table's footprint, across growth and across seals (which
// keep the table), and nothing after Finish.
func TestAccumLedgerIsTableFootprint(t *testing.T) {
	defer testutil.VerifyNoLeaks(t)
	a, err := Begin(Options{Dir: t.TempDir(), Specs: allSpecs, NoSync: true, EpochMaxRows: 5000})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	keys, cols := genInput(rng, "random", 20000, 3000)
	ctx := context.Background()
	for off := 0; off < len(keys); off += 1000 {
		b := Block{Keys: keys[off : off+1000], Cols: [][]int64{cols[0][off : off+1000], cols[1][off : off+1000]}}
		if err := a.Push(ctx, b); err != nil {
			t.Fatal(err)
		}
		// Snapshot runs after the fold in queue order and returns its own
		// reservations before it replies, so only the table remains.
		if _, err := a.Snapshot(ctx, 1); err != nil {
			t.Fatal(err)
		}
		if got, want := a.gov.Reserved(), a.acc.tab.FootprintBytes(); got != want {
			t.Fatalf("after block %d: ledger holds %d bytes, table footprint is %d", off/1000, got, want)
		}
	}
	if a.Stats().EpochsSealed == 0 {
		t.Fatal("no epoch sealed")
	}
	res, err := a.Finish(ctx)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, allSpecs, res, keys, cols)
	if g := a.gov.Reserved(); g != 0 {
		t.Fatalf("ledger holds %d bytes after Finish", g)
	}
}

// TestTableAtTheCapFailsTyped: an accumulator table that stops short at
// hashtable.MaxSlots cannot grow, and the stream fails with the governor's
// typed budget error, holding no reservation for the refused growth. The
// test sets the table's logical capacity field to the cap in place of a
// 2^31-slot allocation; Grow refuses on that field alone.
func TestTableAtTheCapFailsTyped(t *testing.T) {
	defer testutil.VerifyNoLeaks(t)
	a, err := Begin(Options{Dir: t.TempDir(), Specs: allSpecs, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	ctx := context.Background()
	push := func(keys []uint64) error {
		vals := make([]int64, len(keys))
		return a.Push(ctx, Block{Keys: keys, Cols: [][]int64{vals, vals}})
	}
	if err := push(keyRange(0, 1)); err != nil {
		t.Fatal(err)
	}
	// The snapshot replies after the fold, so the table exists and the
	// consumer is idle until the next push.
	if _, err := a.Snapshot(ctx, 0); err != nil {
		t.Fatal(err)
	}
	capRows := reflect.ValueOf(a.acc.tab).Elem().FieldByName("capRows")
	*(*int)(unsafe.Pointer(capRows.UnsafeAddr())) = hashtable.MaxSlots
	if err := push(keyRange(1, 1000)); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Checkpoint(ctx); !errors.Is(err, memgov.ErrBudget) {
		t.Fatalf("Checkpoint after a refused growth = %v, want ErrBudget", err)
	}
	if got := a.gov.Reserved(); got != 0 {
		t.Fatalf("failed stream's ledger holds %d bytes", got)
	}
}

// TestWarmFoldAllocFree guards the steady state of the fold: with a warm
// table, a block whose keys are all present — through the raw insert and
// through the run pre-fold — allocates nothing.
func TestWarmFoldAllocFree(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector adds allocations")
	}
	defer testutil.VerifyNoLeaks(t)
	rng := rand.New(rand.NewSource(8))
	for _, pattern := range []string{"random", "sorted"} {
		a, err := Begin(Options{Dir: t.TempDir(), Specs: allSpecs, NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		keys, cols := genInput(rng, pattern, 4096, 1000)
		b := Block{Keys: keys, Cols: cols}
		// The consumer goroutine idles on the empty queue, so the test
		// goroutine may own the accumulator until it sends Close.
		a.fold(b)
		allocs := testing.AllocsPerRun(20, func() { a.fold(b) })
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
		if allocs != 0 {
			t.Fatalf("%s: warm fold allocates %.1f objects per block, want 0", pattern, allocs)
		}
	}
}

// TestFoldBytesMatchesScratch keeps the admission charge in step with the
// fold scratch sizeFold allocates (plus the table's int32 batch slot per
// row, which InsertRawBatch grows inside the table).
func TestFoldBytesMatchesScratch(t *testing.T) {
	for _, width := range []int{1, 2, 6} {
		var acc accum
		const n = 4096
		acc.sizeFold(n, width)
		got := 4*cap(acc.slots) + 8*cap(acc.segKeys) + 8*cap(acc.hashes) + 4*n
		for _, col := range acc.segStates {
			got += 8 * cap(col)
		}
		if want := foldBytes(n, width); int64(got) != want {
			t.Fatalf("width %d: fold scratch is %d bytes for %d rows, foldBytes says %d", width, got, n, want)
		}
	}
}
