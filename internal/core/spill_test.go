package core

// Tests of the spill tier: results under a sweep of budgets, the sizing
// rule, and cancellation and I/O faults while spilled buckets are read
// back.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"testing"

	"cacheagg/internal/agg"
	"cacheagg/internal/datagen"
	"cacheagg/internal/faultfs"
	"cacheagg/internal/memgov"
	"cacheagg/internal/runs"
	"cacheagg/internal/testutil"
)

var spillSpecs = []agg.Spec{
	{Kind: agg.Count}, {Kind: agg.Sum, Col: 0}, {Kind: agg.Min, Col: 0},
	{Kind: agg.Max, Col: 0}, {Kind: agg.Avg, Col: 0},
}

func spillInput(dist datagen.Dist, n int, k uint64) *Input {
	keys := datagen.Generate(datagen.Spec{Dist: dist, N: n, K: k, Seed: 17})
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i%2001) - 1000
	}
	return &Input{Keys: keys, AggCols: [][]int64{vals}, Specs: spillSpecs}
}

// spillAcc is one group of the map oracle.
type spillAcc struct{ n, sum, lo, hi int64 }

// spillOracle folds the input into a map: COUNT, SUM, MIN and MAX, with
// AVG exact from SUM and COUNT.
func spillOracle(in *Input) map[uint64]*spillAcc {
	want := map[uint64]*spillAcc{}
	for i, k := range in.Keys {
		v := in.AggCols[0][i]
		a := want[k]
		if a == nil {
			a = &spillAcc{lo: v, hi: v}
			want[k] = a
		}
		a.n++
		a.sum += v
		a.lo, a.hi = min(a.lo, v), max(a.hi, v)
	}
	return want
}

// checkOracle compares a result with the map oracle, the exact AVG
// included.
func checkOracle(t *testing.T, label string, res *Result, want map[uint64]*spillAcc) {
	t.Helper()
	if res.Groups() != len(want) {
		t.Fatalf("%s: %d groups, want %d", label, res.Groups(), len(want))
	}
	for r, k := range res.Keys {
		a := want[k]
		if a == nil {
			t.Fatalf("%s: phantom key %d", label, k)
		}
		got := [4]int64{res.Aggs[0][r], res.Aggs[1][r], res.Aggs[2][r], res.Aggs[3][r]}
		if got != [4]int64{a.n, a.sum, a.lo, a.hi} {
			t.Fatalf("%s: key %d: %v, want %v", label, k, got, [4]int64{a.n, a.sum, a.lo, a.hi})
		}
		if f := res.Float(4, r); f != float64(a.sum)/float64(a.n) {
			t.Fatalf("%s: key %d: avg %v, want %v", label, k, f, float64(a.sum)/float64(a.n))
		}
	}
}

// TestSpillBudgetSweep runs budgets from just above the machinery to
// roomy, and no byte budget at all (every level-0 bucket spills), at one
// and two workers: every result equals the map oracle, and every run that
// spilled says so, is in total hash order and drains its ledger.
func TestSpillBudgetSweep(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	for _, dist := range []datagen.Dist{datagen.Uniform, datagen.Zipf} {
		in := spillInput(dist, 40000, 20000)
		want := spillOracle(in)
		for _, workers := range []int{1, 2} {
			base := Config{Workers: workers, CacheBytes: 64 << 10, CollectStats: true}
			fixed, _ := Footprint(base, 6)
			spilled := 0
			for _, budget := range []int64{fixed + 512<<10, 5 << 19, 64 << 20, 0} {
				cfg := base
				cfg.Governor = memgov.New(budget)
				cfg.Spill = &Spill{Dir: t.TempDir()}
				label := fmt.Sprintf("%v/w%d/%d", dist, workers, budget)
				res, err := Aggregate(cfg, in)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				checkOracle(t, label, res, want)
				if res.Spill.Buckets == 0 {
					continue
				}
				spilled++
				if res.Spill.Rows == 0 {
					t.Fatalf("%s: spilled %d buckets of 0 rows", label, res.Spill.Buckets)
				}
				for i := 1; i < len(res.Hashes); i++ {
					if res.Hashes[i] <= res.Hashes[i-1] {
						t.Fatalf("%s: hash order broken at row %d", label, i)
					}
				}
				if got := cfg.Governor.Reserved(); got != 0 {
					t.Fatalf("%s: %d bytes still reserved", label, got)
				}
			}
			if spilled < 3 {
				t.Fatalf("%v/w%d: only %d runs of the sweep spilled", dist, workers, spilled)
			}
		}
	}
}

// TestSpillSortSpillForced: a spill target without a byte budget sends
// every level-0 bucket through disk once.
func TestSpillSortSpillForced(t *testing.T) {
	in := spillInput(datagen.Uniform, 30000, 5000)
	res, err := Aggregate(Config{
		Workers: 2, CacheBytes: 64 << 10, CollectStats: true,
		Governor: memgov.New(0), Spill: &Spill{Dir: t.TempDir()},
	}, in)
	if err != nil {
		t.Fatal(err)
	}
	checkOracle(t, "forced", res, spillOracle(in))
	if res.Spill.ResidentRoots != 0 || res.Spill.Buckets != 256 || res.Spill.DeepestRead != 1 {
		t.Fatalf("spill stats %+v: want every level-0 bucket spilled once and read at level 1", res.Spill)
	}
}

// TestSpillDerivedFromBudget pins the rule that decides whether a run goes
// through disk, which is derived from its inputs rather than chosen: a
// spill target without a byte budget (nil governor or a zero budget)
// spills every non-empty level-0 bucket, a spill target with a generous
// budget spills nothing, and no spill target never spills. Each run is
// compared key by key with an in-memory run, the float bits of AVG
// included, at one and two workers.
func TestSpillDerivedFromBudget(t *testing.T) {
	for _, dist := range []datagen.Dist{datagen.Uniform, datagen.Zipf} {
		in := spillInput(dist, 30000, 3000)
		for _, workers := range []int{1, 2} {
			base := Config{Workers: workers, CacheBytes: 64 << 10}
			ref, err := Aggregate(base, in)
			if err != nil {
				t.Fatal(err)
			}
			for _, run := range []struct {
				name   string
				gov    *memgov.Governor
				target bool
				spills bool
			}{
				{"target, nil governor", nil, true, true},
				{"target, zero budget", memgov.New(0), true, true},
				{"target, generous budget", memgov.New(256 << 20), true, false},
				{"no target, zero budget", memgov.New(0), false, false},
				{"no target, generous budget", memgov.New(256 << 20), false, false},
			} {
				label := fmt.Sprintf("%v/w%d/%s", dist, workers, run.name)
				cfg := base
				cfg.Governor = run.gov
				if run.target {
					cfg.Spill = &Spill{Dir: t.TempDir()}
				}
				res, err := Aggregate(cfg, in)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				sameGroups(t, label, res, ref)
				sp := res.Spill
				if !run.spills {
					if sp.Buckets != 0 || sp.Rows != 0 {
						t.Fatalf("%s: spilled %d buckets, %d rows; want none", label, sp.Buckets, sp.Rows)
					}
					continue
				}
				if sp.ResidentRoots != 0 || sp.Buckets < 1 || sp.Rows < int64(res.Groups()) {
					t.Fatalf("%s: spill stats %+v; want every non-empty level-0 bucket spilled", label, sp)
				}
			}
		}
	}
}

// sameGroups compares res with ref key by key: hash, every integer
// aggregate and the float bits of every float.
func sameGroups(t *testing.T, label string, res, ref *Result) {
	t.Helper()
	if res.Groups() != ref.Groups() {
		t.Fatalf("%s: %d groups, want %d", label, res.Groups(), ref.Groups())
	}
	row := make(map[uint64]int, ref.Groups())
	for r, k := range ref.Keys {
		row[k] = r
	}
	for r, k := range res.Keys {
		q, ok := row[k]
		if !ok {
			t.Fatalf("%s: phantom key %d", label, k)
		}
		if res.Hashes[r] != ref.Hashes[q] {
			t.Fatalf("%s: key %d: hash %#x, want %#x", label, k, res.Hashes[r], ref.Hashes[q])
		}
		for a := range ref.Aggs {
			if res.Aggs[a][r] != ref.Aggs[a][q] || math.Float64bits(res.Float(a, r)) != math.Float64bits(ref.Float(a, q)) {
				t.Fatalf("%s: key %d spec %d: %d/%v, want %d/%v", label, k, a,
					res.Aggs[a][r], res.Float(a, r), ref.Aggs[a][q], ref.Float(a, q))
			}
		}
	}
}

// TestSpillSizingFromBudget pins the sizing rule to Footprint. In the
// shape of an external run at 3 MiB (width 5, 64 KiB cache) one worker's
// machinery — its SWC buffers alone are 786 432 bytes — leaves room for a
// single worker whatever was asked for, and the cache stays as given. A
// roomier budget caps the workers at budget / (3·fixed) and the cache at
// an eighth of the budget per worker: at width 1 fixed is 341 248 bytes
// (the 2,048-slot floor table at 17-byte hash-only slots, 34 816 bytes,
// the 32 KiB hash block, and the scatterer's 256 KiB of SWC buffers and
// 11 KiB of mapping scratch), so 16 MiB holds 16 workers.
func TestSpillSizingFromBudget(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		c := sizeForSpill(Config{Workers: workers, CacheBytes: 64 << 10}, 5, 3<<20)
		if c.Workers != 1 || c.CacheBytes != 64<<10 {
			t.Errorf("Workers %d: sized to %d workers, cache %d; want 1, %d",
				workers, c.Workers, c.CacheBytes, 64<<10)
		}
	}
	fixed, _ := Footprint(Config{CacheBytes: minSpillCacheBytes}, 1)
	c := sizeForSpill(Config{Workers: 16, CacheBytes: DefaultCacheBytes}, 1, 16<<20)
	if want := int((16 << 20) / (3 * fixed)); c.Workers != want || want != 16 || fixed != 341248 {
		t.Errorf("16 MiB at width 1: %d workers, want %d (fixed %d)", c.Workers, want, fixed)
	}
	if want := (16 << 20) / (8 * c.Workers); c.CacheBytes != want {
		t.Errorf("16 MiB at width 1: cache %d, want %d", c.CacheBytes, want)
	}
}

// cancelOnOpen cancels a context the first time a file is opened: the
// first read-back of a spilled bucket.
type cancelOnOpen struct {
	faultfs.FS
	cancel context.CancelFunc
}

func (c cancelOnOpen) Open(name string) (faultfs.File, error) {
	c.cancel()
	return c.FS.Open(name)
}

// spilledRun spills every level-0 bucket (no byte budget), and the buckets
// outgrow a leaf, so every one of them is read back block by block in
// phase B.
func spilledRun(ctx context.Context, dir string, fs faultfs.FS) error {
	keys := make([]uint64, 600000)
	for i := range keys {
		keys[i] = uint64(i)
	}
	_, err := AggregateContext(ctx, Config{
		Workers: 2, CacheBytes: 32 << 10,
		Governor: memgov.New(0), Spill: &Spill{Dir: dir, FS: fs},
	}, &Input{Keys: keys})
	return err
}

func assertEmpty(t *testing.T, dir string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("%d entries left in the spill target", len(ents))
	}
}

// TestSpillReadBackCancelled cancels while the spilled buckets are read
// back: the run returns the cancellation, and no spill file and no
// goroutine survive it.
func TestSpillReadBackCancelled(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	dir := t.TempDir()
	err := spilledRun(ctx, dir, cancelOnOpen{FS: faultfs.OS(), cancel: cancel})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	assertEmpty(t, dir)
}

// TestSpillReadBackFaults injects a fault at every read-back I/O site —
// the first and a later open, a block read mid-file, the close of a read
// file — and at the spill side's create, write and close: each surfaces
// as the injected error and leaves no spill file and no goroutine. A
// failed removal is counted, not fatal.
func TestSpillReadBackFaults(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	probe := faultfs.NewInjector(faultfs.OS(), faultfs.OpCreate, 0)
	if err := spilledRun(context.Background(), t.TempDir(), probe); err != nil {
		t.Fatal(err)
	}
	for _, site := range []struct {
		op faultfs.Op
		n  int
	}{
		{faultfs.OpOpen, 1},
		{faultfs.OpOpen, probe.Count(faultfs.OpOpen)},
		{faultfs.OpRead, probe.Count(faultfs.OpRead) / 2},
		{faultfs.OpClose, probe.Count(faultfs.OpClose)},
		{faultfs.OpCreate, 2},
		{faultfs.OpWrite, probe.Count(faultfs.OpWrite) / 2},
		{faultfs.OpClose, 1},
	} {
		inj := faultfs.NewInjector(faultfs.OS(), site.op, site.n)
		dir := t.TempDir()
		err := spilledRun(context.Background(), dir, inj)
		var ie *faultfs.InjectedError
		if !inj.Triggered() || !errors.As(err, &ie) {
			t.Fatalf("%v #%d: triggered %v, err = %v; want the injected fault", site.op, site.n, inj.Triggered(), err)
		}
		assertEmpty(t, dir)
	}

	inj := faultfs.NewInjector(faultfs.OS(), faultfs.OpRemove, 3)
	keys := make([]uint64, 20000)
	for i := range keys {
		keys[i] = uint64(i)
	}
	res, err := Aggregate(Config{
		Workers: 2, Governor: memgov.New(0), Spill: &Spill{Dir: t.TempDir(), FS: inj},
	}, &Input{Keys: keys})
	if err != nil || res.Spill.CleanupFailures != 1 || res.Groups() != len(keys) {
		t.Fatalf("remove fault: err %v, %d cleanup failures, %d groups", err, res.Spill.CleanupFailures, res.Groups())
	}
}

// TestSpillCorruptReadBackTyped: a spill file damaged between its write and
// its read-back fails the run with ErrCorruptSpill.
func TestSpillCorruptReadBackTyped(t *testing.T) {
	dir := t.TempDir()
	keys := make([]uint64, 20000)
	for i := range keys {
		keys[i] = uint64(i)
	}
	_, err := Aggregate(Config{
		Workers: 1, Governor: memgov.New(0),
		Spill: &Spill{Dir: dir, FS: corruptOnOpen{faultfs.OS()}},
	}, &Input{Keys: keys})
	if !errors.Is(err, runs.ErrCorruptSpill) {
		t.Fatalf("err = %v, want ErrCorruptSpill", err)
	}
	assertEmpty(t, dir)
}

// corruptOnOpen flips a byte of every file's first block before opening it.
type corruptOnOpen struct{ faultfs.FS }

func (c corruptOnOpen) Open(name string) (faultfs.File, error) {
	raw, err := os.ReadFile(name)
	if err != nil {
		return nil, err
	}
	raw[len(raw)/2] ^= 0x10
	if err := os.WriteFile(name, raw, 0o600); err != nil {
		return nil, err
	}
	return c.FS.Open(name)
}
