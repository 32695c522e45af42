package core

// Tests for the recycled run and output storage: results never alias the
// free lists, failed runs leave nothing behind for the next one, and the
// bytes an op allocates stay proportional to its input.

import (
	"context"
	"errors"
	"math"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"testing"

	"cacheagg/internal/agg"
	"cacheagg/internal/datagen"
	"cacheagg/internal/memgov"
	"cacheagg/internal/testutil"
	"cacheagg/internal/xrand"
)

// recycleSpecs is COUNT, SUM(c0), MIN(c1), AVG(c1): every state-word
// operation and the two-word AVG state.
var recycleSpecs = []agg.Spec{
	{Kind: agg.Count},
	{Kind: agg.Sum, Col: 0},
	{Kind: agg.Min, Col: 1},
	{Kind: agg.Avg, Col: 1},
}

// recycleInput draws n uniform keys over k groups and two value columns.
func recycleInput(n int, k uint64, seed uint64) *Input {
	keys := datagen.Generate(datagen.Spec{Dist: datagen.Uniform, N: n, K: k, Seed: seed})
	rng := xrand.NewXoshiro256(seed)
	c0 := make([]int64, n)
	c1 := make([]int64, n)
	for i := range c0 {
		r := rng.Next()
		c0[i] = int64(r % 1000)
		c1[i] = int64((r>>32)%4096) - 2048
	}
	return &Input{Keys: keys, AggCols: [][]int64{c0, c1}, Specs: recycleSpecs}
}

func cloneResult(r *Result) *Result {
	c := &Result{
		Keys:      append([]uint64(nil), r.Keys...),
		Hashes:    append([]uint64(nil), r.Hashes...),
		Aggs:      make([][]int64, len(r.Aggs)),
		AggsFloat: make([][]float64, len(r.AggsFloat)),
	}
	for i := range r.Aggs {
		c.Aggs[i] = append([]int64(nil), r.Aggs[i]...)
		if r.AggsFloat[i] != nil {
			c.AggsFloat[i] = append([]float64(nil), r.AggsFloat[i]...)
		}
	}
	return c
}

func sameResult(a, b *Result) bool {
	if len(a.Keys) != len(b.Keys) || len(a.Hashes) != len(b.Hashes) {
		return false
	}
	for i := range a.Keys {
		if a.Keys[i] != b.Keys[i] || a.Hashes[i] != b.Hashes[i] {
			return false
		}
	}
	for s := range a.Aggs {
		for i := range a.Aggs[s] {
			if a.Aggs[s][i] != b.Aggs[s][i] ||
				math.Float64bits(a.Float(s, i)) != math.Float64bits(b.Float(s, i)) {
				return false
			}
		}
	}
	return true
}

// TestResultsDoNotAliasRecycledStorage: ops that share worker kits reuse
// each other's run and output columns, so a result handed out earlier must
// not change when later ops run over different keys.
func TestResultsDoNotAliasRecycledStorage(t *testing.T) {
	cfg := Config{Workers: 4, CacheBytes: 64 << 10}
	a, err := Aggregate(cfg, recycleInput(1<<16, 1<<15, 1))
	if err != nil {
		t.Fatal(err)
	}
	want := cloneResult(a)
	for i, in := range []*Input{recycleInput(1<<16, 1<<14, 2), recycleInput(3<<15, 1<<16, 3)} {
		res, err := Aggregate(cfg, in)
		if err != nil {
			t.Fatal(err)
		}
		checkResult(t, res, in)
		if !sameResult(a, want) {
			t.Fatalf("result of op A changed after op %d ran", i+1)
		}
	}
}

// TestCleanRunAfterAbortedRunsMatchesReference: a cancelled run and a run
// over its memory budget drop their storage; the clean run after each must
// still be exact.
func TestCleanRunAfterAbortedRunsMatchesReference(t *testing.T) {
	cfg := Config{Workers: 4, CacheBytes: 32 << 10}
	// About 1.5 k rows per root bucket: over the leaf size at this cache
	// budget, so the recursion reaches level 1 and recycles there too.
	in := recycleInput(400000, 1<<18, 4)
	clean := func() {
		t.Helper()
		res, err := Aggregate(cfg, in)
		if err != nil {
			t.Fatal(err)
		}
		checkResult(t, res, in)
	}
	clean() // fill the kit pool

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cancelled := cfg
	cancelled.Strategy = cancelStrategy{cancel: cancel, level: 1, after: 3, calls: new(atomic.Int64)}
	if _, err := AggregateContext(ctx, cancelled, in); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	clean()

	probe := memgov.New(0)
	probeCfg := cfg
	probeCfg.Governor = probe
	if _, err := Aggregate(probeCfg, &Input{Keys: []uint64{1}, AggCols: [][]int64{{0}, {0}}, Specs: recycleSpecs}); err != nil {
		t.Fatal(err)
	}
	budgeted := cfg
	budgeted.Governor = memgov.New(probe.HighWater() + 64<<10)
	if _, err := Aggregate(budgeted, in); !errors.Is(err, ErrMemoryBudget) {
		t.Fatalf("err = %v, want ErrMemoryBudget", err)
	}
	clean()
}

// TestPartitioningAllocStaysProportional: an op that partitions allocates
// about its result, not 256 full chunks per column — run storage grows with
// the data and is reused from the previous op. At one worker the finalize
// round runs inline, so this also pins that it adds no mallocs.
func TestPartitioningAllocStaysProportional(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector drops pooled worker kits at random")
	}
	const n, k, ops = 1 << 16, 1 << 15, 5
	in := recycleInput(n, k, 5)
	inputBytes := float64(n * (8 + 8*len(in.AggCols)))
	cfg := Config{Workers: 1}
	// One P: a sync.Pool entry put on one P is not seen by a Get on
	// another, and the kit must come back to the next op.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if _, err := Aggregate(cfg, in); err != nil { // warm the kit pool
		t.Fatal(err)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range ops {
		if _, err := Aggregate(cfg, in); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perOp := float64(after.TotalAlloc-before.TotalAlloc) / ops / inputBytes
	mallocs := (after.Mallocs - before.Mallocs) / ops
	t.Logf("%.2f× input bytes and %d mallocs per op", perOp, mallocs)
	// The result is made once at its exact size, with a float column for
	// AVG only.
	if perOp > 2 {
		t.Errorf("an op allocates %.2f× its input bytes, want ≤ 2×", perOp)
	}
	// 5976 is this op's count with full 4096-row chunks and no free list:
	// smaller chunks must not cost more allocations than they save.
	if mallocs > 5976 {
		t.Errorf("an op makes %d mallocs, want ≤ 5976", mallocs)
	}
}
