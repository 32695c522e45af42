package cacheagg

// Public-surface robustness tests: panic containment, cancellation, and
// spill cleanup as seen by a library user.

import (
	"context"
	"errors"
	"os"
	"strings"
	"sync/atomic"
	"testing"

	"cacheagg/internal/core"
	"cacheagg/internal/testutil"
)

// panicInnerStrategy explodes inside a worker task (the task-local state
// factory runs on the pool), standing in for any buggy strategy or
// aggregate implementation.
type panicInnerStrategy struct{}

func (panicInnerStrategy) Name() string { return "panic" }
func (panicInnerStrategy) NewState(level, cacheRows int) core.StrategyState {
	panic("user strategy exploded")
}

func TestAggregateContainsTaskPanic(t *testing.T) {
	// The process must survive (the test keeps running) and all workers
	// must exit — the leak checker verifies the latter at cleanup.
	testutil.VerifyNoLeaks(t)
	res, err := Aggregate(Input{GroupBy: []uint64{1, 2, 3, 1, 2}}, Options{
		Strategy: Strategy{inner: panicInnerStrategy{}},
		Workers:  4,
	})
	if err == nil {
		t.Fatal("panic inside the pool must come back as an error")
	}
	if res != nil {
		t.Fatal("failed aggregation returned a result")
	}
	if !strings.Contains(err.Error(), "user strategy exploded") {
		t.Fatalf("error lost the panic value: %v", err)
	}
}

func TestAggregateContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := AggregateContext(ctx, Input{GroupBy: []uint64{1, 2, 3}}, opts())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestAggregateContextMatchesPlain(t *testing.T) {
	keys := make([]uint64, 10000)
	vals := make([]int64, len(keys))
	for i := range keys {
		keys[i] = uint64(i % 97)
		vals[i] = int64(i)
	}
	in := Input{GroupBy: keys, Columns: [][]int64{vals},
		Aggregates: []AggSpec{{Func: Count}, {Func: Sum, Col: 0}}}
	plain, err := Aggregate(in, opts())
	if err != nil {
		t.Fatal(err)
	}
	ctxed, err := AggregateContext(context.Background(), in, opts())
	if err != nil {
		t.Fatal(err)
	}
	if plain.Len() != 97 || ctxed.Len() != plain.Len() {
		t.Fatalf("groups: plain %d, ctx %d", plain.Len(), ctxed.Len())
	}
	for i := range plain.Groups {
		if plain.Groups[i] != ctxed.Groups[i] || plain.Aggs[1][i] != ctxed.Aggs[1][i] {
			t.Fatalf("row %d differs", i)
		}
	}
}

// cancellingStrategy cancels the run from inside a worker after a few
// task-state creations — mid-aggregation, deterministically.
type cancellingStrategy struct {
	cancel context.CancelFunc
	calls  *atomic.Int64
}

func (cancellingStrategy) Name() string { return "cancelling" }
func (c cancellingStrategy) NewState(level, cacheRows int) core.StrategyState {
	if c.calls.Add(1) == 3 {
		c.cancel()
	}
	return core.DefaultAdaptive().NewState(level, cacheRows)
}

func TestAggregateExternalContextCancelCleansSpill(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	dir := t.TempDir()
	// Every level-0 bucket spills at the end of intake and outgrows a
	// 32 KiB cache's leaf, so the third strategy state — after the two of
	// intake — belongs to a bucket being read back: the cancel lands
	// while spill files are on disk.
	keys := make([]uint64, 400000)
	for i := range keys {
		keys[i] = uint64(i)
	}
	_, err := AggregateExternalContext(ctx, Input{GroupBy: keys}, Options{
		Strategy:   Strategy{inner: cancellingStrategy{cancel: cancel, calls: new(atomic.Int64)}},
		Workers:    2,
		CacheBytes: 32 << 10,
	}, ExternalOptions{MemoryBudgetRows: 5000, TempDir: dir})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	ents, readErr := os.ReadDir(dir)
	if readErr != nil {
		t.Fatal(readErr)
	}
	if len(ents) != 0 {
		t.Fatalf("%d spill entries left behind after cancellation", len(ents))
	}
}

func TestAggregateExternalMaxSpillBytes(t *testing.T) {
	keys := make([]uint64, 50000)
	for i := range keys {
		keys[i] = uint64(i)
	}
	_, err := AggregateExternal(Input{GroupBy: keys}, Options{Workers: 2},
		ExternalOptions{MemoryBudgetRows: 5000, MaxSpillBytes: 1024})
	if err == nil {
		t.Fatal("tiny spill budget must fail fast")
	}
	if !strings.Contains(err.Error(), "spill budget exceeded") {
		t.Fatalf("err = %v, want a descriptive spill-budget error", err)
	}
}
