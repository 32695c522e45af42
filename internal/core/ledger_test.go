package core

// Tests of the fixed reservation on a ledger shared between runs: it
// waits for room below the budget, fails typed above it, and leaves the
// ledger as it found it when its context ends first.

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"cacheagg/internal/agg"
	"cacheagg/internal/memgov"
	"cacheagg/internal/sched"
)

// TestFloorIsTheFixedReservation pins Floor to what newExec reserves, over
// worker counts (GOMAXPROCS among them), morsel counts and the sizing a
// budgeted spill target applies; on a run's own governor the reservation
// never waits, even with the budget at exactly the floor.
func TestFloorIsTheFixedReservation(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	specs := []agg.Spec{{Kind: agg.Count}, {Kind: agg.Avg, Col: 0}}
	for _, rows := range []int{1, sched.DefaultGrain, 3*sched.DefaultGrain + 1} {
		keys, cols := budgetInput(rows, 100)
		in := &Input{Keys: keys, AggCols: cols, Specs: specs}
		for _, workers := range []int{0, 1, 4} {
			for _, spill := range []*Spill{nil, {Dir: t.TempDir()}} {
				cfg := Config{Workers: workers, CacheBytes: 1 << 20, Spill: spill,
					Governor: memgov.New(3 << 20)}.withDefaults()
				floor := Floor(cfg, rows, 3)
				if spill == nil {
					// Without a spill target the budget sizes nothing: at
					// exactly the floor, the run starts without waiting.
					cfg.Governor = memgov.New(floor)
				}
				e, err := newExec(context.Background(), cfg, in)
				if err != nil {
					t.Fatalf("rows %d workers %d spill %v: %v", rows, workers, spill != nil, err)
				}
				if e.fixedBytes != floor || cfg.Governor.Reserved() != floor {
					t.Fatalf("rows %d workers %d spill %v: floor %d, reserved %d (ledger %d)",
						rows, workers, spill != nil, floor, e.fixedBytes, cfg.Governor.Reserved())
				}
				e.releaseAccounting()
			}
		}
	}
}

// TestFixedReservationWaitsOnSharedLedger: on a ledger another holder has
// filled, a run waits for its fixed reservation instead of failing, and
// completes once the holder releases; the ledger drains to zero.
func TestFixedReservationWaitsOnSharedLedger(t *testing.T) {
	keys, cols := budgetInput(50000, 1000)
	in := &Input{Keys: keys, AggCols: cols, Specs: []agg.Spec{{Kind: agg.Sum, Col: 0}}}
	cfg := Config{Workers: 1, CacheBytes: 64 << 10}
	budget := 4 * Floor(cfg, len(keys), 1)
	gov := memgov.New(budget)
	cfg.Governor = gov
	gov.Reserve(budget)

	done := make(chan error, 1)
	go func() {
		_, err := AggregateContext(context.Background(), cfg, in)
		done <- err
	}()
	waitWaiting(t, gov, 1)
	select {
	case err := <-done:
		t.Fatalf("run returned %v while the ledger was full", err)
	default:
	}
	gov.Release(budget)
	if err := <-done; err != nil {
		t.Fatalf("run after the release: %v", err)
	}
	if r := gov.Reserved(); r != 0 {
		t.Fatalf("ledger = %d after the run, want 0", r)
	}
}

// TestFixedReservationCancelled: a run parked on a full shared ledger
// returns its context's error when cancelled and leaves the ledger as the
// holder had it, with nobody waiting.
func TestFixedReservationCancelled(t *testing.T) {
	keys, cols := budgetInput(50000, 1000)
	in := &Input{Keys: keys, AggCols: cols, Specs: []agg.Spec{{Kind: agg.Sum, Col: 0}}}
	cfg := Config{Workers: 1, CacheBytes: 64 << 10}
	budget := 4 * Floor(cfg, len(keys), 1)
	gov := memgov.New(budget)
	cfg.Governor = gov
	gov.Reserve(budget)
	defer gov.Release(budget)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := AggregateContext(ctx, cfg, in)
		done <- err
	}()
	waitWaiting(t, gov, 1)
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if r, w := gov.Reserved(), gov.Waiting(); r != budget || w != 0 {
		t.Fatalf("ledger %d with %d waiting, want the holder's %d and 0", r, w, budget)
	}
}

// waitWaiting polls until n goroutines wait on gov's ledger.
func waitWaiting(t *testing.T, gov *memgov.Governor, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for gov.Waiting() != n {
		if time.Now().After(deadline) {
			t.Fatalf("%d waiters on the ledger, want %d", gov.Waiting(), n)
		}
		time.Sleep(time.Millisecond)
	}
}
