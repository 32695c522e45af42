package core

// Tests for the memory-governor integration: byte accounting, the typed
// over-budget abort, and the documented overshoot slack.

import (
	"context"
	"errors"
	"testing"

	"cacheagg/internal/agg"
	"cacheagg/internal/hashfn"
	"cacheagg/internal/memgov"
	"cacheagg/internal/partition"
)

func budgetInput(n, groups int) ([]uint64, [][]int64) {
	keys := make([]uint64, n)
	vals := make([]int64, n)
	for i := range keys {
		keys[i] = uint64(i % groups)
		vals[i] = int64(i)
	}
	return keys, [][]int64{vals}
}

func TestUnlimitedGovernorAccountsWithoutFailing(t *testing.T) {
	gov := memgov.New(0) // unlimited: pure accounting
	keys, cols := budgetInput(200000, 50000)
	cfg := Config{Workers: 4, CacheBytes: 64 << 10, Governor: gov}
	res, err := Aggregate(cfg, &Input{
		Keys:    keys,
		AggCols: cols,
		Specs:   []agg.Spec{{Kind: agg.Sum, Col: 0}},
	})
	if err != nil {
		t.Fatalf("unlimited governor must never fail a run: %v", err)
	}
	if res.Groups() != 50000 {
		t.Fatalf("groups = %d, want 50000", res.Groups())
	}
	if gov.HighWater() == 0 {
		t.Fatal("governor saw no reservations")
	}
	// Fixed machinery alone is several hundred KiB for 4 workers; the
	// high-water mark must at least cover it.
	if gov.HighWater() < 4*(64<<10) {
		t.Fatalf("high water %d implausibly low", gov.HighWater())
	}
}

func TestTinyBudgetFailsWithTypedError(t *testing.T) {
	// A budget far below even the fixed per-worker machinery must be
	// rejected up front with ErrMemoryBudget.
	gov := memgov.New(4 << 10)
	keys, cols := budgetInput(1000, 100)
	cfg := Config{Workers: 2, CacheBytes: 32 << 10, Governor: gov}
	_, err := Aggregate(cfg, &Input{
		Keys:    keys,
		AggCols: cols,
		Specs:   []agg.Spec{{Kind: agg.Sum, Col: 0}},
	})
	if !errors.Is(err, ErrMemoryBudget) {
		t.Fatalf("err = %v, want ErrMemoryBudget", err)
	}
}

func TestMidRunBudgetAbortIsTyped(t *testing.T) {
	// A budget that admits the fixed machinery but not the materialized
	// intermediates must abort mid-run — cooperatively, with the typed
	// error, not a panic.
	keys, cols := budgetInput(400000, 400000) // all-distinct: max intermediates
	cfg := Config{Workers: 2, CacheBytes: 32 << 10}

	// Find the fixed cost first with an unlimited probe on a trivial input.
	probe := memgov.New(0)
	probeCfg := cfg
	probeCfg.Governor = probe
	if _, err := Aggregate(probeCfg, &Input{Keys: []uint64{1}}); err != nil {
		t.Fatal(err)
	}

	// Budget: fixed machinery plus a sliver — nowhere near 400k distinct
	// rows of intermediates (≥ 6 MB).
	gov := memgov.New(probe.HighWater() + 64<<10)
	cfg.Governor = gov
	_, err := Aggregate(cfg, &Input{
		Keys:    keys,
		AggCols: cols,
		Specs:   []agg.Spec{{Kind: agg.Sum, Col: 0}},
	})
	if !errors.Is(err, ErrMemoryBudget) {
		t.Fatalf("err = %v, want ErrMemoryBudget", err)
	}
	// Overshoot is bounded: checks run once per morsel per worker, and a
	// worker's cache batches at most DefaultCacheGrain before flushing.
	// One morsel (16384 rows) of all-distinct Sum rows costs 16 bytes each.
	slack := int64(2) * (16384*16 + memgov.DefaultCacheGrain + 64<<10)
	if gov.HighWater() > gov.Budget()+slack {
		t.Fatalf("high water %d exceeds budget %d + slack %d",
			gov.HighWater(), gov.Budget(), slack)
	}
}

func TestGovernorResultMatchesUngovernedRun(t *testing.T) {
	// Accounting must be observation-only: same input, same result, with
	// and without a (sufficient) governor.
	keys, cols := budgetInput(50000, 1000)
	in := &Input{Keys: keys, AggCols: cols, Specs: []agg.Spec{{Kind: agg.Min, Col: 0}}}
	plain, err := Aggregate(Config{Workers: 2, CacheBytes: 32 << 10}, in)
	if err != nil {
		t.Fatal(err)
	}
	gov := memgov.New(1 << 30)
	ruled, err := Aggregate(Config{Workers: 2, CacheBytes: 32 << 10, Governor: gov}, in)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Groups() != ruled.Groups() {
		t.Fatalf("groups differ: %d vs %d", plain.Groups(), ruled.Groups())
	}
	want := map[uint64]int64{}
	for i, k := range plain.Keys {
		want[k] = plain.Aggs[0][i]
	}
	for i, k := range ruled.Keys {
		if v, ok := want[k]; !ok || v != ruled.Aggs[0][i] {
			t.Fatalf("key %d: %d vs %d (ok=%v)", k, ruled.Aggs[0][i], v, ok)
		}
	}
	if gov.OverBudget() {
		t.Fatal("1 GiB budget must not be exceeded by a 50k-row input")
	}
}

// TestFootprintMatchesReservation pins Footprint to the bytes a governed
// run reserves up front, and both to the live machinery of the workers:
// their tables, intake and row scratch, plus the scatterers' SWC buffers.
func TestFootprintMatchesReservation(t *testing.T) {
	widths := []struct {
		words int
		specs []agg.Spec
	}{
		{1, []agg.Spec{{Kind: agg.Count}}},
		{5, []agg.Spec{{Kind: agg.Count}, {Kind: agg.Sum}, {Kind: agg.Min}, {Kind: agg.Avg}}},
		{9, []agg.Spec{{Kind: agg.Count}, {Kind: agg.Sum}, {Kind: agg.Min}, {Kind: agg.Max},
			{Kind: agg.Avg}, {Kind: agg.Avg}, {Kind: agg.Sum}}},
	}
	// Four morsels, so the pool is as wide as asked for.
	keys, cols := budgetInput(1000, 100)
	for _, wd := range widths {
		for _, cache := range []int{64 << 10, 1 << 20, 4 << 20} {
			for workers := 1; workers <= 4; workers++ {
				cfg := Config{Workers: workers, CacheBytes: cache, MorselRows: 250, Governor: memgov.New(0)}.withDefaults()
				e, err := newExec(context.Background(), cfg, &Input{Keys: keys, AggCols: cols, Specs: wd.specs})
				if err != nil {
					t.Fatal(err)
				}
				if e.words != wd.words || len(e.workers) != workers {
					t.Fatalf("exec has %d words, %d workers; want %d, %d", e.words, len(e.workers), wd.words, workers)
				}
				fixed, perRow := Footprint(cfg, wd.words)
				if got := int64(workers) * fixed; got != e.fixedBytes {
					t.Errorf("words %d cache %d workers %d: Workers·fixed = %d, reserved %d",
						wd.words, cache, workers, got, e.fixedBytes)
				}
				if perRow != e.chunkRow {
					t.Errorf("words %d: perRow = %d, chunk row %d", wd.words, perRow, e.chunkRow)
				}
				live := int64(0)
				for w := range e.workers {
					ws := &e.workers[w]
					live += ws.table.FootprintBytes()
					live += 8 * int64(cap(ws.hashScratch)+cap(ws.rowScratch))
					live += int64(hashfn.Fanout*partition.DefaultBufRows*8*(1+wd.words)) + partition.ScratchBytes
				}
				if live != e.fixedBytes {
					t.Errorf("words %d cache %d workers %d: live machinery %d, reserved %d",
						wd.words, cache, workers, live, e.fixedBytes)
				}
			}
		}
	}
}
