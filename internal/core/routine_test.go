package core

import (
	"errors"
	"math"
	"testing"

	"cacheagg/internal/agg"
	"cacheagg/internal/datagen"
	"cacheagg/internal/memgov"
	"cacheagg/internal/testutil"
	"cacheagg/internal/xrand"
)

// fullSpecs is the complete aggregate alphabet: every fold kind, AVG
// included so the two-word exactness is covered.
func fullSpecs() []agg.Spec {
	return []agg.Spec{
		{Kind: agg.Count},
		{Kind: agg.Sum, Col: 0},
		{Kind: agg.Min, Col: 0},
		{Kind: agg.Max, Col: 0},
		{Kind: agg.Avg, Col: 0},
	}
}

func makeAggInput(dist datagen.Dist, n int, k uint64, seed uint64) *Input {
	keys := datagen.Generate(datagen.Spec{Dist: dist, N: n, K: k, Seed: seed})
	rng := xrand.NewXoshiro256(seed + 1)
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(rng.Next()%2001) - 1000
	}
	return &Input{Keys: keys, AggCols: [][]int64{vals}, Specs: fullSpecs()}
}

// TestAutoSelectsSortSpill: a trusted plan proving the finalized output
// exceeds the whole memory budget must fail fast with ErrMemoryBudget
// before intake burns a pass — the cacheagg layer turns that into the
// external sort-spill operator.
func TestAutoSelectsSortSpill(t *testing.T) {
	const n = 100000
	in := makeAggInput(datagen.Uniform, n, 90000, 3) // K̂ ≈ 90000 groups
	cfg := smallCfg(DefaultAdaptive())
	cfg.EnablePlan = true
	cfg.CollectStats = true
	cfg.Governor = memgov.New(256 << 10) // ≪ K̂ · chunkRow
	_, err := Aggregate(cfg, in)
	if !errors.Is(err, ErrMemoryBudget) {
		t.Fatalf("err = %v, want ErrMemoryBudget", err)
	}
	// The same budget with a forced partitioned routine must not take the
	// fail-fast exit; it may still run over budget mid-flight, but that is
	// the pre-existing abort path, also ErrMemoryBudget — what matters is
	// the sort-spill decision is selector-driven, not unconditional.
	cfg.Routine = RoutinePartitioned
	if _, err := Aggregate(cfg, in); err != nil && !errors.Is(err, ErrMemoryBudget) {
		t.Fatalf("forced partitioned: unexpected error class: %v", err)
	}
}

// TestAdversarialRoutinePlans mirrors PR 8's TestAdversarialPlans for the
// routine selector: corrupt injected plans (absurd K̂, zero/NaN/Inf α̂,
// drift-guard violations) must be sanitized — never a panic, never a
// livelock, never a wrong result. Without a memory budget every plan and
// every override short of sort-spill (an out-of-range value included)
// commits to the partitioned routine.
func TestAdversarialRoutinePlans(t *testing.T) {
	defer testutil.VerifyNoLeaks(t)
	const n = 50000
	in := makeAggInput(datagen.Zipf, n, 5000, 21)
	plans := []*Plan{
		nil,
		{},                                // zero plan: untrusted
		{SampleRows: -1, EstimatedK: 100}, // negative sample
		{SampleRows: 1024, EstimatedK: 0}, // zero K̂
		{SampleRows: 1024, EstimatedK: 1e300, HalfSampleK: 1e300, PredictedAlpha: 1e300},   // absurd K̂
		{SampleRows: 1024, EstimatedK: math.Inf(1), HalfSampleK: 1, PredictedAlpha: 1e9},   // Inf K̂
		{SampleRows: 1024, EstimatedK: 1000, HalfSampleK: 990, PredictedAlpha: math.NaN()}, // NaN α̂
		{SampleRows: 1024, EstimatedK: 1000, HalfSampleK: 990, PredictedAlpha: math.Inf(1)},
		{SampleRows: 1024, EstimatedK: 1000, HalfSampleK: 1, PredictedAlpha: 1e6},  // drift-guard violation
		{SampleRows: 1024, EstimatedK: 1000, HalfSampleK: 990, PredictedAlpha: -5}, // negative α̂
		{SampleRows: 1024, EstimatedK: 2, HalfSampleK: 2, PredictedAlpha: 1e12, TableRows: -9},
	}
	for pi, p := range plans {
		for _, rt := range []Routine{RoutineAuto, RoutinePartitioned, Routine(250)} {
			cfg := smallCfg(DefaultAdaptive())
			cfg.Workers = 4
			cfg.CollectStats = true
			cfg.Plan = p
			cfg.Routine = rt
			res, err := Aggregate(cfg, in)
			if err != nil {
				t.Fatalf("plan %d routine %d: %v", pi, rt, err)
			}
			checkResult(t, res, in)
			if res.Stats.Routine != RoutinePartitioned {
				t.Fatalf("plan %d routine %d: committed to %v", pi, rt, res.Stats.Routine)
			}
		}
	}
}

// TestRoutineStrings pins the wire names used by flags, stats and traces.
func TestRoutineStrings(t *testing.T) {
	want := map[Routine]string{
		RoutineAuto:        "auto",
		RoutinePartitioned: "partitioned",
		RoutineSortSpill:   "sort-spill",
		Routine(9):         "routine(9)",
	}
	for r, s := range want {
		if r.String() != s {
			t.Errorf("Routine(%d).String() = %q, want %q", uint8(r), r.String(), s)
		}
	}
}
