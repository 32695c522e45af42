package core

import (
	"fmt"
	"math"
	"testing"

	"cacheagg/internal/agg"
	"cacheagg/internal/datagen"
	"cacheagg/internal/hashfn"
	"cacheagg/internal/memgov"
	"cacheagg/internal/sketch"
	"cacheagg/internal/trace"
)

// planInput builds a full-width aggregation input over a generated key
// stream: every aggregate kind, values derived from the row index so the
// reference is deterministic.
func planInput(keys []uint64) *Input {
	vals := make([]int64, len(keys))
	for i := range vals {
		vals[i] = int64(i%1000) - 500
	}
	return &Input{
		Keys:    keys,
		AggCols: [][]int64{vals},
		Specs: []agg.Spec{
			{Kind: agg.Count},
			{Kind: agg.Sum, Col: 0},
			{Kind: agg.Min, Col: 0},
			{Kind: agg.Max, Col: 0},
			{Kind: agg.Avg, Col: 0},
		},
	}
}

// requireIdentical pins the planned run's output bit-identical to the
// unplanned run's, keyed by group: same group set, and per group the same
// integer and float aggregate words. (Positional order within a chunk's
// 8-row table blocks reflects insertion order and legitimately differs when
// the bypass reroutes hot keys; the hash-ordered block structure — the
// documented contract — is unchanged and pinned by checkResult's phantom/
// duplicate checks plus the existing ordering tests.)
func requireIdentical(t *testing.T, planned, plain *Result, label string) {
	t.Helper()
	if planned.Groups() != plain.Groups() {
		t.Fatalf("%s: planned %d groups, unplanned %d", label, planned.Groups(), plain.Groups())
	}
	row := make(map[uint64]int, plain.Groups())
	for r := 0; r < plain.Groups(); r++ {
		row[plain.Keys[r]] = r
	}
	for r := 0; r < planned.Groups(); r++ {
		k := planned.Keys[r]
		pr, ok := row[k]
		if !ok {
			t.Fatalf("%s: key %d only in planned result", label, k)
		}
		for a := range plain.Aggs {
			if planned.Aggs[a][r] != plain.Aggs[a][pr] {
				t.Fatalf("%s: key %d agg %d: %d != %d",
					label, k, a, planned.Aggs[a][r], plain.Aggs[a][pr])
			}
			if planned.Float(a, r) != plain.Float(a, pr) {
				t.Fatalf("%s: key %d agg %d float: %g != %g",
					label, k, a, planned.Float(a, r), plain.Float(a, pr))
			}
		}
	}
}

// TestPlannedDifferential drives the planned path against both the
// map-based oracle and the unplanned operator across every generator
// distribution, strategy, and a worker sweep — the satellite's main
// correctness net. Runs under -race in CI.
func TestPlannedDifferential(t *testing.T) {
	for _, dist := range datagen.Dists() {
		for _, workers := range []int{1, 3} {
			for _, strat := range []Strategy{DefaultAdaptive(), Adaptive(2, 1), HashingOnly(), PartitionOnly()} {
				label := fmt.Sprintf("%s/w%d/%s", dist, workers, strat.Name())
				keys := datagen.Generate(datagen.Spec{
					Dist: dist, N: 1 << 15, K: 1 << 9, Seed: 42,
					Theta: 0.99, HitFraction: 0.4,
				})
				in := planInput(keys)
				cfg := smallCfg(strat)
				cfg.Workers = workers
				plain, err := Aggregate(cfg, in)
				if err != nil {
					t.Fatalf("%s: unplanned: %v", label, err)
				}
				cfg.EnablePlan = true
				cfg.CollectStats = true
				planned, err := Aggregate(cfg, in)
				if err != nil {
					t.Fatalf("%s: planned: %v", label, err)
				}
				requireIdentical(t, planned, plain, label)
				checkResult(t, planned, in)
				if !planned.Stats.Planned {
					t.Errorf("%s: Stats.Planned not set", label)
				}
			}
		}
	}
}

// TestPlanDecisions sanity-checks the planner's calls on the distributions
// it was designed around. These pin behaviour, not exact numbers.
func TestPlanDecisions(t *testing.T) {
	cfg := Config{CacheBytes: 4 << 20}

	// Uniform with small K: sample saturates, table shrinks, no hot keys.
	keys := datagen.Generate(datagen.Spec{Dist: datagen.Uniform, N: 1 << 17, K: 512, Seed: 1})
	p := BuildPlan(cfg, planInput(keys))
	if p == nil {
		t.Fatal("uniform small-K: no plan")
	}
	if math.Abs(p.EstimatedK-512)/512 > 0.10 {
		t.Errorf("uniform small-K: estimate %.0f, want ~512", p.EstimatedK)
	}
	if p.TableRows == 0 {
		t.Error("uniform small-K: table not pre-sized")
	}
	if p.StartPartition {
		t.Error("uniform small-K: wrongly starts partitioning")
	}
	if len(p.HotKeys) != 0 {
		t.Errorf("uniform small-K: %d phantom hot keys", len(p.HotKeys))
	}

	// Heavy hitter: the hot key must be nominated with most of the mass.
	keys = datagen.Generate(datagen.Spec{
		Dist: datagen.HeavyHitter, N: 1 << 17, K: 1 << 14, Seed: 2, HitFraction: 0.5,
	})
	p = BuildPlan(cfg, planInput(keys))
	if p == nil || len(p.HotKeys) == 0 {
		t.Fatal("heavy-hitter: no hot keys nominated")
	}
	if p.HotMass < 0.3 {
		t.Errorf("heavy-hitter: hot mass %.2f, want ≥ 0.3", p.HotMass)
	}

	// Sequential keys, K far beyond any table: partition from the start.
	keys = datagen.Generate(datagen.Spec{Dist: datagen.Sequential, N: 1 << 17, K: 1 << 17, Seed: 3})
	p = BuildPlan(cfg, planInput(keys))
	if p == nil {
		t.Fatal("sequential: no plan")
	}
	if !p.StartPartition {
		t.Errorf("sequential big-K: α̂=%.2f but StartPartition not set", p.PredictedAlpha)
	}
	if p.TableRows != 0 {
		t.Error("sequential big-K: table wrongly pre-sized")
	}

	// Moving cluster: K keeps growing through the sample; the drift guard
	// must block the shrink even though the sampled K̂ looks small.
	keys = datagen.Generate(datagen.Spec{
		Dist: datagen.MovingCluster, N: 1 << 20, K: 1 << 16, Seed: 4, Window: 1 << 10,
	})
	p = BuildPlan(cfg, planInput(keys))
	if p == nil {
		t.Fatal("moving-cluster: no plan")
	}
	if p.TableRows != 0 {
		t.Errorf("moving-cluster: drift guard failed (K̂ %.0f half %.0f, table %d)",
			p.EstimatedK, p.HalfSampleK, p.TableRows)
	}

	// Tiny inputs are not worth planning.
	if p := BuildPlan(cfg, planInput(make([]uint64, 100))); p != nil {
		t.Error("tiny input: got a plan, want nil")
	}
}

// TestAdversarialPlans injects deliberately corrupt plans and pins that
// execution still matches the oracle: every decision is advisory, none can
// corrupt results.
func TestAdversarialPlans(t *testing.T) {
	keys := datagen.Generate(datagen.Spec{
		Dist: datagen.Zipf, N: 1 << 14, K: 1 << 8, Seed: 7, Theta: 1.1,
	})
	in := planInput(keys)

	manyHot := make([]uint64, 100)
	for i := range manyHot {
		manyHot[i] = uint64(i % 40) // beyond maxHotSetKeys, with duplicates
	}
	badHashes := make([]uint64, 100) // all zero: must be ignored, never trusted

	plans := map[string]*Plan{
		"phantom-hot-keys": {
			SampleRows: 1 << 14, EstimatedK: 256,
			HotKeys:   []uint64{1 << 60, 1<<60 + 1, 1<<60 + 2}, // absent from input
			HotHashes: []uint64{0, 0, 0},
			HotMass:   0.9,
		},
		"too-many-hot-keys-bad-hashes": {
			SampleRows: 1 << 14, EstimatedK: 256,
			HotKeys: manyHot, HotHashes: badHashes, HotMass: 1,
		},
		"k-way-too-small": {
			SampleRows: 1 << 14, EstimatedK: 1, HalfSampleK: 1,
			TableRows: 8, // below the blocked floor; must be raised
		},
		"k-way-too-big": {
			SampleRows: 1 << 14, EstimatedK: math.Pow(2, 40),
			TableRows:      1 << 30, // above cache capacity; must be dropped
			StartPartition: true,
		},
		"non-pow2-table": {
			SampleRows: 1 << 14, EstimatedK: 1000, TableRows: 3000,
		},
		"start-partition-on-small-k": {
			SampleRows: 1 << 14, EstimatedK: 16, StartPartition: true,
		},
		"empty-plan": {},
	}

	cfg := smallCfg(DefaultAdaptive())
	cfg.Workers = 3
	plain, err := Aggregate(cfg, in)
	if err != nil {
		t.Fatal(err)
	}
	for name, p := range plans {
		t.Run(name, func(t *testing.T) {
			c := cfg
			c.Plan = p
			c.EnablePlan = true
			res, err := Aggregate(c, in)
			if err != nil {
				t.Fatal(err)
			}
			requireIdentical(t, res, plain, name)
			checkResult(t, res, in)
		})
	}
}

// TestAdversarialCMSCollisions feeds the planner pipeline with a sketch
// whose CMS is a single 2-counter row — every key collides with every
// other, so the candidate list is pure noise — and injects the resulting
// nominations as the plan's hot keys. The bypass must absorb the garbage
// (exact-match membership) and produce oracle-identical results.
func TestAdversarialCMSCollisions(t *testing.T) {
	keys := datagen.Generate(datagen.Spec{
		Dist: datagen.HeavyHitter, N: 1 << 14, K: 1 << 10, Seed: 11, HitFraction: 0.3,
	})
	in := planInput(keys)

	sk := sketch.NewSketchParams(4, 1, 1, 16) // 2-counter CMS: total collision
	hs := make([]uint64, len(keys))
	hashfn.HashBatch(keys, hs)
	sk.AddBlock(keys, hs)

	p := &Plan{SampleRows: len(keys), EstimatedK: sk.HLL.Estimate()}
	for _, e := range sk.Top.Items() {
		p.HotKeys = append(p.HotKeys, e.Key)
		p.HotHashes = append(p.HotHashes, e.Hash)
	}
	if len(p.HotKeys) == 0 {
		t.Fatal("colliding CMS nominated nothing — test is vacuous")
	}
	p.HotMass = 1 // nonsense on purpose

	cfg := smallCfg(DefaultAdaptive())
	cfg.Workers = 2
	plain, err := Aggregate(cfg, in)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Plan = p
	cfg.EnablePlan = true
	res, err := Aggregate(cfg, in)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, res, plain, "colliding-cms")
	checkResult(t, res, in)
}

// TestPlanTraceReconciles pins the new trace kinds against the stats: one
// plan event per planned run, and the hot-key-bypass row total must equal
// Stats.HotRowsBypassed exactly.
func TestPlanTraceReconciles(t *testing.T) {
	keys := datagen.Generate(datagen.Spec{
		Dist: datagen.HeavyHitter, N: 1 << 16, K: 1 << 12, Seed: 13, HitFraction: 0.5,
	})
	in := planInput(keys)
	rec := trace.NewRecorder(1 << 12)
	cfg := smallCfg(DefaultAdaptive())
	cfg.Workers = 3
	cfg.EnablePlan = true
	cfg.CollectStats = true
	cfg.Tracer = rec
	res, err := Aggregate(cfg, in)
	if err != nil {
		t.Fatal(err)
	}
	snap := rec.Snapshot()
	if got := snap.Counts[trace.KindPlan]; got != 1 {
		t.Errorf("plan events: %d, want 1", got)
	}
	if res.Stats.HotRowsBypassed == 0 {
		t.Fatal("heavy-hitter run bypassed no rows — bypass not engaging")
	}
	if got := int64(snap.Sums[trace.KindHotKeyBypass]); got != res.Stats.HotRowsBypassed {
		t.Errorf("bypass trace rows %d != Stats.HotRowsBypassed %d",
			got, res.Stats.HotRowsBypassed)
	}
	if snap.Counts[trace.KindHotKeyBypass] == 0 {
		t.Error("no hot-key-bypass events recorded")
	}
}

// TestPlannedWithMemoryBudget runs the planned path under an accounting
// governor: the bypass machinery (accumulators, compaction scratch) must be
// registered in the fixed footprint and the run must stay oracle-correct.
func TestPlannedWithMemoryBudget(t *testing.T) {
	keys := datagen.Generate(datagen.Spec{
		Dist: datagen.Zipf, N: 1 << 15, K: 1 << 10, Seed: 17, Theta: 1.05,
	})
	in := planInput(keys)
	plain, err := Aggregate(smallCfg(DefaultAdaptive()), in)
	if err != nil {
		t.Fatal(err)
	}
	gov := memgov.New(0) // unlimited: pure accounting
	cfg := smallCfg(DefaultAdaptive())
	cfg.EnablePlan = true
	cfg.Governor = gov
	res, err := Aggregate(cfg, in)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, res, plain, "budget")
	if gov.HighWater() == 0 {
		t.Fatal("governor saw no reservations")
	}
}
