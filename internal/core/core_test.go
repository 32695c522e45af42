package core

import (
	"sort"
	"testing"
	"testing/quick"

	"cacheagg/internal/agg"
	"cacheagg/internal/datagen"
	"cacheagg/internal/hashfn"
	"cacheagg/internal/xrand"
)

// smallCfg provokes deep recursion at test scale: a tiny "cache" makes
// tables fill after ~1k rows.
func smallCfg(s Strategy) Config {
	return Config{
		Strategy:   s,
		Workers:    2,
		CacheBytes: 64 << 10, // table capacity 2048 rows (words=0), fill 512
		ChunkRows:  512,
		MorselRows: 2048,
	}
}

// refAggregate is the trivially correct reference: map-based aggregation.
func refAggregate(in *Input) map[uint64][]int64 {
	lay := agg.NewLayout(in.Specs)
	states := map[uint64][]uint64{}
	// One closure over a row cursor, hoisted out of the loop: a closure
	// literal inside the loop escapes and costs one allocation per row.
	row := 0
	vals := func(c int) int64 { return in.AggCols[c][row] }
	for i, k := range in.Keys {
		row = i
		if st, ok := states[k]; ok {
			lay.FoldRow(st, vals)
		} else {
			st := make([]uint64, lay.Words)
			lay.InitRow(st, vals)
			states[k] = st
		}
	}
	out := map[uint64][]int64{}
	for k, st := range states {
		out[k] = lay.FinalizeRow(st, nil)
	}
	return out
}

// checkResult compares an operator result with the reference.
func checkResult(t *testing.T, res *Result, in *Input) {
	t.Helper()
	want := refAggregate(in)
	if res.Groups() != len(want) {
		t.Fatalf("got %d groups, want %d", res.Groups(), len(want))
	}
	seen := map[uint64]bool{}
	for r := 0; r < res.Groups(); r++ {
		k := res.Keys[r]
		if seen[k] {
			t.Fatalf("key %d duplicated in result", k)
		}
		seen[k] = true
		wantRow, ok := want[k]
		if !ok {
			t.Fatalf("phantom key %d in result", k)
		}
		for si := range in.Specs {
			if res.Aggs[si][r] != wantRow[si] {
				t.Fatalf("key %d spec %v: got %d, want %d",
					k, in.Specs[si], res.Aggs[si][r], wantRow[si])
			}
		}
	}
}

func allStrategies() []Strategy {
	return []Strategy{
		HashingOnly(),
		PartitionAlways(1),
		PartitionAlways(2),
		PartitionOnly(),
		DefaultAdaptive(),
		Adaptive(2, 1), // aggressive switcher
	}
}

func TestDistinctSmall(t *testing.T) {
	keys := []uint64{5, 3, 5, 5, 9, 3}
	res, err := Distinct(smallCfg(nil), keys)
	if err != nil {
		t.Fatal(err)
	}
	if res.Groups() != 3 {
		t.Fatalf("got %d groups, want 3", res.Groups())
	}
	got := append([]uint64(nil), res.Keys...)
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	want := []uint64{3, 5, 9}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("keys = %v, want %v", got, want)
		}
	}
}

func TestEmptyInput(t *testing.T) {
	for _, s := range allStrategies() {
		res, err := Distinct(smallCfg(s), nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Groups() != 0 {
			t.Fatalf("%s: empty input gave %d groups", s.Name(), res.Groups())
		}
	}
}

func TestSingleRow(t *testing.T) {
	in := &Input{
		Keys:    []uint64{42},
		AggCols: [][]int64{{-7}},
		Specs:   []agg.Spec{{Kind: agg.Count}, {Kind: agg.Sum, Col: 0}},
	}
	res, err := Aggregate(smallCfg(nil), in)
	if err != nil {
		t.Fatal(err)
	}
	if res.Groups() != 1 || res.Keys[0] != 42 || res.Aggs[0][0] != 1 || res.Aggs[1][0] != -7 {
		t.Fatalf("unexpected result: %+v", res)
	}
}

func TestAllStrategiesMatchReference(t *testing.T) {
	const n = 60000
	for _, dist := range []datagen.Dist{datagen.Uniform, datagen.Sorted, datagen.HeavyHitter, datagen.MovingCluster} {
		for _, k := range []uint64{1, 10, 3000, 40000} {
			keys := datagen.Generate(datagen.Spec{Dist: dist, N: n, K: k, Seed: 77})
			vals := make([]int64, n)
			rng := xrand.NewXoshiro256(3)
			for i := range vals {
				vals[i] = int64(rng.Next()%2001) - 1000
			}
			in := &Input{
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
			for _, s := range allStrategies() {
				res, err := Aggregate(smallCfg(s), in)
				if err != nil {
					t.Fatalf("%s/%v/K=%d: %v", s.Name(), dist, k, err)
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Fatalf("%s/%v/K=%d panicked: %v", s.Name(), dist, k, r)
						}
					}()
					checkResult(t, res, in)
				}()
			}
		}
	}
}

func TestDistinctAllDistributions(t *testing.T) {
	const n = 40000
	for _, dist := range datagen.Dists() {
		keys := datagen.Generate(datagen.Spec{Dist: dist, N: n, K: 20000, Seed: 5})
		want := datagen.CountDistinct(keys)
		for _, s := range []Strategy{HashingOnly(), DefaultAdaptive(), PartitionOnly()} {
			res, err := Distinct(smallCfg(s), keys)
			if err != nil {
				t.Fatal(err)
			}
			if res.Groups() != want {
				t.Fatalf("%s on %v: %d groups, want %d", s.Name(), dist, res.Groups(), want)
			}
		}
	}
}

func TestResultOrderedByHash(t *testing.T) {
	keys := datagen.Generate(datagen.Spec{Dist: datagen.Uniform, N: 50000, K: 30000, Seed: 8})
	res, err := Distinct(smallCfg(DefaultAdaptive()), keys)
	if err != nil {
		t.Fatal(err)
	}
	// The output is the concatenation of per-bucket chunks in bucket
	// order; buckets partition the hash space by prefix, so the top
	// digit(s) must be non-decreasing across the result.
	for i := 1; i < res.Groups(); i++ {
		if res.Hashes[i]>>56 < res.Hashes[i-1]>>56 {
			t.Fatalf("hash digit order violated at row %d: %#x after %#x",
				i, res.Hashes[i], res.Hashes[i-1])
		}
	}
}

func TestSingleWorkerMatchesParallel(t *testing.T) {
	keys := datagen.Generate(datagen.Spec{Dist: datagen.Zipf, N: 50000, K: 10000, Seed: 13})
	cfg1 := smallCfg(DefaultAdaptive())
	cfg1.Workers = 1
	cfg4 := smallCfg(DefaultAdaptive())
	cfg4.Workers = 4
	r1, err := Distinct(cfg1, keys)
	if err != nil {
		t.Fatal(err)
	}
	r4, err := Distinct(cfg4, keys)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Groups() != r4.Groups() {
		t.Fatalf("worker counts disagree: %d vs %d groups", r1.Groups(), r4.Groups())
	}
	// Same group set.
	k1 := append([]uint64(nil), r1.Keys...)
	k4 := append([]uint64(nil), r4.Keys...)
	sort.Slice(k1, func(i, j int) bool { return k1[i] < k1[j] })
	sort.Slice(k4, func(i, j int) bool { return k4[i] < k4[j] })
	for i := range k1 {
		if k1[i] != k4[i] {
			t.Fatalf("group sets differ at %d", i)
		}
	}
}

func TestValidateRejectsBadInput(t *testing.T) {
	in := &Input{
		Keys:  []uint64{1, 2},
		Specs: []agg.Spec{{Kind: agg.Sum, Col: 0}},
	}
	if _, err := Aggregate(Config{}, in); err == nil {
		t.Fatal("expected error: spec references missing column")
	}
	in2 := &Input{
		Keys:    []uint64{1, 2},
		AggCols: [][]int64{{1}},
		Specs:   []agg.Spec{{Kind: agg.Sum, Col: 0}},
	}
	if _, err := Aggregate(Config{}, in2); err == nil {
		t.Fatal("expected error: column length mismatch")
	}
}

// TestQuickAgainstReference is the main property test: arbitrary key
// streams with small domains, all strategies, full aggregate set.
func TestQuickAgainstReference(t *testing.T) {
	strategies := allStrategies()
	f := func(seed uint64, nRaw uint16, domRaw uint8) bool {
		n := int(nRaw)%5000 + 1
		dom := uint64(domRaw)%200 + 1
		rng := xrand.NewXoshiro256(seed)
		keys := make([]uint64, n)
		vals := make([]int64, n)
		for i := range keys {
			keys[i] = rng.Next() % dom
			vals[i] = int64(rng.Next()%101) - 50
		}
		in := &Input{
			Keys:    keys,
			AggCols: [][]int64{vals},
			Specs:   []agg.Spec{{Kind: agg.Count}, {Kind: agg.Sum, Col: 0}, {Kind: agg.Avg, Col: 0}},
		}
		want := refAggregate(in)
		s := strategies[int(seed%uint64(len(strategies)))]
		cfg := Config{
			Strategy:   s,
			Workers:    1 + int(seed>>8%3),
			CacheBytes: 32 << 10,
			MorselRows: 512,
			ChunkRows:  128,
		}
		res, err := Aggregate(cfg, in)
		if err != nil || res.Groups() != len(want) {
			return false
		}
		for r := 0; r < res.Groups(); r++ {
			wantRow, ok := want[res.Keys[r]]
			if !ok {
				return false
			}
			for si := range in.Specs {
				if res.Aggs[si][r] != wantRow[si] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsCollection(t *testing.T) {
	keys := datagen.Generate(datagen.Spec{Dist: datagen.Uniform, N: 100000, K: 60000, Seed: 21})
	cfg := smallCfg(DefaultAdaptive())
	cfg.CollectStats = true
	res, err := Distinct(cfg, keys)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.Passes < 2 {
		t.Fatalf("large-K run should need ≥ 2 passes, got %d", st.Passes)
	}
	if st.LevelRows[0] != 100000 {
		t.Fatalf("level-0 rows = %d, want 100000", st.LevelRows[0])
	}
	if st.HashedRows+st.PartitionedRows == 0 {
		t.Fatal("no routed rows recorded")
	}
	if st.Tasks == 0 || st.DirectEmits == 0 {
		t.Fatalf("tasks %d, directEmits %d", st.Tasks, st.DirectEmits)
	}
	// Adaptive on a high-K uniform input must have switched to
	// partitioning at least once and emitted tables with low α.
	if st.TablesEmitted == 0 {
		t.Fatal("no tables emitted despite K > cache")
	}
	if st.Switches == 0 {
		t.Fatal("adaptive never switched on uniform high-K input")
	}
	if mean := st.AlphaSum / float64(st.TablesEmitted); mean > DefaultAlpha0 {
		t.Fatalf("mean alpha %f should be below α₀ for near-distinct input", mean)
	}
}

func TestAdaptiveUsesHashingOnSkewedData(t *testing.T) {
	// Sorted data has maximal locality: adaptive should keep hashing
	// (tables reduce massively), partitioning only rarely.
	keys := datagen.Generate(datagen.Spec{Dist: datagen.Sorted, N: 200000, K: 100000, Seed: 2})
	cfg := smallCfg(DefaultAdaptive())
	cfg.CollectStats = true
	res, err := Distinct(cfg, keys)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.HashedRows < st.PartitionedRows {
		t.Fatalf("sorted input: hashing %d rows < partitioning %d rows — locality not exploited",
			st.HashedRows, st.PartitionedRows)
	}
}

func TestAdaptiveUsesPartitioningOnUniformHighK(t *testing.T) {
	keys := datagen.Generate(datagen.Spec{Dist: datagen.Uniform, N: 200000, K: 150000, Seed: 2})
	cfg := smallCfg(DefaultAdaptive())
	cfg.CollectStats = true
	res, err := Distinct(cfg, keys)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	// With K ≫ cache and no locality, most intake rows should flow
	// through the fast partitioning routine (hashing only in the
	// periodic probes and the final passes).
	if st.PartitionedRows < st.HashedRows/4 {
		t.Fatalf("uniform high-K: partitioned %d vs hashed %d — adaptive failed to switch",
			st.PartitionedRows, st.HashedRows)
	}
}

func TestHashingOnlyNeverPartitions(t *testing.T) {
	keys := datagen.Generate(datagen.Spec{Dist: datagen.Uniform, N: 100000, K: 80000, Seed: 4})
	cfg := smallCfg(HashingOnly())
	cfg.CollectStats = true
	res, err := Distinct(cfg, keys)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.PartitionedRows != 0 {
		t.Fatalf("HashingOnly partitioned %d rows", res.Stats.PartitionedRows)
	}
}

// TestAdaptiveCZeroIsHashingOnly pins what c = 0 means: the amortization
// budget is empty, so ADAPTIVE probes hashing again right after every
// switch and routes exactly the rows HashingOnly routes.
func TestAdaptiveCZeroIsHashingOnly(t *testing.T) {
	for kExp := 4; kExp <= 13; kExp++ {
		keys := datagen.Generate(datagen.Spec{Dist: datagen.Uniform, N: 1 << 14, K: 1 << kExp, Seed: 5})
		var st [2]Stats
		for i, s := range []Strategy{Adaptive(DefaultAlpha0, 0), HashingOnly()} {
			res, err := Distinct(Config{Strategy: s, Workers: 1, CacheBytes: 16 << 10, CollectStats: true}, keys)
			if err != nil {
				t.Fatal(err)
			}
			st[i] = res.Stats
		}
		a, h := st[0], st[1]
		if a.HashedRows != h.HashedRows || a.PartitionedRows != h.PartitionedRows || a.TablesEmitted != h.TablesEmitted {
			t.Errorf("K=2^%d: Adaptive(c=0) hashed/partitioned/tables %d/%d/%d, HashingOnly %d/%d/%d", kExp,
				a.HashedRows, a.PartitionedRows, a.TablesEmitted, h.HashedRows, h.PartitionedRows, h.TablesEmitted)
		}
	}
}

func TestPartitionAlwaysPassStructure(t *testing.T) {
	keys := datagen.Generate(datagen.Spec{Dist: datagen.Uniform, N: 100000, K: 80000, Seed: 4})
	cfg := smallCfg(PartitionAlways(1))
	cfg.CollectStats = true
	res, err := Distinct(cfg, keys)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	// One partitioning pass at intake + final hashing at level 1: exactly
	// 2 passes.
	if st.Passes != 2 {
		t.Fatalf("PartitionAlways(1) used %d passes, want 2", st.Passes)
	}
	if st.LevelRows[0] != 100000 {
		t.Fatalf("level 0 rows %d", st.LevelRows[0])
	}
}

func TestHugeGroupCountDeepRecursion(t *testing.T) {
	// All keys distinct with a tiny cache: forces ≥ 3 levels.
	const n = 1 << 17
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i)
	}
	cfg := Config{
		Strategy:   HashingOnly(),
		Workers:    2,
		CacheBytes: 8 << 10,
		MorselRows: 4096,
		ChunkRows:  256,
	}
	cfg.CollectStats = true
	res, err := Distinct(cfg, keys)
	if err != nil {
		t.Fatal(err)
	}
	if res.Groups() != n {
		t.Fatalf("got %d groups, want %d", res.Groups(), n)
	}
	if res.Stats.Passes < 2 {
		t.Fatalf("expected deep recursion, got %d passes", res.Stats.Passes)
	}
}

func TestStrategyNames(t *testing.T) {
	cases := map[string]Strategy{
		"HashingOnly":        HashingOnly(),
		"PartitionAlways(2)": PartitionAlways(2),
		"PartitionOnly":      PartitionOnly(),
	}
	for want, s := range cases {
		if s.Name() != want {
			t.Errorf("Name() = %q, want %q", s.Name(), want)
		}
	}
	if Adaptive(0, -1).Name() != DefaultAdaptive().Name() {
		t.Error("defaulted adaptive should match DefaultAdaptive")
	}
}

func TestPartitionAlwaysPanicsOnZeroPasses(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	PartitionAlways(0)
}

func TestModeString(t *testing.T) {
	if ModeHash.String() != "hash" || ModePartition.String() != "partition" || ModeFinal.String() != "final" {
		t.Fatal("mode names wrong")
	}
	if Mode(9).String() != "Mode(9)" {
		t.Fatal("unknown mode name wrong")
	}
}

// TestResultHashesAreRecomputed: runs carry the hash in place of the key
// and emitting a group recovers its key from it; each output row's hash
// must be exactly its key's Murmur2, under every strategy, and the result
// exact.
func TestResultHashesAreRecomputed(t *testing.T) {
	keys := datagen.Generate(datagen.Spec{Dist: datagen.MovingCluster, N: 80000, K: 40000, Seed: 23})
	vals := make([]int64, len(keys))
	for i := range vals {
		vals[i] = int64(i % 97)
	}
	in := &Input{
		Keys:    keys,
		AggCols: [][]int64{vals},
		Specs:   []agg.Spec{{Kind: agg.Count}, {Kind: agg.Sum, Col: 0}},
	}
	for _, s := range allStrategies() {
		res, err := Aggregate(smallCfg(s), in)
		if err != nil {
			t.Fatal(err)
		}
		for i, k := range res.Keys {
			if res.Hashes[i] != hashfn.Murmur2(k) {
				t.Fatalf("%s: row %d: key %d carries hash %#x, want %#x",
					s.Name(), i, k, res.Hashes[i], hashfn.Murmur2(k))
			}
		}
		checkResult(t, res, in)
	}
}

// TestAdaptiveSwitchesOnMixedLocality drives the Appendix A.2 scenario (a
// UNION ALL of opposite-locality halves) through the engine and asserts
// the adaptive machinery actually reacted: both routines ran, the strategy
// switched, and the result is still exact.
func TestAdaptiveSwitchesOnMixedLocality(t *testing.T) {
	const half = 120000
	sorted := datagen.Generate(datagen.Spec{Dist: datagen.Sorted, N: half, K: half / 64, Seed: 1})
	uniform := datagen.Generate(datagen.Spec{Dist: datagen.Uniform, N: half, K: half, Seed: 2})
	keys := append(append(make([]uint64, 0, 2*half), sorted...), uniform...)
	for i := half; i < len(keys); i++ {
		keys[i] += 1 << 40 // disjoint key spaces
	}
	cfg := Config{
		Strategy:     DefaultAdaptive(),
		Workers:      1, // deterministic stream order
		CacheBytes:   64 << 10,
		CollectStats: true,
	}
	res, err := Distinct(cfg, keys)
	if err != nil {
		t.Fatal(err)
	}
	want := datagen.CountDistinct(keys)
	if res.Groups() != want {
		t.Fatalf("groups = %d, want %d", res.Groups(), want)
	}
	st := res.Stats
	if st.Switches == 0 {
		t.Fatal("adaptive never switched on a mixed-locality stream")
	}
	if st.HashedRows == 0 || st.PartitionedRows == 0 {
		t.Fatalf("both routines should run: hashed=%d partitioned=%d",
			st.HashedRows, st.PartitionedRows)
	}
	// The sorted half reduces ~64×, so a meaningful share of emitted
	// tables must have seen high α (mean pulled above the uniform-only
	// value of ~1).
	if mean := st.AlphaSum / float64(st.TablesEmitted); mean < 1.2 {
		t.Fatalf("mean α %.2f too low — locality of the sorted half not exploited", mean)
	}
}
