package baselines

import (
	"runtime"
	"testing"
	"testing/quick"

	"cacheagg/internal/datagen"
	"cacheagg/internal/xrand"
)

func refCounts(keys []uint64) map[uint64]int64 {
	m := map[uint64]int64{}
	for _, k := range keys {
		m[k]++
	}
	return m
}

func checkResult(t *testing.T, name string, res *Result, keys []uint64) {
	t.Helper()
	want := refCounts(keys)
	if res.Groups() != len(want) {
		t.Fatalf("%s: %d groups, want %d", name, res.Groups(), len(want))
	}
	seen := map[uint64]bool{}
	for i, k := range res.Keys {
		if seen[k] {
			t.Fatalf("%s: duplicate key %d", name, k)
		}
		seen[k] = true
		if res.Counts[i] != want[k] {
			t.Fatalf("%s: key %d count %d, want %d", name, k, res.Counts[i], want[k])
		}
	}
}

// TestWorkersDefaultIsGOMAXPROCS pins the zero Workers to GOMAXPROCS, the
// operator's default, so a comparison that leaves both at zero runs both
// at the same parallelism.
func TestWorkersDefaultIsGOMAXPROCS(t *testing.T) {
	prev := runtime.GOMAXPROCS(3)
	defer runtime.GOMAXPROCS(prev)
	if got := (Config{}).withDefaults().Workers; got != 3 {
		t.Fatalf("Workers 0 defaults to %d, want GOMAXPROCS = 3", got)
	}
	if got := (Config{Workers: 2}).withDefaults().Workers; got != 2 {
		t.Fatalf("explicit Workers 2 became %d", got)
	}
}

func testCfg(k int) Config {
	return Config{Workers: 3, CacheBytes: 64 << 10, EstimatedGroups: k}
}

func TestAllBaselinesCorrect(t *testing.T) {
	const n = 50000
	for _, dist := range []datagen.Dist{datagen.Uniform, datagen.Sorted, datagen.HeavyHitter, datagen.MovingCluster, datagen.Zipf} {
		for _, k := range []uint64{1, 100, 5000, 30000} {
			keys := datagen.Generate(datagen.Spec{Dist: dist, N: n, K: k, Seed: 31})
			actualK := datagen.CountDistinct(keys)
			for _, alg := range All() {
				res := alg.Run(keys, testCfg(actualK))
				checkResult(t, alg.Name(), res, keys)
			}
		}
	}
}

func TestEmptyInput(t *testing.T) {
	for _, alg := range All() {
		res := alg.Run(nil, testCfg(10))
		if res.Groups() != 0 {
			t.Fatalf("%s: empty input gave %d groups", alg.Name(), res.Groups())
		}
	}
}

func TestSingleKey(t *testing.T) {
	keys := make([]uint64, 10000) // all key 0 — exercises the key+1 sentinel
	for _, alg := range All() {
		res := alg.Run(keys, testCfg(1))
		if res.Groups() != 1 || res.Keys[0] != 0 || res.Counts[0] != 10000 {
			t.Fatalf("%s: got %+v", alg.Name(), res)
		}
	}
}

func TestWorkerCountsAgree(t *testing.T) {
	keys := datagen.Generate(datagen.Spec{Dist: datagen.SelfSimilar, N: 30000, K: 8000, Seed: 5})
	k := datagen.CountDistinct(keys)
	for _, alg := range All() {
		for _, w := range []int{1, 2, 7} {
			cfg := testCfg(k)
			cfg.Workers = w
			res := alg.Run(keys, cfg)
			checkResult(t, alg.Name(), res, keys)
		}
	}
}

// TestQuickAllBaselines: property test over random small inputs.
func TestQuickAllBaselines(t *testing.T) {
	algs := All()
	f := func(seed uint64, nRaw uint16, domRaw uint8) bool {
		n := int(nRaw)%3000 + 1
		dom := uint64(domRaw)%500 + 1
		rng := xrand.NewXoshiro256(seed)
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = rng.Next() % dom
		}
		want := refCounts(keys)
		alg := algs[int(seed%uint64(len(algs)))]
		cfg := Config{Workers: 1 + int(seed>>8%4), CacheBytes: 16 << 10, EstimatedGroups: len(want)}
		res := alg.Run(keys, cfg)
		if res.Groups() != len(want) {
			return false
		}
		for i, k := range res.Keys {
			if res.Counts[i] != want[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestUnderestimatedCardinalityStillCorrect(t *testing.T) {
	// The 2-pass baselines use growable tables internally, so a bad
	// optimizer estimate degrades performance, not correctness (ATOMIC
	// and HYBRID over-allocate to the cache size, which covers this K).
	keys := datagen.Generate(datagen.Spec{Dist: datagen.Uniform, N: 40000, K: 20000, Seed: 9})
	for _, alg := range All() {
		cfg := testCfg(16) // wildly wrong estimate
		cfg.CacheBytes = 4 << 20
		res := alg.Run(keys, cfg)
		checkResult(t, alg.Name(), res, keys)
	}
}

func TestLookup(t *testing.T) {
	for _, alg := range All() {
		got, err := Lookup(alg.Name())
		if err != nil || got.Name() != alg.Name() {
			t.Fatalf("Lookup(%q) failed: %v", alg.Name(), err)
		}
	}
	if _, err := Lookup("NOPE"); err == nil {
		t.Fatal("expected error")
	}
}

func TestOpenTableGrow(t *testing.T) {
	tb := newOpenTable(16)
	for k := uint64(0); k < 10000; k++ {
		tb.add(k, 2)
	}
	if tb.rows != 10000 {
		t.Fatalf("rows = %d", tb.rows)
	}
	total := int64(0)
	tb.each(func(_ uint64, c int64) { total += c })
	if total != 20000 {
		t.Fatalf("total = %d", total)
	}
}

func TestOpenTableTryAddRespectsLimit(t *testing.T) {
	tb := newOpenTable(16) // limit 8
	accepted := 0
	for k := uint64(0); k < 100; k++ {
		if tb.tryAdd(k, 1) {
			accepted++
		}
	}
	if accepted != 8 {
		t.Fatalf("accepted %d new keys, want 8 (the fill limit)", accepted)
	}
	// Existing keys still merge when full.
	if !tb.tryAdd(0, 1) {
		t.Fatal("merge into full table must succeed")
	}
}
