package columnar

import (
	"testing"
	"testing/quick"

	"cacheagg/internal/datagen"
	"cacheagg/internal/xrand"
)

func refSums(keys []uint64, vals []int64) map[uint64]int64 {
	m := map[uint64]int64{}
	for i, k := range keys {
		m[k] += vals[i]
	}
	return m
}

func checkSums(t *testing.T, name string, groups []uint64, sums []int64, keys []uint64, vals []int64) {
	t.Helper()
	want := refSums(keys, vals)
	if len(groups) != len(want) {
		t.Fatalf("%s: %d groups, want %d", name, len(groups), len(want))
	}
	for i, g := range groups {
		if sums[i] != want[g] {
			t.Fatalf("%s: group %d sum %d, want %d", name, g, sums[i], want[g])
		}
	}
}

func genKV(seed uint64, n int, k uint64) ([]uint64, []int64) {
	keys := datagen.Generate(datagen.Spec{Dist: datagen.Uniform, N: n, K: k, Seed: seed})
	rng := xrand.NewXoshiro256(seed + 1)
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(rng.Next()%1001) - 500
	}
	return keys, vals
}

func TestAllModelsAgree(t *testing.T) {
	keys, vals := genKV(1, 30000, 4000)
	g1, s1 := SumRowAtATime(keys, vals)
	g2, s2 := SumColumnAtATime(keys, vals)
	g3, s3 := SumBlockWise(keys, vals, 512)
	checkSums(t, "row-at-a-time", g1, s1, keys, vals)
	checkSums(t, "column-at-a-time", g2, s2, keys, vals)
	checkSums(t, "block-wise", g3, s3, keys, vals)
	// All three must produce the same group order (first appearance).
	for i := range g1 {
		if g1[i] != g2[i] || g1[i] != g3[i] {
			t.Fatalf("group order differs at %d: %d %d %d", i, g1[i], g2[i], g3[i])
		}
	}
}

func TestMapGroupsRoundTrip(t *testing.T) {
	keys := []uint64{7, 7, 3, 7, 0, 3}
	gm := MapGroups(keys)
	wantGroups := []uint64{7, 3, 0}
	if len(gm.Groups) != 3 {
		t.Fatalf("groups = %v", gm.Groups)
	}
	for i := range wantGroups {
		if gm.Groups[i] != wantGroups[i] {
			t.Fatalf("groups = %v, want %v", gm.Groups, wantGroups)
		}
	}
	for i, k := range keys {
		if gm.Groups[gm.Map[i]] != k {
			t.Fatalf("mapping broken at row %d", i)
		}
	}
}

func TestMapGroupsEmptyAndZeroKey(t *testing.T) {
	gm := MapGroups(nil)
	if len(gm.Groups) != 0 || len(gm.Map) != 0 {
		t.Fatal("empty input")
	}
	gm = MapGroups([]uint64{0, 0})
	if len(gm.Groups) != 1 || gm.Groups[0] != 0 {
		t.Fatal("zero key must be supported")
	}
}

func TestIndexGrowth(t *testing.T) {
	keys := make([]uint64, 100000)
	for i := range keys {
		keys[i] = uint64(i) // all distinct: forces many grows
	}
	gm := MapGroups(keys)
	if len(gm.Groups) != len(keys) {
		t.Fatalf("lost groups during growth: %d", len(gm.Groups))
	}
	for i := range keys {
		if gm.Map[i] != uint32(i) {
			t.Fatalf("mapping wrong at %d", i)
		}
	}
}

func TestQuickModelsEquivalent(t *testing.T) {
	f := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw)%2000 + 1
		keys, vals := genKV(seed, n, uint64(n/2+1))
		g1, s1 := SumRowAtATime(keys, vals)
		g2, s2 := SumColumnAtATime(keys, vals)
		g3, s3 := SumBlockWise(keys, vals, 64)
		if len(g1) != len(g2) || len(g1) != len(g3) {
			return false
		}
		for i := range g1 {
			if g1[i] != g2[i] || g1[i] != g3[i] || s1[i] != s2[i] || s1[i] != s3[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSumRowAtATime(b *testing.B) {
	keys, vals := genKV(1, 1<<16, 1<<12)
	b.SetBytes(1 << 20)
	for i := 0; i < b.N; i++ {
		SumRowAtATime(keys, vals)
	}
}

func BenchmarkSumColumnAtATime(b *testing.B) {
	keys, vals := genKV(1, 1<<16, 1<<12)
	b.SetBytes(1 << 20)
	for i := 0; i < b.N; i++ {
		SumColumnAtATime(keys, vals)
	}
}

func BenchmarkSumBlockWise(b *testing.B) {
	keys, vals := genKV(1, 1<<16, 1<<12)
	b.SetBytes(1 << 20)
	for i := 0; i < b.N; i++ {
		SumBlockWise(keys, vals, DefaultBlockRows)
	}
}
