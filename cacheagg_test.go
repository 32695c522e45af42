package cacheagg

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"cacheagg/internal/datagen"
)

func opts() Options {
	return Options{Workers: 2, CacheBytes: 64 << 10}
}

func TestQuickstartShape(t *testing.T) {
	stores := []uint64{1, 2, 1, 3, 2, 1}
	revenue := []int64{10, 20, 30, 40, 50, 60}
	res, err := Aggregate(Input{
		GroupBy: stores,
		Columns: [][]int64{revenue},
		Aggregates: []AggSpec{
			{Func: Count},
			{Func: Sum, Col: 0},
			{Func: Avg, Col: 0},
		},
	}, opts())
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 3 {
		t.Fatalf("groups = %d", res.Len())
	}
	byKey := map[uint64][3]int64{}
	for i, g := range res.Groups {
		byKey[g] = [3]int64{res.Aggs[0][i], res.Aggs[1][i], res.Aggs[2][i]}
	}
	want := map[uint64][3]int64{
		1: {3, 100, 33}, // avg 100/3 truncated
		2: {2, 70, 35},
		3: {1, 40, 40},
	}
	for k, w := range want {
		if byKey[k] != w {
			t.Fatalf("group %d = %v, want %v", k, byKey[k], w)
		}
	}
	// Exact float average for group 1.
	for i, g := range res.Groups {
		if g == 1 {
			if got := res.Float(2, i); math.Abs(got-100.0/3.0) > 1e-9 {
				t.Fatalf("Float avg = %v", got)
			}
			if got := res.Float(1, i); got != 100 {
				t.Fatalf("Float sum = %v", got)
			}
		}
	}
}

func TestDistinctAPI(t *testing.T) {
	keys := datagen.Generate(datagen.Spec{Dist: datagen.Uniform, N: 20000, K: 5000, Seed: 1})
	groups, err := Distinct(keys, opts())
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != datagen.CountDistinct(keys) {
		t.Fatalf("distinct = %d, want %d", len(groups), datagen.CountDistinct(keys))
	}
}

func TestGroupCountAPI(t *testing.T) {
	keys := []uint64{9, 9, 9, 4}
	groups, counts, err := GroupCount(keys, opts())
	if err != nil {
		t.Fatal(err)
	}
	m := map[uint64]int64{}
	for i, g := range groups {
		m[g] = counts[i]
	}
	if m[9] != 3 || m[4] != 1 {
		t.Fatalf("counts = %v", m)
	}
}

func TestAllStrategyConstructors(t *testing.T) {
	keys := datagen.Generate(datagen.Spec{Dist: datagen.MovingCluster, N: 30000, K: 10000, Seed: 2})
	want := datagen.CountDistinct(keys)
	for _, s := range []Strategy{
		{}, // zero value = adaptive
		AdaptiveStrategy(),
		AdaptiveStrategyTuned(5, 3),
		HashingOnlyStrategy(),
		PartitionAlwaysStrategy(1),
		PartitionOnlyStrategy(),
	} {
		o := opts()
		o.Strategy = s
		groups, err := Distinct(keys, o)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if len(groups) != want {
			t.Fatalf("%s: %d groups, want %d", s.Name(), len(groups), want)
		}
	}
}

func TestStrategyNamesExposed(t *testing.T) {
	if AdaptiveStrategy().Name() == "" || (Strategy{}).Name() == "" {
		t.Fatal("names must be non-empty")
	}
	if (Strategy{}).Name() != AdaptiveStrategy().Name() {
		t.Fatal("zero strategy should present as adaptive")
	}
}

func TestFuncString(t *testing.T) {
	want := map[Func]string{Count: "COUNT", Sum: "SUM", Min: "MIN", Max: "MAX", Avg: "AVG"}
	for f, w := range want {
		if f.String() != w {
			t.Fatalf("%d.String() = %q", int(f), f.String())
		}
	}
}

func TestInvalidFuncRejected(t *testing.T) {
	_, err := Aggregate(Input{
		GroupBy:    []uint64{1},
		Aggregates: []AggSpec{{Func: Func(42)}},
	}, Options{})
	if err == nil {
		t.Fatal("expected error")
	}
}

func TestMismatchedColumnsRejected(t *testing.T) {
	_, err := Aggregate(Input{
		GroupBy:    []uint64{1, 2},
		Columns:    [][]int64{{5}},
		Aggregates: []AggSpec{{Func: Sum, Col: 0}},
	}, Options{})
	if err == nil {
		t.Fatal("expected error")
	}
}

func TestStatsExposed(t *testing.T) {
	keys := datagen.Generate(datagen.Spec{Dist: datagen.Uniform, N: 100000, K: 60000, Seed: 3})
	o := opts()
	o.CollectStats = true
	res, err := Aggregate(Input{GroupBy: keys}, o)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.Passes < 2 || len(st.LevelNanos) != st.Passes || len(st.LevelRows) != st.Passes {
		t.Fatalf("stats shape wrong: %+v", st)
	}
	if st.HashedRows+st.PartitionedRows == 0 || st.TablesEmitted == 0 {
		t.Fatalf("stats empty: %+v", st)
	}
	if st.MeanAlpha <= 0 {
		t.Fatalf("mean alpha = %v", st.MeanAlpha)
	}
}

func TestHashOrderExposed(t *testing.T) {
	keys := datagen.Generate(datagen.Spec{Dist: datagen.Uniform, N: 50000, K: 30000, Seed: 4})
	res, err := Aggregate(Input{GroupBy: keys}, opts())
	if err != nil {
		t.Fatal(err)
	}
	hs := res.Hashes()
	if len(hs) != res.Len() {
		t.Fatal("hash column length mismatch")
	}
	if sort.SliceIsSorted(hs, func(i, j int) bool { return hs[i] < hs[j] }) {
		// Fully sorted is possible but not required; the guarantee is
		// non-decreasing top digits. Either way this branch is fine.
		return
	}
	for i := 1; i < len(hs); i++ {
		if hs[i]>>56 < hs[i-1]>>56 {
			t.Fatalf("bucket order violated at %d", i)
		}
	}
}

func TestEmptyInputAPI(t *testing.T) {
	res, err := Aggregate(Input{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 0 {
		t.Fatal("empty input should give empty result")
	}
}

func TestLargeDefaultOptionsPath(t *testing.T) {
	// Exercise the real defaults (4 MiB cache, GOMAXPROCS workers).
	keys := datagen.Generate(datagen.Spec{Dist: datagen.Zipf, N: 200000, K: 50000, Seed: 5})
	groups, counts, err := GroupCount(keys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != datagen.CountDistinct(keys) {
		t.Fatal("wrong group count")
	}
	var total int64
	for _, c := range counts {
		total += c
	}
	if total != int64(len(keys)) {
		t.Fatalf("counts sum to %d, want %d", total, len(keys))
	}
}

func TestResultIndex(t *testing.T) {
	res, err := Aggregate(Input{GroupBy: []uint64{4, 9, 4, 2}}, opts())
	if err != nil {
		t.Fatal(err)
	}
	idx := res.Index()
	if len(idx) != 3 {
		t.Fatalf("index has %d entries", len(idx))
	}
	for k, i := range idx {
		if res.Groups[i] != k {
			t.Fatalf("index broken for %d", k)
		}
	}
}

// TestEnablePlanHasNoEffect pins the deprecated Options.EnablePlan as a
// no-op: on a three-segment heavy-hitter / zipf / uniform input and on a
// 90 % heavy hitter, setting it returns the same result as leaving it off,
// and the deprecated planner Stats fields read zero. At one worker rows are
// compared by position; at two, rows inside a hash bucket may land in a
// different order, so they are compared by key.
func TestEnablePlanHasNoEffect(t *testing.T) {
	const n, k = 3 << 15, 1 << 13
	skew := make([]uint64, n)
	seg := n / 3
	datagen.Fill(skew[:seg], datagen.Spec{Dist: datagen.HeavyHitter, K: k, Seed: 1, HitFraction: 0.5})
	datagen.Fill(skew[seg:2*seg], datagen.Spec{Dist: datagen.Zipf, K: k, Seed: 2, Theta: 1.0})
	datagen.Fill(skew[2*seg:], datagen.Spec{Dist: datagen.Uniform, K: k, Seed: 3})
	inputs := map[string][]uint64{
		"skew-segments": skew,
		"heavy-hitter":  datagen.Generate(datagen.Spec{Dist: datagen.HeavyHitter, N: n, K: k, Seed: 4, HitFraction: 0.9}),
	}
	for name, keys := range inputs {
		vals := make([]int64, len(keys))
		for i := range vals {
			vals[i] = int64(i%2001) - 1000
		}
		in := Input{
			GroupBy: keys,
			Columns: [][]int64{vals},
			Aggregates: []AggSpec{
				{Func: Count}, {Func: Sum, Col: 0}, {Func: Min, Col: 0}, {Func: Max, Col: 0}, {Func: Avg, Col: 0},
			},
		}
		for _, workers := range []int{1, 2} {
			o := Options{Workers: workers, CacheBytes: 64 << 10, CollectStats: true}
			off, err := Aggregate(in, o)
			if err != nil {
				t.Fatal(err)
			}
			o.EnablePlan = true
			on, err := Aggregate(in, o)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("%s workers %d", name, workers)
			st := on.Stats
			if st.Planned || st.PlanNanos != 0 || st.PlanEstimatedK != 0 || st.HotRowsBypassed != 0 {
				t.Fatalf("%s: deprecated plan stats not zero: %+v", label, st)
			}
			if on.Len() != off.Len() {
				t.Fatalf("%s: %d groups, want %d", label, on.Len(), off.Len())
			}
			row := func(i int) int { return i }
			if workers > 1 {
				idx := off.Index()
				row = func(i int) int { return idx[on.Groups[i]] }
			}
			for i, g := range on.Groups {
				j := row(i)
				if off.Groups[j] != g || off.Hashes()[j] != on.Hashes()[i] {
					t.Fatalf("%s: row %d: group %d hash %x, want group %d hash %x",
						label, i, g, on.Hashes()[i], off.Groups[j], off.Hashes()[j])
				}
				for a := range in.Aggregates {
					if on.Aggs[a][i] != off.Aggs[a][j] ||
						math.Float64bits(on.Float(a, i)) != math.Float64bits(off.Float(a, j)) {
						t.Fatalf("%s: group %d agg %d: %d (%v), want %d (%v)", label, g, a,
							on.Aggs[a][i], on.Float(a, i), off.Aggs[a][j], off.Float(a, j))
					}
				}
			}
		}
	}
}
