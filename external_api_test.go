package cacheagg

import (
	"strings"
	"testing"

	"cacheagg/internal/datagen"
	"cacheagg/internal/xrand"
)

func TestAggregateExternalMatchesInMemory(t *testing.T) {
	const n = 120000
	keys := datagen.Generate(datagen.Spec{Dist: datagen.Zipf, N: n, K: 30000, Seed: 31})
	rng := xrand.NewXoshiro256(5)
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(rng.Next()%500) - 250
	}
	in := Input{
		GroupBy: keys,
		Columns: [][]int64{vals},
		Aggregates: []AggSpec{
			{Func: Count}, {Func: Sum, Col: 0}, {Func: Avg, Col: 0},
		},
	}
	mem, err := Aggregate(in, opts())
	if err != nil {
		t.Fatal(err)
	}
	ext, err := AggregateExternal(in, opts(), ExternalOptions{
		MemoryBudgetRows: 10000,
		TempDir:          t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if ext.Len() != mem.Len() {
		t.Fatalf("external %d groups vs in-memory %d", ext.Len(), mem.Len())
	}
	if ext.Stats.Chunks != 1 {
		t.Fatalf("chunks = %d, want 1: the input is one pass", ext.Stats.Chunks)
	}
	if ext.Stats.SpilledRows == 0 || ext.Stats.SpilledBytes == 0 {
		t.Fatal("expected spilling")
	}

	memBy := map[uint64][3]int64{}
	for i, g := range mem.Groups {
		memBy[g] = [3]int64{mem.Aggs[0][i], mem.Aggs[1][i], mem.Aggs[2][i]}
	}
	for i, g := range ext.Groups {
		got := [3]int64{ext.Aggs[0][i], ext.Aggs[1][i], ext.Aggs[2][i]}
		if memBy[g] != got {
			t.Fatalf("group %d: external %v vs in-memory %v", g, got, memBy[g])
		}
	}
}

func TestAggregateExternalInvalidFunc(t *testing.T) {
	_, err := AggregateExternal(Input{
		GroupBy:    []uint64{1},
		Aggregates: []AggSpec{{Func: Func(99)}},
	}, Options{}, ExternalOptions{})
	if err == nil {
		t.Fatal("expected error")
	}
}

func TestAggregateExternalEmpty(t *testing.T) {
	res, err := AggregateExternal(Input{}, Options{}, ExternalOptions{TempDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 0 {
		t.Fatal("empty input should give no groups")
	}
}

// TestAggregateExternalRejectsOptionsBudget: the call's budget is
// ExternalOptions.MemoryBudgetBytes, so a budget in Options is an error,
// not silently ignored; a negative one fails as it does for Aggregate.
func TestAggregateExternalRejectsOptionsBudget(t *testing.T) {
	in := Input{GroupBy: []uint64{1, 2, 1}, Aggregates: []AggSpec{{Func: Count}}}
	for _, tc := range []struct {
		budget int64
		want   string
	}{
		{-5, "negative MemoryBudgetBytes -5"},
		{1 << 30, "ExternalOptions.MemoryBudgetBytes"},
	} {
		opt := opts()
		opt.MemoryBudgetBytes = tc.budget
		res, err := AggregateExternal(in, opt, ExternalOptions{TempDir: t.TempDir()})
		if err == nil || res != nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("budget %d: result %v, error %v; want an error naming %q", tc.budget, res != nil, err, tc.want)
		}
		if tc.budget < 0 {
			_, aggErr := Aggregate(in, opt)
			if aggErr == nil || aggErr.Error() != err.Error() {
				t.Fatalf("budget %d: Aggregate says %v, AggregateExternal %v", tc.budget, aggErr, err)
			}
		}
	}
}
