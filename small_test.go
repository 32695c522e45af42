package cacheagg

// Small operations: the cost of an Aggregate call whose input fits one
// morsel or a few, against a plain Go map in the same process. Such a call
// is one pass (the fused final pass at intake), so its cost should follow
// the input, not the cache-sized machinery of a large run.
//
//	go test -run '^$' -bench AggregateSmall -benchmem -count 10 .
//
// prints ten lines per sub-benchmark; compare each size's operator lines
// with its map lines. Both sides compute SUM and COUNT over K = n/2 keys.

import (
	"fmt"
	"testing"

	"cacheagg/internal/testutil"
	"cacheagg/internal/xrand"
)

// smallInput is n rows over K = n/2 uniform keys with SUM(v) and COUNT(*).
func smallInput(n int) Input {
	rng := xrand.NewXoshiro256(uint64(n))
	keys := make([]uint64, n)
	vals := make([]int64, n)
	for i := range keys {
		keys[i] = rng.Next() % uint64(max(n/2, 1))
		vals[i] = int64(rng.Next() % 1000)
	}
	return Input{
		GroupBy:    keys,
		Columns:    [][]int64{vals},
		Aggregates: []AggSpec{{Func: Sum, Col: 0}, {Func: Count}},
	}
}

// mapAggregate is the control: one map entry, a pointer to the group's
// state, per group.
func mapAggregate(in Input) map[uint64]*[2]int64 {
	m := make(map[uint64]*[2]int64)
	vals := in.Columns[0]
	for i, k := range in.GroupBy {
		st := m[k]
		if st == nil {
			st = new([2]int64)
			m[k] = st
		}
		st[0] += vals[i]
		st[1]++
	}
	return m
}

var smallSink int

func BenchmarkAggregateSmall(b *testing.B) {
	for _, n := range []int{64, 1024, 16384} {
		in := smallInput(n)
		for _, w := range []int{1, 2} {
			b.Run(fmt.Sprintf("rows=%d/workers=%d", n, w), func(b *testing.B) {
				opt := Options{Workers: w}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res, err := Aggregate(in, opt)
					if err != nil {
						b.Fatal(err)
					}
					smallSink += res.Len()
				}
			})
		}
		b.Run(fmt.Sprintf("rows=%d/map", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				smallSink += len(mapAggregate(in))
			}
		})
	}
}

// TestAggregateSmallAllocs guards the allocation count of a small call:
// with the fused final pass at intake it makes no split, no buckets and no
// leaf scratch, so what remains is the result and a fixed handful of
// bookkeeping allocations, independent of the group count. Up to 16,384
// rows the input is one morsel, so Workers 2 runs one worker too; its caps
// are the 29–30 allocations BenchmarkAggregateSmall reads for it.
func TestAggregateSmallAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector adds allocations and drops pooled kits")
	}
	for _, tc := range []struct {
		rows, workers int
		max           float64
	}{
		{64, 1, 30},
		{1024, 1, 40},
		{1024, 2, 30},
		{16384, 2, 30},
	} {
		in := smallInput(tc.rows)
		want := mapAggregate(in)
		run := func() *Result {
			res, err := Aggregate(in, Options{Workers: tc.workers})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		res := run()
		if res.Len() != len(want) {
			t.Fatalf("rows=%d: %d groups, want %d", tc.rows, res.Len(), len(want))
		}
		for i, k := range res.Groups {
			if st := want[k]; st == nil || res.Aggs[0][i] != st[0] || res.Aggs[1][i] != st[1] {
				t.Fatalf("rows=%d key %d: got (%d, %d)", tc.rows, k, res.Aggs[0][i], res.Aggs[1][i])
			}
		}
		if got := testing.AllocsPerRun(20, func() { run() }); got > tc.max {
			t.Errorf("rows=%d workers=%d: %.0f allocations per call, want at most %.0f", tc.rows, tc.workers, got, tc.max)
		}
	}
}
