package core

// Tests for the result contract: the parallel finalize round writes every
// group exactly once into an exact-size result, only AVG keeps a float
// column, and Float answers every spec bit for bit.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"cacheagg/internal/agg"
	"cacheagg/internal/datagen"
	"cacheagg/internal/xrand"
)

// contractSpecs covers every kind, AVG twice over different columns.
var contractSpecs = []agg.Spec{
	{Kind: agg.Count},
	{Kind: agg.Sum, Col: 0},
	{Kind: agg.Min, Col: 1},
	{Kind: agg.Max, Col: 0},
	{Kind: agg.Avg, Col: 1},
	{Kind: agg.Avg, Col: 0},
}

// contractInput draws n uniform keys over k groups and two signed columns.
func contractInput(n int, k uint64, seed uint64) *Input {
	keys := datagen.Generate(datagen.Spec{Dist: datagen.Uniform, N: n, K: k, Seed: seed})
	rng := xrand.NewXoshiro256(seed)
	c0 := make([]int64, n)
	c1 := make([]int64, n)
	for i := range c0 {
		r := rng.Next()
		c0[i] = int64(r%100003) - 50000
		c1[i] = int64(r >> 1)
	}
	return &Input{Keys: keys, AggCols: [][]int64{c0, c1}, Specs: contractSpecs}
}

// contractOracle folds the input into one packed state per key.
func contractOracle(in *Input) map[uint64][]uint64 {
	lay := agg.NewLayout(in.Specs)
	states := map[uint64][]uint64{}
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
	return states
}

// checkContract checks res against the oracle group by group — Aggs and
// the bits of Float — and the shape of every column.
func checkContract(t *testing.T, label string, res *Result, in *Input) {
	t.Helper()
	want := contractOracle(in)
	n := res.Groups()
	if n != len(want) {
		t.Fatalf("%s: %d groups, want %d", label, n, len(want))
	}
	exact := func(name string, l, c int) {
		t.Helper()
		if l != n || c != n {
			t.Fatalf("%s: %s has len %d cap %d, want %d", label, name, l, c, n)
		}
	}
	exact("Keys", len(res.Keys), cap(res.Keys))
	exact("Hashes", len(res.Hashes), cap(res.Hashes))
	if len(res.Aggs) != len(in.Specs) || len(res.AggsFloat) != len(in.Specs) {
		t.Fatalf("%s: %d int and %d float columns for %d specs",
			label, len(res.Aggs), len(res.AggsFloat), len(in.Specs))
	}
	for a, sp := range in.Specs {
		exact(sp.String(), len(res.Aggs[a]), cap(res.Aggs[a]))
		if f := res.AggsFloat[a]; (f != nil) != (sp.Kind == agg.Avg) {
			t.Fatalf("%s: %v float column nil = %v", label, sp, f == nil)
		}
		if sp.Kind == agg.Avg {
			exact(sp.String()+" float", len(res.AggsFloat[a]), cap(res.AggsFloat[a]))
		}
	}
	lay := agg.NewLayout(in.Specs)
	seen := make(map[uint64]bool, n)
	for r := 0; r < n; r++ {
		k := res.Keys[r]
		st, ok := want[k]
		if !ok || seen[k] {
			t.Fatalf("%s: key %d phantom (%v) or duplicated", label, k, !ok)
		}
		seen[k] = true
		for a, sp := range in.Specs {
			s := st[lay.Offsets[a] : lay.Offsets[a]+sp.Kind.Width()]
			if got, w := res.Aggs[a][r], sp.Kind.FinalizeInt(s); got != w {
				t.Fatalf("%s: key %d %v = %d, want %d", label, k, sp, got, w)
			}
			if got, w := res.Float(a, r), sp.Kind.FinalizeFloat(s); math.Float64bits(got) != math.Float64bits(w) {
				t.Fatalf("%s: key %d %v float = %v, want %v", label, k, sp, got, w)
			}
		}
	}
}

// TestResultContract runs the hashing-only and the partitioning regime at
// 1, 2, 3 and 8 workers: one worker finalizes inline, the others in a
// pool round.
func TestResultContract(t *testing.T) {
	inputs := []struct {
		name        string
		in          *Input
		partitioned bool
	}{
		{"hashing", contractInput(50000, 300, 1), false},
		{"partitioning", contractInput(120000, 80000, 2), true},
	}
	for _, tc := range inputs {
		for _, w := range []int{1, 2, 3, 8} {
			cfg := Config{Workers: w, CacheBytes: 64 << 10, CollectStats: true}
			res, err := Aggregate(cfg, tc.in)
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Stats.PartitionedRows > 0; got != tc.partitioned {
				t.Fatalf("%s/w%d: partitioned = %v (%d rows)", tc.name, w, got, res.Stats.PartitionedRows)
			}
			checkContract(t, fmt.Sprintf("%s/w%d", tc.name, w), res, tc.in)
		}
	}
}

// TestFinalizeObservesCancellation: a context cancelled between the
// parallel phases and the finalize round fails the round with ctx.Err(),
// and the next clean run is exact.
func TestFinalizeObservesCancellation(t *testing.T) {
	in := contractInput(60000, 30000, 3)
	for _, w := range []int{1, 4} {
		cfg := Config{Workers: w, CacheBytes: 64 << 10}.withDefaults()
		e, err := newExec(context.Background(), cfg, in)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		if err := e.run(ctx); err != nil {
			t.Fatal(err)
		}
		if len(e.out.chunks) < 2 {
			t.Fatalf("w%d: %d chunks, want several", w, len(e.out.chunks))
		}
		cancel()
		if res, err := e.assemble(ctx); !errors.Is(err, context.Canceled) || res != nil {
			t.Fatalf("w%d: assemble after cancel returned a result (%v) and %v; want context.Canceled",
				w, res != nil, err)
		}
		e.releaseAccounting()
		res, err := Aggregate(cfg, in)
		if err != nil {
			t.Fatal(err)
		}
		checkContract(t, "after cancel", res, in)
	}
}
