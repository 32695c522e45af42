package cacheagg

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"cacheagg/internal/datagen"
	"cacheagg/internal/testutil"
)

// oracleKey serializes one row's key columns with its own scheme —
// independent of the intern codec — so the oracle's grouping cannot
// inherit a codec bug.
func oracleKey(cols []KeyColumn, row int) string {
	var sb strings.Builder
	for ci := range cols {
		c := &cols[ci]
		switch {
		case c.IsNull(row):
			sb.WriteString("N|")
		case c.Uint64s != nil:
			sb.WriteString("u:")
			sb.WriteString(strconv.FormatUint(c.Uint64s[row], 10))
			sb.WriteByte('|')
		default:
			sb.WriteString("s:")
			sb.WriteString(strconv.Quote(c.Strings[row]))
			sb.WriteByte('|')
		}
	}
	return sb.String()
}

type oracleGroup struct {
	count       int64
	sum         int64
	min, max    int64
	first       bool
	sumForAvg   int64
	countForAvg int64
}

// oracleAggregate is the plain map[string]-keyed scalar reference: one
// pass, per-key scalar accumulators for COUNT, SUM, MIN, MAX, AVG over
// column 0.
func oracleAggregate(cols []KeyColumn, vals []int64) map[string]*oracleGroup {
	out := make(map[string]*oracleGroup)
	for i := range vals {
		k := oracleKey(cols, i)
		g := out[k]
		if g == nil {
			g = &oracleGroup{first: true}
			out[k] = g
		}
		v := vals[i]
		g.count++
		g.sum += v
		if g.first || v < g.min {
			g.min = v
		}
		if g.first || v > g.max {
			g.max = v
		}
		g.first = false
		g.sumForAvg += v
		g.countForAvg++
	}
	return out
}

type keyShape struct {
	name string
	make func(spec datagen.Spec) []KeyColumn
}

var keyShapes = []keyShape{
	{"string", func(spec datagen.Spec) []KeyColumn {
		return []KeyColumn{{Strings: datagen.GenerateStrings(spec)}}
	}},
	{"composite2-null", func(spec datagen.Spec) []KeyColumn {
		cols := datagen.GenerateComposite(spec, 2)
		return []KeyColumn{
			{Uint64s: cols[0], Nulls: datagen.NullMask(spec.N, 0.05, spec.Seed+99)},
			{Uint64s: cols[1]},
		}
	}},
	{"mixed-null", func(spec datagen.Spec) []KeyColumn {
		keys := datagen.Generate(spec)
		strs := make([]string, len(keys))
		for i, k := range keys {
			strs[i] = datagen.StringKey(k % 97)
		}
		return []KeyColumn{
			{Uint64s: keys},
			{Strings: strs, Nulls: datagen.NullMask(spec.N, 0.03, spec.Seed+7)},
		}
	}},
}

// TestAggregateGeneralDifferentialOracle is the acceptance gate for the
// general-key layer: for string, composite and NULL-bearing keys, across
// distributions, worker counts and both forced execution routines, every
// decoded group's aggregates must be bit-identical to the map-keyed
// scalar oracle. Run under -race in CI.
func TestAggregateGeneralDifferentialOracle(t *testing.T) {
	const n = 20000
	dists := []datagen.Dist{datagen.Uniform, datagen.Zipf, datagen.HeavyHitter, datagen.Sequential}
	routines := []Routine{RoutinePartitioned, RoutineSortSpill}
	aggs := []AggSpec{
		{Func: Count},
		{Func: Sum, Col: 0},
		{Func: Min, Col: 0},
		{Func: Max, Col: 0},
		{Func: Avg, Col: 0},
	}
	for _, shape := range keyShapes {
		for _, dist := range dists {
			spec := datagen.Spec{Dist: dist, N: n, K: 2000, Seed: 42}
			gcols := shape.make(spec)
			vals := make([]int64, n)
			for i := range vals {
				vals[i] = int64(i%1000) - 500
			}
			want := oracleAggregate(gcols, vals)
			for _, routine := range routines {
				for _, workers := range []int{1, 4} {
					name := fmt.Sprintf("%s/%s/%s/w%d", shape.name, dist, routine, workers)
					t.Run(name, func(t *testing.T) {
						res, err := AggregateGeneral(GeneralInput{
							GroupBy:    gcols,
							Columns:    [][]int64{vals},
							Aggregates: aggs,
						}, Options{Routine: routine, Workers: workers})
						if err != nil {
							t.Fatal(err)
						}
						if res.Len() != len(want) {
							t.Fatalf("%d groups, oracle has %d", res.Len(), len(want))
						}
						for r := 0; r < res.Len(); r++ {
							k := oracleKey(res.GroupCols, r)
							g := want[k]
							if g == nil {
								t.Fatalf("group %q not in oracle", k)
							}
							if res.Aggs[0][r] != g.count {
								t.Fatalf("%q: count %d, want %d", k, res.Aggs[0][r], g.count)
							}
							if res.Aggs[1][r] != g.sum {
								t.Fatalf("%q: sum %d, want %d", k, res.Aggs[1][r], g.sum)
							}
							if res.Aggs[2][r] != g.min {
								t.Fatalf("%q: min %d, want %d", k, res.Aggs[2][r], g.min)
							}
							if res.Aggs[3][r] != g.max {
								t.Fatalf("%q: max %d, want %d", k, res.Aggs[3][r], g.max)
							}
							wantAvg := float64(g.sumForAvg) / float64(g.countForAvg)
							if got := res.Float(4, r); got != wantAvg {
								t.Fatalf("%q: avg %v, want %v", k, got, wantAvg)
							}
						}
						if res.Stats.InternedKeys == 0 || res.Stats.InternBytes == 0 {
							t.Fatal("intern stats not populated")
						}
					})
				}
			}
		}
	}
}

// TestAggregateGeneralExact pins small hand-computed inputs: every group's
// key (in oracleKey form) maps to its aggregates as read through Float,
// exact for AVG and the widened integer otherwise.
func TestAggregateGeneralExact(t *testing.T) {
	cases := []struct {
		name string
		in   GeneralInput
		want map[string][]float64
	}{
		{"two-columns", GeneralInput{
			// GROUP BY (region, product): COUNT, SUM(sales).
			GroupBy: []KeyColumn{
				{Uint64s: []uint64{1, 1, 2, 2, 3, 1, 2}},
				{Uint64s: []uint64{10, 20, 10, 10, 20, 10, 10}},
			},
			Columns:    [][]int64{{5, 7, 3, 2, 9, 1, 4}},
			Aggregates: []AggSpec{{Func: Count}, {Func: Sum, Col: 0}},
		}, map[string][]float64{
			"u:1|u:10|": {2, 6}, "u:1|u:20|": {1, 7},
			"u:2|u:10|": {3, 9},
			"u:3|u:20|": {1, 9},
		}},
		{"avg", GeneralInput{
			GroupBy:    []KeyColumn{{Uint64s: []uint64{1, 1}}},
			Columns:    [][]int64{{1, 2}},
			Aggregates: []AggSpec{{Func: Avg, Col: 0}},
		}, map[string][]float64{"u:1|": {1.5}}},
		{"empty-strings", GeneralInput{
			GroupBy:    []KeyColumn{{Strings: []string{}}},
			Aggregates: []AggSpec{{Func: Count}},
		}, map[string][]float64{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := AggregateGeneral(tc.in, opts())
			if err != nil {
				t.Fatal(err)
			}
			if res.Len() != len(tc.want) {
				t.Fatalf("%d groups, want %d", res.Len(), len(tc.want))
			}
			for r := 0; r < res.Len(); r++ {
				k := oracleKey(res.GroupCols, r)
				w, ok := tc.want[k]
				if !ok {
					t.Fatalf("unexpected group %q", k)
				}
				for a, wv := range w {
					if got := res.Float(a, r); got != wv {
						t.Fatalf("group %q aggregate %d: %v, want %v", k, a, got, wv)
					}
				}
			}
		})
	}
}

func TestAggregateGeneralSharedInterner(t *testing.T) {
	// A shared dictionary keeps ids comparable across calls: interning the
	// same keys twice must not grow it, and stats report the cumulative
	// size.
	it := NewInterner()
	in := GeneralInput{
		GroupBy:    []KeyColumn{{Strings: []string{"a", "b", "a", "c"}}},
		Aggregates: []AggSpec{{Func: Count}},
	}
	r1, err := AggregateGeneral(in, Options{Interner: it})
	if err != nil {
		t.Fatal(err)
	}
	if it.Len() != 3 || r1.Stats.InternedKeys != 3 {
		t.Fatalf("dictionary holds %d keys (stats %d), want 3", it.Len(), r1.Stats.InternedKeys)
	}
	r2, err := AggregateGeneral(in, Options{Interner: it})
	if err != nil {
		t.Fatal(err)
	}
	if it.Len() != 3 {
		t.Fatalf("re-running the same keys grew the dictionary to %d", it.Len())
	}
	if r2.Len() != 3 {
		t.Fatalf("second run found %d groups", r2.Len())
	}
}

func TestAggregateGeneralValidation(t *testing.T) {
	if _, err := AggregateGeneral(GeneralInput{}, Options{}); err == nil {
		t.Fatal("no key columns must fail")
	}
	if _, err := AggregateGeneral(GeneralInput{GroupBy: []KeyColumn{{}}}, Options{}); err == nil {
		t.Fatal("empty key column must fail")
	}
	if _, err := AggregateGeneral(GeneralInput{GroupBy: []KeyColumn{
		{Uint64s: []uint64{1, 2}},
		{Strings: []string{"x"}},
	}}, Options{}); err == nil {
		t.Fatal("ragged key columns must fail")
	}
}

func TestAggregateGeneralInternGrowTrace(t *testing.T) {
	// Only a shared dictionary grows: the private path builds none, so it
	// emits no intern-grow events.
	keys := make([]string, 40000)
	for i := range keys {
		keys[i] = datagen.StringKey(uint64(i))
	}
	in := GeneralInput{
		GroupBy:    []KeyColumn{{Strings: keys}},
		Aggregates: []AggSpec{{Func: Count}},
	}
	tr := NewTracer(1 << 16)
	if _, err := AggregateGeneral(in, Options{Tracer: tr, Interner: NewInterner()}); err != nil {
		t.Fatal(err)
	}
	if n := tr.Snapshot().Counts["intern-grow"]; n == 0 {
		t.Fatal("no intern-grow events for a 40k-key dictionary build")
	}
	tr = NewTracer(1 << 16)
	if _, err := AggregateGeneral(in, Options{Tracer: tr}); err != nil {
		t.Fatal(err)
	}
	if n := tr.Snapshot().Counts["intern-grow"]; n != 0 {
		t.Fatalf("the private path emitted %d intern-grow events", n)
	}
}

// TestAggregateGeneralAllocsBelowGroups pins decode-as-gather: a private
// dictionary op allocates a bounded number of times, fewer than it has
// groups, where decoding every group allocated one string each.
func TestAggregateGeneralAllocsBelowGroups(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector drops pooled worker kits at random")
	}
	const n, k = 1 << 14, 1 << 12
	keys := make([]string, n)
	vals := make([]int64, n)
	for i := range keys {
		keys[i] = datagen.StringKey(uint64(i % k))
		vals[i] = int64(i)
	}
	in := GeneralInput{
		GroupBy:    []KeyColumn{{Strings: keys}},
		Columns:    [][]int64{vals},
		Aggregates: []AggSpec{{Func: Count}, {Func: Sum, Col: 0}},
	}
	opt := Options{Workers: 1}
	var groups int
	mallocs := testing.AllocsPerRun(5, func() {
		res, err := AggregateGeneral(in, opt)
		if err != nil {
			t.Fatal(err)
		}
		groups = res.Len()
	})
	t.Logf("%.0f mallocs per op for %d groups", mallocs, groups)
	if groups != k {
		t.Fatalf("%d groups, want %d", groups, k)
	}
	if mallocs >= float64(groups) {
		t.Fatalf("%.0f mallocs per op, want fewer than the %d groups", mallocs, groups)
	}
}

// TestAggregateGeneralSharedDictionaryRoundTrip: a shared dictionary still
// learns every key a query saw, and its ids decode back to the input.
func TestAggregateGeneralSharedDictionaryRoundTrip(t *testing.T) {
	const n = 5000
	spec := datagen.Spec{Dist: datagen.Zipf, N: n, K: 300, Seed: 11}
	cols := []KeyColumn{
		{Strings: datagen.GenerateStrings(spec), Nulls: datagen.NullMask(n, 0.05, 12)},
		{Uint64s: datagen.Generate(datagen.Spec{Dist: datagen.Uniform, N: n, K: 5, Seed: 13}), Nulls: datagen.NullMask(n, 0.1, 14)},
	}
	distinct := make(map[string]bool)
	for r := 0; r < n; r++ {
		distinct[oracleKey(cols, r)] = true
	}
	it := NewInterner()
	res, err := AggregateGeneral(GeneralInput{GroupBy: cols, Aggregates: []AggSpec{{Func: Count}}}, Options{Interner: it})
	if err != nil {
		t.Fatal(err)
	}
	if it.Len() != len(distinct) || res.Len() != len(distinct) {
		t.Fatalf("dictionary holds %d keys, result %d groups, want %d", it.Len(), res.Len(), len(distinct))
	}
	ids, err := it.EncodeColumns(cols)
	if err != nil {
		t.Fatal(err)
	}
	if it.Len() != len(distinct) {
		t.Fatalf("re-encoding the input grew the dictionary to %d keys", it.Len())
	}
	dec, err := it.DecodeGroups(ids, []KeyType{KeyString, KeyUint64})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < n; r++ {
		if got, want := oracleKey(dec, r), oracleKey(cols, r); got != want {
			t.Fatalf("row %d decodes to %s, want %s", r, got, want)
		}
	}
}

func TestAggregateGeneralNullDistinctFromZeroAndEmpty(t *testing.T) {
	res, err := AggregateGeneral(GeneralInput{
		GroupBy: []KeyColumn{{
			Strings: []string{"", "x", ""},
			Nulls:   []bool{false, true, false},
		}},
		Aggregates: []AggSpec{{Func: Count}},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Fatalf("want 2 groups (empty string, NULL), got %d", res.Len())
	}
	for r := 0; r < res.Len(); r++ {
		c := &res.GroupCols[0]
		if c.IsNull(r) {
			if res.Aggs[0][r] != 1 {
				t.Fatalf("NULL group count %d, want 1", res.Aggs[0][r])
			}
		} else if c.Strings[r] != "" || res.Aggs[0][r] != 2 {
			t.Fatalf("group %d: %q count %d", r, c.Strings[r], res.Aggs[0][r])
		}
	}
}
