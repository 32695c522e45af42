package agg

import (
	"math"
	"testing"
	"testing/quick"

	"cacheagg/internal/xrand"
)

func allKinds() []Kind { return []Kind{Count, Sum, Min, Max, Avg} }

func TestKindString(t *testing.T) {
	want := map[Kind]string{Count: "COUNT", Sum: "SUM", Min: "MIN", Max: "MAX", Avg: "AVG"}
	for k, w := range want {
		if k.String() != w {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), w)
		}
	}
	if Kind(99).String() != "Kind(99)" {
		t.Errorf("invalid kind string: %q", Kind(99).String())
	}
}

func TestKindValid(t *testing.T) {
	for _, k := range allKinds() {
		if !k.Valid() {
			t.Errorf("%v should be valid", k)
		}
	}
	for _, k := range []Kind{-1, numKinds, 42} {
		if k.Valid() {
			t.Errorf("%d should be invalid", int(k))
		}
	}
}

func TestWidth(t *testing.T) {
	for _, k := range allKinds() {
		want := 1
		if k == Avg {
			want = 2
		}
		if k.Width() != want {
			t.Errorf("%v.Width() = %d, want %d", k, k.Width(), want)
		}
	}
}

// reference computes the expected result of folding values one by one.
func reference(k Kind, values []int64) (intRes int64, floatRes float64) {
	if len(values) == 0 {
		panic("empty group")
	}
	switch k {
	case Count:
		return int64(len(values)), float64(len(values))
	case Sum:
		var s int64
		for _, v := range values {
			s += v
		}
		return s, float64(s)
	case Min:
		m := values[0]
		for _, v := range values[1:] {
			if v < m {
				m = v
			}
		}
		return m, float64(m)
	case Max:
		m := values[0]
		for _, v := range values[1:] {
			if v > m {
				m = v
			}
		}
		return m, float64(m)
	case Avg:
		var s int64
		for _, v := range values {
			s += v
		}
		n := int64(len(values))
		return s / n, float64(s) / float64(n)
	}
	panic("bad kind")
}

func TestInitFoldFinalize(t *testing.T) {
	rng := xrand.NewXoshiro256(1)
	for _, k := range allKinds() {
		for trial := 0; trial < 100; trial++ {
			n := 1 + rng.Intn(50)
			values := make([]int64, n)
			for i := range values {
				values[i] = int64(rng.Next()%2001) - 1000
			}
			state := make([]uint64, k.Width())
			k.Init(state, values[0])
			for _, v := range values[1:] {
				k.Fold(state, v)
			}
			wantInt, wantFloat := reference(k, values)
			if got := k.FinalizeInt(state); got != wantInt {
				t.Fatalf("%v over %v: FinalizeInt = %d, want %d", k, values, got, wantInt)
			}
			if got := k.FinalizeFloat(state); got != wantFloat {
				t.Fatalf("%v over %v: FinalizeFloat = %v, want %v", k, values, got, wantFloat)
			}
		}
	}
}

// TestMergeEqualsFold is the crucial super-aggregate property: splitting a
// group arbitrarily into two parts, aggregating each part, and merging the
// partial states must give the same result as folding the whole group.
// This is exactly what the operator relies on when hashing pre-aggregates
// some rows and partitioning moves others untouched.
func TestMergeEqualsFold(t *testing.T) {
	rng := xrand.NewXoshiro256(2)
	for _, k := range allKinds() {
		for trial := 0; trial < 200; trial++ {
			n := 2 + rng.Intn(40)
			values := make([]int64, n)
			for i := range values {
				values[i] = int64(rng.Next()%200001) - 100000
			}
			cut := 1 + rng.Intn(n-1)

			left := make([]uint64, k.Width())
			k.Init(left, values[0])
			for _, v := range values[1:cut] {
				k.Fold(left, v)
			}
			right := make([]uint64, k.Width())
			k.Init(right, values[cut])
			for _, v := range values[cut+1:] {
				k.Fold(right, v)
			}
			k.Merge(left, right)

			whole := make([]uint64, k.Width())
			k.Init(whole, values[0])
			for _, v := range values[1:] {
				k.Fold(whole, v)
			}
			for i := range whole {
				if left[i] != whole[i] {
					t.Fatalf("%v: merged state %v != folded state %v (values %v, cut %d)",
						k, left, whole, values, cut)
				}
			}
		}
	}
}

// TestMergeAssociativeCommutative: merge must be associative and, for our
// kinds, commutative — the parallel driver merges partial states in
// nondeterministic order.
func TestMergeAssociativeCommutative(t *testing.T) {
	mk := func(k Kind, v int64, extra []int64) []uint64 {
		s := make([]uint64, k.Width())
		k.Init(s, v)
		for _, e := range extra {
			k.Fold(s, e)
		}
		return s
	}
	f := func(a, b, c int64) bool {
		for _, k := range allKinds() {
			sa, sb, sc := mk(k, a, nil), mk(k, b, []int64{a}), mk(k, c, []int64{b, a})

			// (a⊕b)⊕c
			ab := append([]uint64(nil), sa...)
			k.Merge(ab, sb)
			abc1 := append([]uint64(nil), ab...)
			k.Merge(abc1, sc)

			// a⊕(b⊕c)
			bc := append([]uint64(nil), sb...)
			k.Merge(bc, sc)
			abc2 := append([]uint64(nil), sa...)
			k.Merge(abc2, bc)

			// b⊕a (commutativity)
			ba := append([]uint64(nil), sb...)
			k.Merge(ba, sa)

			for i := range abc1 {
				if abc1[i] != abc2[i] {
					return false
				}
			}
			for i := range ab {
				if ab[i] != ba[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCountSuperAggregateIsSum(t *testing.T) {
	// The paper's example: the super-aggregate of COUNT is SUM. Two partial
	// counts of 3 and 4 must merge to 7, not to 2.
	a := []uint64{3}
	b := []uint64{4}
	Count.Merge(a, b)
	if a[0] != 7 {
		t.Fatalf("COUNT merge gave %d, want 7", a[0])
	}
}

func TestMinMaxNegativeValues(t *testing.T) {
	s := make([]uint64, 1)
	Min.Init(s, -5)
	Min.Fold(s, 3)
	Min.Fold(s, -100)
	if got := Min.FinalizeInt(s); got != -100 {
		t.Fatalf("MIN = %d, want -100", got)
	}
	Max.Init(s, -5)
	Max.Fold(s, -3)
	Max.Fold(s, -100)
	if got := Max.FinalizeInt(s); got != -3 {
		t.Fatalf("MAX = %d, want -3", got)
	}
}

func TestAvgFinalize(t *testing.T) {
	s := make([]uint64, 2)
	Avg.Init(s, 1)
	Avg.Fold(s, 2)
	if got := Avg.FinalizeFloat(s); got != 1.5 {
		t.Fatalf("AVG float = %v, want 1.5", got)
	}
	if got := Avg.FinalizeInt(s); got != 1 {
		t.Fatalf("AVG int = %v, want 1", got)
	}
}

func TestAvgZeroCountFinalizesToZero(t *testing.T) {
	s := make([]uint64, 2)
	if Avg.FinalizeInt(s) != 0 || Avg.FinalizeFloat(s) != 0 {
		t.Fatal("AVG of empty state should be 0")
	}
}

// TestFinalizeColumnMatchesRowForm: the column kernel gives the row
// finalizers' values bit for bit, for every kind, over random states and a
// zero-count AVG row; it writes floats for AVG only.
func TestFinalizeColumnMatchesRowForm(t *testing.T) {
	rng := xrand.NewXoshiro256(3)
	const n = 257
	for _, k := range allKinds() {
		state := make([][]uint64, k.Width())
		for w := range state {
			state[w] = make([]uint64, n)
			for i := range state[w] {
				state[w][i] = rng.Next()
			}
		}
		if k == Avg {
			for i := range state[1] {
				state[1][i] %= 1000 // a count; row 7 has none
			}
			state[1][7] = 0
		}
		ints := make([]int64, n)
		floats := make([]float64, n)
		for i := range floats {
			floats[i] = -1
		}
		k.FinalizeColumn(ints, floats, state)
		row := make([]uint64, k.Width())
		for i := 0; i < n; i++ {
			for w := range row {
				row[w] = state[w][i]
			}
			if ints[i] != k.FinalizeInt(row) {
				t.Fatalf("%v row %d: int %d, want %d", k, i, ints[i], k.FinalizeInt(row))
			}
			wantF := -1.0
			if k == Avg {
				wantF = k.FinalizeFloat(row)
			}
			if math.Float64bits(floats[i]) != math.Float64bits(wantF) {
				t.Fatalf("%v row %d: float %v, want %v", k, i, floats[i], wantF)
			}
		}
		if k != Avg {
			k.FinalizeColumn(ints, nil, state) // floats unused
		}
	}
}

func TestInvalidKindPanics(t *testing.T) {
	bad := Kind(77)
	cases := []func(){
		func() { bad.Init(make([]uint64, 1), 0) },
		func() { bad.Fold(make([]uint64, 1), 0) },
		func() { bad.Merge(make([]uint64, 1), make([]uint64, 1)) },
		func() { bad.FinalizeInt(make([]uint64, 1)) },
		func() { bad.FinalizeFloat(make([]uint64, 1)) },
		func() { bad.FinalizeColumn(make([]int64, 1), nil, [][]uint64{{0}}) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestSpecString(t *testing.T) {
	if s := (Spec{Kind: Count}).String(); s != "COUNT(*)" {
		t.Errorf("got %q", s)
	}
	if s := (Spec{Kind: Sum, Col: 2}).String(); s != "SUM(col2)" {
		t.Errorf("got %q", s)
	}
}

func TestLayoutOffsets(t *testing.T) {
	l := NewLayout([]Spec{{Kind: Sum}, {Kind: Avg, Col: 1}, {Kind: Count}, {Kind: Min, Col: 2}})
	wantOffsets := []int{0, 1, 3, 4}
	if l.Words != 5 {
		t.Fatalf("Words = %d, want 5", l.Words)
	}
	for i, w := range wantOffsets {
		if l.Offsets[i] != w {
			t.Fatalf("Offsets[%d] = %d, want %d", i, l.Offsets[i], w)
		}
	}
	if l.MaxInputCol() != 2 {
		t.Fatalf("MaxInputCol = %d, want 2", l.MaxInputCol())
	}
}

func TestLayoutMaxInputColCountOnly(t *testing.T) {
	l := NewLayout([]Spec{{Kind: Count, Col: 5}})
	if l.MaxInputCol() != -1 {
		t.Fatalf("COUNT-only layout should need no input columns, got %d", l.MaxInputCol())
	}
}

func TestLayoutPanicsOnInvalidSpec(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on invalid kind")
		}
	}()
	NewLayout([]Spec{{Kind: Kind(42)}})
}

func TestLayoutPanicsOnNegativeCol(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative column")
		}
	}()
	NewLayout([]Spec{{Kind: Sum, Col: -1}})
}

func TestLayoutRowRoundTrip(t *testing.T) {
	l := NewLayout([]Spec{{Kind: Count}, {Kind: Sum, Col: 0}, {Kind: Avg, Col: 1}, {Kind: Min, Col: 0}, {Kind: Max, Col: 1}})
	// Three rows with two input columns.
	rows := [][2]int64{{10, 100}, {-20, 50}, {5, 200}}

	states := make([]uint64, l.Words)
	l.InitRow(states, func(col int) int64 { return rows[0][col] })
	for _, r := range rows[1:] {
		r := r
		l.FoldRow(states, func(col int) int64 { return r[col] })
	}
	got := l.FinalizeRow(states, nil)
	want := []int64{3, -5, 116, -20, 200} // count, sum(c0), avg(c1)=350/3, min(c0), max(c1)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("result[%d] = %d, want %d (all: %v)", i, got[i], want[i], got)
		}
	}
}

func BenchmarkFoldSum(b *testing.B) {
	s := make([]uint64, 1)
	Sum.Init(s, 0)
	for i := 0; i < b.N; i++ {
		Sum.Fold(s, int64(i))
	}
}

func BenchmarkMergeAvg(b *testing.B) {
	x := []uint64{10, 2}
	y := []uint64{20, 3}
	for i := 0; i < b.N; i++ {
		Avg.Merge(x, y)
	}
}
