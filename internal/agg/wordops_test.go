package agg

import (
	"testing"
	"testing/quick"

	"cacheagg/internal/xrand"
)

func TestOpIdentity(t *testing.T) {
	if OpAdd.Apply(OpAdd.Identity(), 42) != 42 {
		t.Fatal("add identity broken")
	}
	if int64(OpMin.Apply(OpMin.Identity(), uint64(^uint64(0)))) != -1 {
		t.Fatal("min identity should yield the operand")
	}
	if int64(OpMax.Apply(OpMax.Identity(), uint64(^uint64(0)))) != -1 {
		t.Fatal("max identity should yield the operand")
	}
}

func TestOpApplyProperties(t *testing.T) {
	f := func(a, b, c int64) bool {
		for _, o := range []Op{OpAdd, OpMin, OpMax} {
			ua, ub, uc := uint64(a), uint64(b), uint64(c)
			// commutative
			if o.Apply(ua, ub) != o.Apply(ub, ua) {
				return false
			}
			// associative
			if o.Apply(o.Apply(ua, ub), uc) != o.Apply(ua, o.Apply(ub, uc)) {
				return false
			}
			// identity is neutral
			if o.Apply(o.Identity(), ua) != ua {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestInvalidOpPanics(t *testing.T) {
	bad := Op(9)
	for i, fn := range []func(){
		func() { bad.Identity() },
		func() { bad.Apply(1, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestWordOpsStructure(t *testing.T) {
	l := NewLayout([]Spec{{Kind: Count}, {Kind: Avg, Col: 3}, {Kind: Min, Col: 1}})
	ops := l.WordOps()
	if len(ops) != l.Words || len(ops) != 4 {
		t.Fatalf("got %d ops, want 4", len(ops))
	}
	want := []WordOp{
		{Op: OpAdd, Src: SrcOne},
		{Op: OpAdd, Src: SrcCol, Col: 3},
		{Op: OpAdd, Src: SrcOne},
		{Op: OpMin, Src: SrcCol, Col: 1},
	}
	for i := range want {
		if ops[i] != want[i] {
			t.Fatalf("ops[%d] = %+v, want %+v", i, ops[i], want[i])
		}
	}
}

// TestWordOpsEquivalentToKindOps: folding raw rows through per-word ops
// starting from identities must match Init+Fold through the Kind API, and
// merging through per-word ops must match Kind.Merge. This proves the
// columnar decomposition is faithful.
func TestWordOpsEquivalentToKindOps(t *testing.T) {
	specs := []Spec{{Kind: Count}, {Kind: Sum, Col: 0}, {Kind: Min, Col: 1}, {Kind: Max, Col: 0}, {Kind: Avg, Col: 1}}
	l := NewLayout(specs)
	ops := l.WordOps()
	rng := xrand.NewXoshiro256(4)

	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(30)
		rows := make([][2]int64, n)
		for i := range rows {
			rows[i] = [2]int64{int64(rng.Next()%2001) - 1000, int64(rng.Next()%2001) - 1000}
		}

		// Kind-level reference.
		ref := make([]uint64, l.Words)
		l.InitRow(ref, func(c int) int64 { return rows[0][c] })
		for _, r := range rows[1:] {
			r := r
			l.FoldRow(ref, func(c int) int64 { return r[c] })
		}

		// Word-op route: start from identities, fold every row.
		got := make([]uint64, len(ops))
		for w, op := range ops {
			got[w] = op.Op.Identity()
		}
		for _, r := range rows {
			for w, op := range ops {
				v := int64(1)
				if op.Src == SrcCol {
					v = r[op.Col]
				}
				got[w] = op.Op.Apply(got[w], uint64(v))
			}
		}
		for w := range ref {
			if got[w] != ref[w] {
				t.Fatalf("word %d: op route %d != kind route %d", w, int64(got[w]), int64(ref[w]))
			}
		}

		// Word-op merge must equal Kind.Merge.
		a := append([]uint64(nil), ref...)
		for i, s := range l.Specs {
			off, wd := l.Offsets[i], s.Kind.Width()
			s.Kind.Merge(a[off:off+wd], got[off:off+wd])
		}
		for w, op := range ops {
			m := op.Op.Apply(ref[w], got[w])
			if m != a[w] {
				t.Fatalf("merge word %d: %d != %d", w, int64(m), int64(a[w]))
			}
		}
	}
}

func TestWordOpsInvalidLayoutPanics(t *testing.T) {
	l := &Layout{Specs: []Spec{{Kind: Kind(9)}}}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	l.WordOps()
}
