package agg

// Batch (morsel-wide) fold and merge kernels.
//
// The scalar entry points (Kind.Fold, Layout.FoldRow, Op.Apply) dispatch on
// the aggregate kind per row — fine as a reference implementation, but the
// dispatch and the per-row closure dominate the cost of the actual combine
// on the hot path. The kernels below are the batched counterparts: the
// operation is selected ONCE per run (per state word), and the per-row loop
// is a monomorphic, branch-predictable pass over a gathered batch.
//
// All kernels operate on one state column at a time ("word-major" order):
// for a batch of rows that has already been assigned slots in a state
// column, the kernel folds every row's contribution of that word before the
// next word is touched. Because every state word combines with a single
// commutative, associative operation (see WordOp), word-major application
// is bitwise identical to the scalar row-major order — this is what the
// differential tests pin down.

// ColumnFolder folds a gathered batch of raw int64 contributions into one
// state column: for each j, states[slots[j]] = op(states[slots[j]], values[j]).
// Kernels for SrcOne words ignore values (it may be nil).
type ColumnFolder func(states []uint64, slots []int32, values []int64)

// ColumnMerger merges a gathered batch of partial-state words into one
// state column: for each j, states[slots[j]] = op(states[slots[j]], src[j]).
type ColumnMerger func(states []uint64, slots []int32, src []uint64)

// FoldColumnAdd is the monomorphic SUM kernel (also COUNT's super-aggregate
// word when folding partials): wrapping signed addition.
func FoldColumnAdd(states []uint64, slots []int32, values []int64) {
	_ = values[:len(slots)]
	for j, s := range slots {
		states[s] = uint64(int64(states[s]) + values[j])
	}
}

// FoldColumnCount is the monomorphic COUNT kernel: every row contributes 1,
// so the values slice is ignored entirely.
func FoldColumnCount(states []uint64, slots []int32, _ []int64) {
	for _, s := range slots {
		states[s]++
	}
}

// FoldColumnMin is the monomorphic MIN kernel.
func FoldColumnMin(states []uint64, slots []int32, values []int64) {
	_ = values[:len(slots)]
	for j, s := range slots {
		if values[j] < int64(states[s]) {
			states[s] = uint64(values[j])
		}
	}
}

// FoldColumnMax is the monomorphic MAX kernel.
func FoldColumnMax(states []uint64, slots []int32, values []int64) {
	_ = values[:len(slots)]
	for j, s := range slots {
		if values[j] > int64(states[s]) {
			states[s] = uint64(values[j])
		}
	}
}

// ColumnFolder returns the monomorphic fold kernel of the word: the dispatch
// happens here, once, instead of per row.
func (w WordOp) ColumnFolder() ColumnFolder {
	if w.Src == SrcOne {
		// Counting words always combine by addition of 1.
		return FoldColumnCount
	}
	switch w.Op {
	case OpAdd:
		return FoldColumnAdd
	case OpMin:
		return FoldColumnMin
	case OpMax:
		return FoldColumnMax
	default:
		panic("agg: invalid op")
	}
}

// MergeColumnAdd is the monomorphic addition merge kernel.
func MergeColumnAdd(states []uint64, slots []int32, src []uint64) {
	_ = src[:len(slots)]
	for j, s := range slots {
		states[s] = uint64(int64(states[s]) + int64(src[j]))
	}
}

// MergeColumnMin is the monomorphic minimum merge kernel.
func MergeColumnMin(states []uint64, slots []int32, src []uint64) {
	_ = src[:len(slots)]
	for j, s := range slots {
		if int64(src[j]) < int64(states[s]) {
			states[s] = src[j]
		}
	}
}

// MergeColumnMax is the monomorphic maximum merge kernel.
func MergeColumnMax(states []uint64, slots []int32, src []uint64) {
	_ = src[:len(slots)]
	for j, s := range slots {
		if int64(src[j]) > int64(states[s]) {
			states[s] = src[j]
		}
	}
}

// ColumnMerger returns the monomorphic merge kernel of the operation.
func (o Op) ColumnMerger() ColumnMerger {
	switch o {
	case OpAdd:
		return MergeColumnAdd
	case OpMin:
		return MergeColumnMin
	case OpMax:
		return MergeColumnMax
	default:
		panic("agg: invalid op")
	}
}

// Kernels bundles the pre-selected batch kernels of a layout: one fold and
// one merge kernel per state word, resolved once per run. Word w of a raw
// input row reads Cols[w] (-1 for counting words, whose folder ignores it).
// Ops keeps the underlying word descriptions, whose identities initialize
// freshly claimed slots.
type Kernels struct {
	Fold  []ColumnFolder
	Merge []ColumnMerger
	Cols  []int
	Ops   []WordOp
}

// Kernels resolves the layout's per-word batch kernels.
func (l *Layout) Kernels() *Kernels {
	ops := l.WordOps()
	k := &Kernels{
		Fold:  make([]ColumnFolder, len(ops)),
		Merge: make([]ColumnMerger, len(ops)),
		Cols:  make([]int, len(ops)),
		Ops:   ops,
	}
	for w, op := range ops {
		k.Fold[w] = op.ColumnFolder()
		k.Merge[w] = op.Op.ColumnMerger()
		if op.Src == SrcOne {
			k.Cols[w] = -1
		} else {
			k.Cols[w] = op.Col
		}
	}
	return k
}
