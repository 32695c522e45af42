package agg

import "math"

// Op is the per-state-word combine operation. Every supported aggregate
// decomposes into state words that each combine with a single binary
// operation — this is what enables fully columnar, branch-light merge loops
// in the operator: the same op merges partial states regardless of whether
// the aggregate is COUNT or AVG, because the super-aggregate structure is
// captured per word (e.g. both AVG words combine by addition, COUNT's word
// combines by addition — the "super-aggregate of COUNT is SUM" rule falls
// out automatically).
type Op uint8

const (
	// OpAdd combines by wrapping signed addition.
	OpAdd Op = iota
	// OpMin combines by signed minimum.
	OpMin
	// OpMax combines by signed maximum.
	OpMax
)

// Identity returns the neutral element of the operation, used to
// pre-initialize freshly claimed hash-table slots so that folds and merges
// need no "is this the first value?" branch.
func (o Op) Identity() uint64 {
	switch o {
	case OpAdd:
		return 0
	case OpMin:
		return uint64(math.MaxInt64)
	case OpMax:
		return uint64(uint64(1) << 63) // math.MinInt64 as uint64 bits
	default:
		panic("agg: invalid op")
	}
}

// Apply combines two words with the operation.
func (o Op) Apply(a, b uint64) uint64 {
	switch o {
	case OpAdd:
		return uint64(int64(a) + int64(b))
	case OpMin:
		if int64(b) < int64(a) {
			return b
		}
		return a
	case OpMax:
		if int64(b) > int64(a) {
			return b
		}
		return a
	default:
		panic("agg: invalid op")
	}
}

// Src describes where a state word's contribution comes from when folding a
// RAW input row (as opposed to merging two partial states).
type Src uint8

const (
	// SrcCol takes the row's value in input column WordOp.Col.
	SrcCol Src = iota
	// SrcOne contributes the constant 1 (counting words).
	SrcOne
)

// WordOp fully describes one state word: how it combines (Op) and what a
// raw input row contributes to it (Src/Col).
type WordOp struct {
	Op  Op
	Src Src
	Col int
}

// WordOps decomposes the layout into one WordOp per state word, in packed
// state order.
func (l *Layout) WordOps() []WordOp {
	ops := make([]WordOp, 0, l.Words)
	for _, s := range l.Specs {
		switch s.Kind {
		case Count:
			ops = append(ops, WordOp{Op: OpAdd, Src: SrcOne})
		case Sum:
			ops = append(ops, WordOp{Op: OpAdd, Src: SrcCol, Col: s.Col})
		case Min:
			ops = append(ops, WordOp{Op: OpMin, Src: SrcCol, Col: s.Col})
		case Max:
			ops = append(ops, WordOp{Op: OpMax, Src: SrcCol, Col: s.Col})
		case Avg:
			ops = append(ops,
				WordOp{Op: OpAdd, Src: SrcCol, Col: s.Col},
				WordOp{Op: OpAdd, Src: SrcOne})
		default:
			panic("agg: invalid kind in layout")
		}
	}
	return ops
}
