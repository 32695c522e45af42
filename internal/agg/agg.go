// Package agg implements the aggregate-function framework of the operator.
//
// The framework (paper Section 3.1) requires aggregation states of size O(1)
// — true for distributive aggregates (COUNT, SUM, MIN, MAX) and algebraic
// ones (AVG) but not for holistic ones (MEDIAN), which the paper explicitly
// excludes. Because the operator mixes hashing (which pre-aggregates) with
// partitioning (which does not), intermediate runs may contain either raw
// input values or partial aggregates; merging two partial aggregates needs
// the *super-aggregate* function, which is not always the input-fold
// function: the super-aggregate of COUNT is SUM. This package keeps the two
// operations explicit: Fold consumes a raw input value, Merge combines two
// partial states.
package agg

import "fmt"

// Kind identifies an aggregate function.
type Kind int

const (
	// Count counts input rows; its super-aggregate is SUM of partial counts.
	Count Kind = iota
	// Sum sums 64-bit integer input values (wrapping on overflow, like SQL
	// engines operating on machine integers).
	Sum
	// Min keeps the minimum signed 64-bit input value.
	Min
	// Max keeps the maximum signed 64-bit input value.
	Max
	// Avg is the algebraic average: its state is a (sum, count) pair and it
	// finalizes to sum/count.
	Avg

	numKinds
)

// NumKinds is the number of supported aggregate kinds.
const NumKinds = int(numKinds)

// String returns the SQL name of the aggregate.
func (k Kind) String() string {
	switch k {
	case Count:
		return "COUNT"
	case Sum:
		return "SUM"
	case Min:
		return "MIN"
	case Max:
		return "MAX"
	case Avg:
		return "AVG"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Valid reports whether k is a supported aggregate kind.
func (k Kind) Valid() bool { return k >= 0 && k < numKinds }

// Width returns the number of 64-bit state words the aggregate needs.
// All supported aggregates are O(1); AVG needs two words (sum and count).
func (k Kind) Width() int {
	if k == Avg {
		return 2
	}
	return 1
}

// Init writes the state corresponding to a single raw input value.
// state must have length Width().
func (k Kind) Init(state []uint64, value int64) {
	switch k {
	case Count:
		state[0] = 1
	case Sum, Min, Max:
		state[0] = uint64(value)
	case Avg:
		state[0] = uint64(value)
		state[1] = 1
	default:
		panic("agg: invalid kind")
	}
}

// Fold folds one raw input value into an existing state.
func (k Kind) Fold(state []uint64, value int64) {
	switch k {
	case Count:
		state[0]++
	case Sum:
		state[0] = uint64(int64(state[0]) + value)
	case Min:
		if value < int64(state[0]) {
			state[0] = uint64(value)
		}
	case Max:
		if value > int64(state[0]) {
			state[0] = uint64(value)
		}
	case Avg:
		state[0] = uint64(int64(state[0]) + value)
		state[1]++
	default:
		panic("agg: invalid kind")
	}
}

// Merge combines the partial state src into dst using the super-aggregate
// function: SUM for Count and Sum, MIN/MAX for Min/Max, and component-wise
// (sum, count) addition for Avg.
func (k Kind) Merge(dst, src []uint64) {
	switch k {
	case Count, Sum:
		dst[0] = uint64(int64(dst[0]) + int64(src[0]))
	case Min:
		if int64(src[0]) < int64(dst[0]) {
			dst[0] = src[0]
		}
	case Max:
		if int64(src[0]) > int64(dst[0]) {
			dst[0] = src[0]
		}
	case Avg:
		dst[0] = uint64(int64(dst[0]) + int64(src[0]))
		dst[1] += src[1]
	default:
		panic("agg: invalid kind")
	}
}

// FinalizeInt returns the integer result of the aggregate. For Avg it
// returns the truncated integer quotient; use FinalizeFloat for the exact
// average. A state with zero count (possible only through API misuse —
// groups always have at least one row) finalizes Avg to 0.
func (k Kind) FinalizeInt(state []uint64) int64 {
	switch k {
	case Count, Sum, Min, Max:
		return int64(state[0])
	case Avg:
		if state[1] == 0 {
			return 0
		}
		return int64(state[0]) / int64(state[1])
	default:
		panic("agg: invalid kind")
	}
}

// FinalizeFloat returns the result of the aggregate as a float64.
func (k Kind) FinalizeFloat(state []uint64) float64 {
	switch k {
	case Count, Sum, Min, Max:
		return float64(int64(state[0]))
	case Avg:
		if state[1] == 0 {
			return 0
		}
		return float64(int64(state[0])) / float64(int64(state[1]))
	default:
		panic("agg: invalid kind")
	}
}

// FinalizeColumn is the column form of FinalizeInt and FinalizeFloat: it
// finalizes len(ints) rows of the state columns (state[w] is state word w,
// Width() columns) with the kind switch outside the row loop. Avg writes
// its truncated quotient to ints and its exact quotient to floats, which
// must hold len(ints) rows; a zero count gives 0 in both. Every other kind
// writes ints only, and floats may be nil.
func (k Kind) FinalizeColumn(ints []int64, floats []float64, state [][]uint64) {
	switch k {
	case Count, Sum, Min, Max:
		for i, v := range state[0][:len(ints)] {
			ints[i] = int64(v)
		}
	case Avg:
		sums, cnts := state[0][:len(ints)], state[1][:len(ints)]
		floats = floats[:len(ints)]
		for i := range ints {
			sum, cnt := int64(sums[i]), int64(cnts[i])
			if cnt == 0 {
				ints[i], floats[i] = 0, 0
				continue
			}
			ints[i], floats[i] = sum/cnt, float64(sum)/float64(cnt)
		}
	default:
		panic("agg: invalid kind")
	}
}

// Spec describes one aggregate column of a query: which function to apply
// and which input column feeds it. Col indexes the caller's slice of
// aggregate input columns; it is ignored by Count (which consumes no input)
// but conventionally set to 0.
type Spec struct {
	Kind Kind
	Col  int
}

// String renders the spec like "SUM(col2)".
func (s Spec) String() string {
	if s.Kind == Count {
		return "COUNT(*)"
	}
	return fmt.Sprintf("%s(col%d)", s.Kind, s.Col)
}

// Layout describes how the aggregate states of a query are packed into
// per-run state columns. Each Spec occupies Width() consecutive state
// columns; Layout records the starting offset of each.
type Layout struct {
	Specs   []Spec
	Offsets []int // Offsets[i] is the first state column of Specs[i]
	Words   int   // total number of state columns
}

// NewLayout computes the state layout for the given specs.
// It panics if any spec has an invalid kind or a negative input column,
// since such specs indicate a programming error in the caller.
func NewLayout(specs []Spec) *Layout {
	l := &Layout{Specs: append([]Spec(nil), specs...), Offsets: make([]int, len(specs))}
	for i, s := range specs {
		if !s.Kind.Valid() {
			panic(fmt.Sprintf("agg: invalid aggregate kind %d", int(s.Kind)))
		}
		if s.Col < 0 {
			panic(fmt.Sprintf("agg: negative input column %d", s.Col))
		}
		l.Offsets[i] = l.Words
		l.Words += s.Kind.Width()
	}
	return l
}

// MaxInputCol returns the highest input column index referenced by any
// non-Count spec, or -1 if no input columns are needed.
func (l *Layout) MaxInputCol() int {
	max := -1
	for _, s := range l.Specs {
		if s.Kind != Count && s.Col > max {
			max = s.Col
		}
	}
	return max
}

// InitRow initializes all aggregate states of one row. states is the packed
// state vector of length l.Words; values[i] is the raw input value of input
// column i for this row.
func (l *Layout) InitRow(states []uint64, values func(col int) int64) {
	for i, s := range l.Specs {
		off := l.Offsets[i]
		var v int64
		if s.Kind != Count {
			v = values(s.Col)
		}
		s.Kind.Init(states[off:off+s.Kind.Width()], v)
	}
}

// FoldRow folds one raw input row into the packed state vector.
func (l *Layout) FoldRow(states []uint64, values func(col int) int64) {
	for i, s := range l.Specs {
		off := l.Offsets[i]
		var v int64
		if s.Kind != Count {
			v = values(s.Col)
		}
		s.Kind.Fold(states[off:off+s.Kind.Width()], v)
	}
}

// FinalizeRow converts a packed state vector into one int64 result per spec,
// appending to out and returning the extended slice.
func (l *Layout) FinalizeRow(states []uint64, out []int64) []int64 {
	for i, s := range l.Specs {
		off := l.Offsets[i]
		out = append(out, s.Kind.FinalizeInt(states[off:off+s.Kind.Width()]))
	}
	return out
}
