package cacheagg

// General grouping keys: strings, composite multi-column tuples, NULLs.
// The operator's hot path works on 64-bit integer keys; AggregateGeneral
// reduces every other key shape to that setting (the paper's Section 6.1
// observation) in three phases:
//
//  1. Dedupe: intern.FirstRows maps every row to the smallest row holding
//     an equal key — rows hash in parallel, then one first-occurrence
//     table compares column values directly and builds no dictionary.
//  2. Aggregate: those row ids run through the unchanged batched kernels,
//     spill codec, routine selection and merge.
//  3. Gather: each group's key is read from the input at its first row.
//     Result strings share the caller's input strings' memory.
//
// With Options.Interner set, the result's distinct keys are also encoded
// into that shared dictionary, which therefore holds every key seen.

import (
	"context"
	"fmt"

	"cacheagg/internal/intern"
	"cacheagg/internal/trace"
)

// KeyType declares the logical type of one grouping-key column in a
// general-key schema. NULLs are permitted in any column.
type KeyType int

const (
	// KeyUint64 is a 64-bit unsigned integer key column.
	KeyUint64 KeyType = iota
	// KeyString is a variable-length string key column.
	KeyString
)

// String returns the schema name of the key type.
func (t KeyType) String() string {
	switch t {
	case KeyUint64:
		return "uint64"
	case KeyString:
		return "string"
	default:
		return fmt.Sprintf("KeyType(%d)", int(t))
	}
}

// KeyColumn is one grouping-key column of a general-key batch or result.
// Exactly one of Uint64s and Strings must be non-nil; Nulls, when
// non-nil, marks rows whose value in this column is NULL (the slot in the
// value slice is then ignored). For grouping, NULL equals NULL — the
// GROUP BY convention — and NULL is distinct from 0 and from "".
type KeyColumn struct {
	Uint64s []uint64
	Strings []string
	Nulls   []bool
}

// Type returns the column's declared key type.
func (c *KeyColumn) Type() KeyType {
	if c.Uint64s != nil {
		return KeyUint64
	}
	return KeyString
}

// Len returns the column's row count.
func (c *KeyColumn) Len() int {
	if c.Uint64s != nil {
		return len(c.Uint64s)
	}
	return len(c.Strings)
}

// IsNull reports whether row i of the column is NULL.
func (c *KeyColumn) IsNull(i int) bool { return c.Nulls != nil && c.Nulls[i] }

func (c *KeyColumn) toIntern() intern.Column {
	return intern.Column{U64: c.Uint64s, Str: c.Strings, Nulls: c.Nulls}
}

// Interner is a shared key dictionary: a mapping from general grouping
// keys to dense uint64 ids that outlives one query. One Interner may
// collect the keys of many AggregateGeneral calls (set Options.Interner),
// so ids — and therefore interned datasets — stay comparable across
// queries. All methods are safe for concurrent use.
type Interner struct {
	d *intern.Interner
}

// NewInterner returns an empty key dictionary.
func NewInterner() *Interner { return &Interner{d: intern.New()} }

// Len returns the number of distinct keys interned so far.
func (it *Interner) Len() int { return it.d.Len() }

// Bytes returns the total encoded size of all interned keys.
func (it *Interner) Bytes() int64 { return it.d.Bytes() }

// EncodeColumns interns every row of the key columns and returns its
// dense id per row — the GroupBy column an Aggregate call over this
// dictionary's ids expects.
func (it *Interner) EncodeColumns(cols []KeyColumn) ([]uint64, error) {
	if len(cols) == 0 {
		return nil, fmt.Errorf("cacheagg: EncodeColumns needs at least one key column")
	}
	icols := make([]intern.Column, len(cols))
	for i := range cols {
		icols[i] = cols[i].toIntern()
	}
	ids := make([]uint64, cols[0].Len())
	if err := it.d.NewEncoder().EncodeColumns(icols, ids); err != nil {
		return nil, fmt.Errorf("cacheagg: %w", err)
	}
	return ids, nil
}

// DecodeGroups decodes dense group ids back into one KeyColumn per
// declared key column. Ids not produced by this dictionary, and schema
// mismatches, are errors.
func (it *Interner) DecodeGroups(ids []uint64, types []KeyType) ([]KeyColumn, error) {
	itypes := make([]intern.ColType, len(types))
	for i, t := range types {
		switch t {
		case KeyUint64:
			itypes[i] = intern.U64Col
		case KeyString:
			itypes[i] = intern.StrCol
		default:
			return nil, fmt.Errorf("cacheagg: invalid KeyType %d", int(t))
		}
	}
	icols, err := it.d.NewEncoder().DecodeColumns(ids, itypes)
	if err != nil {
		return nil, fmt.Errorf("cacheagg: %w", err)
	}
	cols := make([]KeyColumn, len(icols))
	for i := range icols {
		cols[i] = KeyColumn{Uint64s: icols[i].U64, Strings: icols[i].Str, Nulls: icols[i].Nulls}
	}
	return cols, nil
}

// GeneralInput is a GROUP BY over arbitrarily typed key columns.
type GeneralInput struct {
	// GroupBy holds the grouping key columns (all of equal length).
	GroupBy []KeyColumn
	// Columns are the aggregate input columns.
	Columns [][]int64
	// Aggregates lists the aggregate output columns to compute.
	Aggregates []AggSpec
}

// GeneralResult is the result of AggregateGeneral: row r of every column
// of GroupCols plus row r of every aggregate column describe one group.
type GeneralResult struct {
	// GroupCols holds the grouping keys, one column per input key column,
	// gathered from the input at each group's first row and ordered by
	// the hash of that row index. Strings are the input's own strings, not
	// copies, so they keep the input's string memory alive: when the input
	// strings are slices of one large buffer, a small result retains the
	// whole buffer. Callers that keep a result longer than its input should
	// strings.Clone the keys they keep.
	GroupCols []KeyColumn
	// Aggs holds one output column per requested Aggregate.
	Aggs [][]int64
	// Stats is the execution report; the Intern* and EncodeNanos fields
	// are populated even without Options.CollectStats.
	Stats Stats

	inner *Result
}

// Len returns the number of groups.
func (r *GeneralResult) Len() int {
	if len(r.GroupCols) == 0 {
		return 0
	}
	return r.GroupCols[0].Len()
}

// Float returns aggregate column a of group idx as float64 (exact for Avg).
func (r *GeneralResult) Float(a, idx int) float64 { return r.inner.Float(a, idx) }

// AggregateGeneral executes a GROUP BY over general key columns.
func AggregateGeneral(in GeneralInput, opt Options) (*GeneralResult, error) {
	return AggregateGeneralContext(context.Background(), in, opt)
}

// AggregateGeneralContext is AggregateGeneral with cancellation support.
// The dedupe runs before the operator proper and checks ctx between
// morsels; the aggregation over first rows has the same
// cancellation behaviour as AggregateContext.
func AggregateGeneralContext(ctx context.Context, in GeneralInput, opt Options) (*GeneralResult, error) {
	if len(in.GroupBy) == 0 {
		return nil, fmt.Errorf("cacheagg: AggregateGeneral needs at least one key column")
	}
	n := in.GroupBy[0].Len()
	for i := range in.GroupBy {
		c := &in.GroupBy[i]
		if (c.Uint64s == nil) == (c.Strings == nil) {
			return nil, fmt.Errorf("cacheagg: key column %d must set exactly one of Uint64s and Strings", i)
		}
		if c.Len() != n {
			return nil, fmt.Errorf("cacheagg: key column %d has %d rows, column 0 has %d", i, c.Len(), n)
		}
	}
	icols := make([]intern.Column, len(in.GroupBy))
	for i := range in.GroupBy {
		icols[i] = in.GroupBy[i].toIntern()
	}
	ids := make([]uint64, n)
	tm := intern.StartEncodeTimer()
	if err := intern.FirstRows(ctx, icols, ids, opt.Workers); err != nil {
		return nil, fmt.Errorf("cacheagg: %w", err)
	}
	dedupeNanos := tm.Nanos()

	res, err := AggregateContext(ctx, Input{
		GroupBy:    ids,
		Columns:    in.Columns,
		Aggregates: in.Aggregates,
	}, opt)
	if err != nil {
		return nil, err
	}
	groups := gatherKeys(in.GroupBy, res.Groups)
	out := &GeneralResult{
		GroupCols: groups,
		Aggs:      res.Aggs,
		Stats:     res.Stats,
		inner:     res,
	}
	gcols := make([]intern.Column, len(groups))
	for i := range groups {
		gcols[i] = groups[i].toIntern()
	}
	if it := opt.Interner; it != nil {
		enc := it.d.NewEncoder()
		if t := opt.Tracer; t != nil {
			rec := t.rec
			enc.OnGrow = func(shard, newSlots int) {
				rec.Emit(trace.KindInternGrow, 0, 0, int64(shard), float64(newSlots))
			}
		}
		if err := enc.EncodeColumns(gcols, make([]uint64, len(res.Groups))); err != nil {
			return nil, fmt.Errorf("cacheagg: %w", err)
		}
		out.Stats.InternedKeys = int64(it.Len())
		out.Stats.InternBytes = it.Bytes()
	} else {
		out.Stats.InternedKeys = int64(len(res.Groups))
		out.Stats.InternBytes = intern.EncodedLen(gcols)
	}
	out.Stats.EncodeNanos = dedupeNanos
	return out, nil
}

// gatherKeys builds the result's key columns: group g's key is the input's
// key at row rows[g], its first occurrence. Strings are the input's own. A
// Nulls column is allocated only when some group is NULL, and a NULL
// group's value slot holds the zero value.
func gatherKeys(in []KeyColumn, rows []uint64) []KeyColumn {
	out := make([]KeyColumn, len(in))
	for ci := range in {
		c, o := &in[ci], &out[ci]
		if c.Uint64s != nil {
			o.Uint64s = make([]uint64, len(rows))
			for g, r := range rows {
				o.Uint64s[g] = c.Uint64s[r]
			}
		} else {
			o.Strings = make([]string, len(rows))
			for g, r := range rows {
				o.Strings[g] = c.Strings[r]
			}
		}
		if c.Nulls == nil {
			continue
		}
		for g, r := range rows {
			if !c.Nulls[r] {
				continue
			}
			if o.Nulls == nil {
				o.Nulls = make([]bool, len(rows))
			}
			o.Nulls[g] = true
			if o.Uint64s != nil {
				o.Uint64s[g] = 0
			} else {
				o.Strings[g] = ""
			}
		}
	}
	return out
}
