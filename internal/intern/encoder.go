package intern

// The batched encode/decode paths: a whole morsel of general keys in,
// dense uint64 ids out, with per-column hashing amortized the same way
// the aggregation kernels amortize theirs — column-major tight loops over
// hashfn.HashBatch and Murmur2String, then one combine pass per row.

import (
	"fmt"
	"strings"
	"time"

	"cacheagg/internal/hashfn"
)

// encodeBlock is the number of rows hashed and serialized per inner
// iteration of EncodeColumns; it bounds the scratch footprint so hash and
// key buffers stay cache-resident.
const encodeBlock = 1024

// ColType declares the logical type of one key column for decode
// validation. NULLs are allowed in any column.
type ColType uint8

const (
	// U64Col is a uint64 key column.
	U64Col ColType = iota
	// StrCol is a string key column.
	StrCol
)

// Column is one grouping-key column of a batch. Exactly one of U64 and
// Str must be non-nil; Nulls, when non-nil, marks rows whose value in
// this column is NULL (the slot in U64/Str is then ignored).
type Column struct {
	U64   []uint64
	Str   []string
	Nulls []bool
}

func (c *Column) rows() int {
	if c.U64 != nil {
		return len(c.U64)
	}
	return len(c.Str)
}

// Encoder batches rows of general keys into dense ids against one
// Interner. It owns reusable scratch, so a steady-state batch whose keys
// are all already interned allocates nothing. An Encoder is not safe for
// concurrent use; create one per worker — they can all share the
// Interner.
type Encoder struct {
	it *Interner

	// OnGrow, when non-nil, is invoked each time a shard index of the
	// underlying dictionary grows during this encoder's inserts — the
	// hook the tracer turns into intern-grow events.
	OnGrow func(shard, newSlots int)

	rowh []uint64 // per-row combined hash
	colh []uint64 // per-column value hashes for one block
	key  []byte   // serialization scratch for one row's encoded key
}

// NewEncoder returns an encoder interning into it.
func (it *Interner) NewEncoder() *Encoder {
	return &Encoder{
		it:   it,
		rowh: make([]uint64, encodeBlock),
		colh: make([]uint64, encodeBlock),
		key:  make([]byte, 0, 256),
	}
}

// checkColumns validates a batch's shape and returns its row count.
func checkColumns(cols []Column) (int, error) {
	if len(cols) == 0 {
		return 0, fmt.Errorf("intern: a batch needs at least one key column")
	}
	n := cols[0].rows()
	for ci := range cols {
		c := &cols[ci]
		if (c.U64 == nil) == (c.Str == nil) {
			return 0, fmt.Errorf("intern: column %d must set exactly one of U64 and Str", ci)
		}
		if c.rows() != n {
			return 0, fmt.Errorf("intern: column %d has %d rows, column 0 has %d", ci, c.rows(), n)
		}
		if c.Nulls != nil && len(c.Nulls) != n {
			return 0, fmt.Errorf("intern: column %d null mask has %d rows, want %d", ci, len(c.Nulls), n)
		}
	}
	return n, nil
}

// rowHashes writes the row hash of rows [lo, hi) of cols into h, with
// colh as per-column scratch; both hold at least hi-lo values. Hashing is
// column-major: one tight loop per column, batch kernels where they
// exist, then one combine pass per row. It is the one row hash: the
// dictionary routes by it, and FirstRows probes by it.
func rowHashes(cols []Column, lo, hi int, h, colh []uint64) {
	h, colh = h[:hi-lo], colh[:hi-lo]
	for i := range h {
		h[i] = rowSeed
	}
	for ci := range cols {
		c := &cols[ci]
		if c.U64 != nil {
			hashfn.HashBatch(c.U64[lo:hi], colh)
		} else {
			for i, s := range c.Str[lo:hi] {
				colh[i] = hashfn.Murmur2String(s)
			}
		}
		if c.Nulls != nil {
			for i, isNull := range c.Nulls[lo:hi] {
				if isNull {
					colh[i] = nullHash
				}
			}
		}
		for i := range h {
			h[i] = combine(h[i], colh[i])
		}
	}
	for i := range h {
		h[i] = finish(h[i])
	}
}

// EncodeColumns interns every row of the batch and writes its dense id
// into ids, which must be at least as long as the batch. All columns must
// have the same number of rows.
func (e *Encoder) EncodeColumns(cols []Column, ids []uint64) error {
	n, err := checkColumns(cols)
	if err != nil {
		return err
	}
	if len(ids) < n {
		return fmt.Errorf("intern: ids slice has %d slots for %d rows", len(ids), n)
	}

	for base := 0; base < n; base += encodeBlock {
		end := min(base+encodeBlock, n)
		rowh := e.rowh[:end-base]
		rowHashes(cols, base, end, rowh, e.colh)
		// Row-major serialize + intern.
		for i, h := range rowh {
			r := base + i
			key := e.key[:0]
			for ci := range cols {
				c := &cols[ci]
				switch {
				case c.Nulls != nil && c.Nulls[r]:
					key = AppendValue(key, Value{Kind: NullValue})
				case c.U64 != nil:
					key = AppendValue(key, Value{Kind: U64Value, U64: c.U64[r]})
				default:
					key = AppendValue(key, Value{Kind: StrValue, Str: c.Str[r]})
				}
			}
			e.key = key[:0]
			ids[r] = e.it.Intern(h, key, e.OnGrow)
		}
	}
	return nil
}

// InternRow interns a single key given as column values, the one-row
// analogue of EncodeColumns (identical hashing and serialization), for
// callers without batches — the dict compatibility wrappers and the
// streaming ingest path.
func (e *Encoder) InternRow(vals []Value) uint64 {
	key := AppendKey(e.key[:0], vals)
	e.key = key[:0]
	return e.it.Intern(HashKey(vals), key, e.OnGrow)
}

// DecodeColumns decodes a slice of dense ids back into one Column per
// declared key column — the reverse path that streams result group ids
// back to original keys at emit time. Stored values must match the
// declared types (NULL is legal anywhere); mismatches, unknown ids and
// corrupt encodings are typed errors. Every decoded string is a slice of
// one backing string per string column, so the strings of one call cost
// one allocation per column, not one per group.
func (e *Encoder) DecodeColumns(ids []uint64, types []ColType) ([]Column, error) {
	out := make([]Column, len(types))
	for ci, t := range types {
		switch t {
		case U64Col:
			out[ci].U64 = make([]uint64, len(ids))
		case StrCol:
			out[ci].Str = make([]string, len(ids))
		default:
			return nil, fmt.Errorf("intern: column %d declares invalid type %d", ci, t)
		}
	}
	// First pass: validate every key and size each string column.
	size := make([]int, len(types))
	for _, id := range ids {
		b, err := e.it.KeyBytes(id)
		if err != nil {
			return nil, err
		}
		ci := 0
		for ; len(b) > 0; ci++ {
			kind, _, str, n, err := splitValue(b)
			if err != nil {
				return nil, err
			}
			if ci < len(types) {
				if kind != NullValue && (kind == StrValue) != (types[ci] == StrCol) {
					return nil, fmt.Errorf("%w: id %d column %d holds kind %d, schema declares type %d", ErrMalformed, id, ci, kind, types[ci])
				}
				size[ci] += len(str)
			}
			b = b[n:]
		}
		if ci != len(types) {
			return nil, fmt.Errorf("%w: id %d has %d columns, schema declares %d", ErrMalformed, id, ci, len(types))
		}
	}
	// Second pass: fill the columns. A strings.Builder grown to its
	// column's exact size never reallocates, so each value is a slice of
	// the column's one backing string.
	sbs := make([]strings.Builder, len(types))
	for ci := range sbs {
		sbs[ci].Grow(size[ci])
	}
	for r, id := range ids {
		b, _ := e.it.KeyBytes(id) // validated by the first pass
		for ci := 0; len(b) > 0; ci++ {
			kind, u64, str, n, _ := splitValue(b)
			b = b[n:]
			switch kind {
			case NullValue:
				if out[ci].Nulls == nil {
					out[ci].Nulls = make([]bool, len(ids))
				}
				out[ci].Nulls[r] = true
			case U64Value:
				out[ci].U64[r] = u64
			default:
				sb := &sbs[ci]
				start := sb.Len()
				sb.Write(str)
				out[ci].Str[r] = sb.String()[start:]
			}
		}
	}
	return out, nil
}

// EncodeTimer wraps a monotonic stopwatch for the encode phase so callers
// can report wall time without each inventing its own.
type EncodeTimer struct{ start time.Time }

// StartEncodeTimer begins timing an encode phase.
func StartEncodeTimer() EncodeTimer { return EncodeTimer{start: time.Now()} }

// Nanos returns elapsed nanoseconds since the timer started.
func (t EncodeTimer) Nanos() int64 { return time.Since(t.start).Nanoseconds() }
