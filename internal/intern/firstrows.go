package intern

// First-occurrence grouping: the query path's replacement for interning.
// A key's first row already identifies it, so a GROUP BY over general keys
// needs no dictionary — only, for every row, the smallest row holding an
// equal key (the first-occurrence duplicate removal of Do/Graefe/Naughton).
// FirstRows hashes the rows in parallel and dedupes them in one
// open-addressed (hash, first row) table. Equal keys are compared on
// their column values, never serialized.

import (
	"context"
	"fmt"
	"runtime"

	"cacheagg/internal/sched"
)

// minTableSlots caps the dedupe table's initial size; it doubles at half
// full, so it stays proportional to the batch's distinct keys.
const minTableSlots = 1024

// FirstRows writes into ids, for every row r of the batch, the smallest
// row index whose key equals row r's key. Keys compare as the codec
// encodes them: column by column, NULL equal to NULL and distinct from 0
// and "". ids must be at least as long as the batch.
//
// Rows hash in parallel on up to workers goroutines (<= 0 selects
// GOMAXPROCS); one table then dedupes them in row order on the caller's
// goroutine, so the ids are the same at any worker count. A cancelled ctx
// stops the work between morsels and returns ctx.Err().
func FirstRows(ctx context.Context, cols []Column, ids []uint64, workers int) error {
	n, err := checkColumns(cols)
	if err != nil {
		return err
	}
	if len(ids) < n {
		return fmt.Errorf("intern: ids slice has %d slots for %d rows", len(ids), n)
	}
	ids = ids[:n]
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	chunks := max(1, min(workers, n/encodeBlock))

	// ids holds each row's hash until the dedupe overwrites it with the
	// row's first occurrence.
	hash := func(c int, stop func() bool) {
		colh := make([]uint64, encodeBlock)
		hi := (c + 1) * n / chunks
		for lo := c * n / chunks; lo < hi && !stop(); lo += encodeBlock {
			end := min(lo+encodeBlock, hi)
			rowHashes(cols, lo, end, ids[lo:end], colh)
		}
	}
	if chunks == 1 {
		hash(0, func() bool { return ctx.Err() != nil })
	} else {
		err = sched.NewPool(workers).RunContext(ctx, func(c *sched.Ctx) {
			for i := range chunks {
				c.Spawn(func(c *sched.Ctx) {
					if !c.Aborted() {
						hash(i, c.Aborted)
					}
				})
			}
		})
		if err != nil {
			return err
		}
	}
	var t firstTable
	t.init(n)
	for lo := 0; lo < n; lo += encodeBlock {
		if err := ctx.Err(); err != nil {
			return err
		}
		t.dedupe(cols, ids, lo, min(lo+encodeBlock, n))
	}
	return ctx.Err()
}

// firstSlot is one dedupe-table entry: a row hash and the first row that
// carried the key, plus one; 0 marks an empty slot.
type firstSlot struct {
	h    uint64
	row1 uint64
}

// firstTable is the open-addressed (hash, first row) dedupe table.
type firstTable struct {
	slots []firstSlot
	used  int
	total int // rows in the batch
}

// init sizes an empty table for a batch of n rows.
func (t *firstTable) init(n int) {
	size := 2
	for size < minTableSlots && size < 2*n {
		size *= 2
	}
	t.slots = make([]firstSlot, size)
	t.used, t.total = 0, n
}

// dedupe finds the first occurrence of rows [lo, hi) and writes it over
// each row's hash in ids. Rows must arrive in increasing order across
// calls, so the first row the table sees of a key is the key's smallest
// row. On a hash match the two rows' values are compared directly.
func (t *firstTable) dedupe(cols []Column, ids []uint64, lo, hi int) {
	mask := uint64(len(t.slots) - 1)
	for r := lo; r < hi; r++ {
		h := ids[r]
		first := r
		for j := h & mask; ; j = (j + 1) & mask {
			s := &t.slots[j]
			if s.row1 == 0 {
				s.h, s.row1 = h, uint64(r)+1
				if t.used++; 2*t.used >= len(t.slots) {
					t.grow(r + 1)
					mask = uint64(len(t.slots) - 1)
				}
				break
			}
			if s.h == h && rowsEqual(cols, int(s.row1-1), r) {
				first = int(s.row1 - 1)
				break
			}
		}
		ids[r] = uint64(first)
	}
}

// grow resizes the table for the distinct keys the batch projects to
// after done of its rows, at the rate seen so far: at least double, at
// most two slots per row. At batch_strings' shape (2^16 zipf rows, 47 k
// keys, 2 vCPUs) this made an AggregateGeneral op about 10 % faster and
// 2.5 MB smaller than plain doubling from minTableSlots. Entries hold
// distinct keys, so they move by hash alone.
func (t *firstTable) grow(done int) {
	old := t.slots
	size := 2 * len(old)
	for proj := t.used * t.total / done; size < 2*proj && size < 2*t.total; {
		size *= 2
	}
	t.slots = make([]firstSlot, size)
	mask := uint64(size - 1)
	for _, s := range old {
		if s.row1 == 0 {
			continue
		}
		j := s.h & mask
		for t.slots[j].row1 != 0 {
			j = (j + 1) & mask
		}
		t.slots[j] = s
	}
}

// rowsEqual reports whether rows a and b of cols hold the same key: the
// codec's identity, decided on the column values instead of their
// encodings.
func rowsEqual(cols []Column, a, b int) bool {
	for ci := range cols {
		c := &cols[ci]
		if c.Nulls != nil {
			na, nb := c.Nulls[a], c.Nulls[b]
			if na != nb {
				return false
			}
			if na {
				continue
			}
		}
		if c.U64 != nil {
			if c.U64[a] != c.U64[b] {
				return false
			}
		} else if c.Str[a] != c.Str[b] {
			return false
		}
	}
	return true
}
