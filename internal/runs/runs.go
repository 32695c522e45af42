// Package runs implements the intermediate-result storage of the operator:
// "runs" in the paper's terminology (Section 3.1), stored in the two-level
// list-of-arrays structure of Section 4.2.
//
// The paper needs output partitions whose final size is unknown before
// processing. Wassenberg et al. solve this with virtual-memory
// over-allocation, which the paper rejects for industry-grade memory
// management and replaces by a two-level data structure — a list of arrays —
// at ~2% cost. A Writer here is exactly that: it appends rows into chunks
// and seals each full chunk as an immutable Run. Chunks grow geometrically —
// 64 rows first, doubling up to the writer's chunk size — so a partition
// that receives few rows costs few bytes. Their columns come from a Free
// list that consumed runs give back to, so the storage is reused across
// recursion levels and executions.
//
// A Run holds decomposed (columnar) row storage: one 64-bit word per row
// in Keys and one state column per aggregate state word. Inside the
// operator that word is the row's MurmurHash2, not its key: Murmur2 on a
// uint64 is a bijection, so the hash carries the key, no pass re-hashes,
// and the key comes back once per group when the operator emits it. Other
// users of the package (the streaming checkpoint, the benchmark's replay)
// store keys in the same column.
package runs

import (
	"fmt"
	"math/bits"
)

// DefaultChunkRows is the default capacity of one chunk of a Writer.
// 4096 rows × 8 bytes ≈ 32 KiB per column — comfortably cache-resident
// while being large enough that per-chunk overhead vanishes.
const DefaultChunkRows = 4096

// firstChunkRows is the capacity of a Writer's first chunk (or the chunk
// size, when that is smaller). Each further chunk doubles it up to the
// chunk size.
const firstChunkRows = 64

// Run is one immutable sorted-by-construction intermediate result fragment.
// All rows in a Run share the same bucket path (hash prefix) of the
// recursion level that produced it.
type Run struct {
	// Keys is one word per row. The operator's runs (internal/core) hold
	// each row's Murmur2 hash here and read its radix digits straight
	// from it. The column keeps its name while the benchmark's replay
	// reads it (ROADMAP item 2).
	Keys []uint64
	// States holds the packed aggregate state columns: States[w][i] is
	// state word w of row i. len(States) is the layout's word count and is
	// zero for DISTINCT-style queries.
	States [][]uint64

	// owned marks a run whose columns a Writer cut for it alone; only such
	// runs may be handed back to a Free list.
	owned bool
}

// Len returns the number of rows in the run.
func (r *Run) Len() int { return len(r.Keys) }

// Validate checks the structural invariants of the run: all columns have
// equal length. It returns an error rather than panicking so tests can use
// it on adversarial inputs.
func (r *Run) Validate(words int) error {
	if len(r.States) != words {
		return fmt.Errorf("runs: %d state columns, want %d", len(r.States), words)
	}
	for w, col := range r.States {
		if len(col) != len(r.Keys) {
			return fmt.Errorf("runs: state column %d has %d rows, want %d", w, len(col), len(r.Keys))
		}
	}
	return nil
}

// Bucket is the set of runs that share one bucket path. The recursion of
// the framework treats all runs of the same partition as a single bucket
// (Algorithm 2). A run is either in memory (Runs) or in a block file
// (Spilled).
type Bucket struct {
	Runs []*Run
	// Spilled lists the runs of the bucket that were written to block
	// files to free memory.
	Spilled []Spilled
}

// Spilled is a run one storage level down: its keys and state columns
// written to a block file (see BlockWriter), in the same layout as a Run.
type Spilled struct {
	Path string
	Rows int
}

// Rows returns the total number of rows across all runs of the bucket,
// spilled ones included.
func (b *Bucket) Rows() int {
	n := b.MemRows()
	for _, s := range b.Spilled {
		n += s.Rows
	}
	return n
}

// MemRows returns the number of rows of the bucket's in-memory runs.
func (b *Bucket) MemRows() int {
	n := 0
	for _, r := range b.Runs {
		n += r.Len()
	}
	return n
}

// Add appends a run to the bucket. Nil and empty runs are dropped.
func (b *Bucket) Add(r *Run) {
	if r != nil && r.Len() > 0 {
		b.Runs = append(b.Runs, r)
	}
}

// AddAll appends all runs of other to b, spilled ones included.
func (b *Bucket) AddAll(other *Bucket) {
	for _, r := range other.Runs {
		b.Add(r)
	}
	b.Spilled = append(b.Spilled, other.Spilled...)
}

// Writer accumulates rows for one output partition in chunks: the two-level
// list-of-arrays structure. Chunk capacities grow geometrically from
// firstChunkRows to the chunk size. The zero value is not usable; create
// Writers with NewWriter.
type Writer struct {
	chunkRows int
	words     int
	free      *Free
	next      int // capacity of the next chunk; 0 = firstChunkRows
	cur       *Run
	sealed    []*Run
	rows      int
}

// NewWriter returns a Writer producing chunks of at most chunkRows rows with
// words aggregate state columns. chunkRows <= 0 selects DefaultChunkRows.
func NewWriter(chunkRows, words int) *Writer {
	return NewWriterFree(chunkRows, words, nil)
}

// NewWriterFree is NewWriter with control over where chunk columns come
// from: they are cut from free (nil allocates fresh ones), from whichever
// goroutine appends, so free must belong to that goroutine alone.
func NewWriterFree(chunkRows, words int, free *Free) *Writer {
	if chunkRows <= 0 {
		chunkRows = DefaultChunkRows
	}
	if words < 0 {
		panic("runs: negative state word count")
	}
	return &Writer{chunkRows: chunkRows, words: words, free: free}
}

// Rows returns the total number of rows appended so far.
func (w *Writer) Rows() int { return w.rows }

// Reset empties the writer for a new partition, restarting chunk growth at
// firstChunkRows. Chunks not yet sealed are dropped, not recycled.
func (w *Writer) Reset() {
	w.next = 0
	w.cur = nil
	w.sealed = nil
	w.rows = 0
}

// grow starts the next chunk. Its columns have capacity exactly c, so a
// chunk is full when len == cap, whatever the size class behind it.
func (w *Writer) grow() {
	c := w.next
	if c == 0 {
		c = min(firstChunkRows, w.chunkRows)
	}
	w.next = min(2*c, w.chunkRows)
	r := &Run{
		Keys:   w.free.Col(c)[:0:c],
		States: make([][]uint64, w.words),
		owned:  true,
	}
	for i := range r.States {
		r.States[i] = w.free.Col(c)[:0:c]
	}
	w.cur = r
}

// Append adds one row. state must have length words (ignored when words is
// zero).
func (w *Writer) Append(key uint64, state []uint64) {
	if w.cur == nil {
		w.grow()
	}
	r := w.cur
	r.Keys = append(r.Keys, key)
	for i := 0; i < w.words; i++ {
		r.States[i] = append(r.States[i], state[i])
	}
	w.rows++
	if len(r.Keys) == cap(r.Keys) {
		w.sealed = append(w.sealed, r)
		w.cur = nil
	}
}

// AppendBlock bulk-copies rows [from, to) of the given columns. This is the
// flush path of the software-write-combining buffers: one copy per column
// instead of per-row appends.
func (w *Writer) AppendBlock(keys []uint64, states [][]uint64, from, to int) {
	for from < to {
		if w.cur == nil {
			w.grow()
		}
		r := w.cur
		n := min(to-from, cap(r.Keys)-len(r.Keys))
		r.Keys = append(r.Keys, keys[from:from+n]...)
		for i := 0; i < w.words; i++ {
			r.States[i] = append(r.States[i], states[i][from:from+n]...)
		}
		w.rows += n
		from += n
		if len(r.Keys) == cap(r.Keys) {
			w.sealed = append(w.sealed, r)
			w.cur = nil
		}
	}
}

// Seal finishes the writer and returns all chunks as runs. The writer can
// keep being used afterwards; already-sealed chunks are not returned twice.
func (w *Writer) Seal() []*Run {
	out := w.sealed
	w.sealed = nil
	if w.cur != nil && w.cur.Len() > 0 {
		out = append(out, w.cur)
		w.cur = nil
	}
	return out
}

// SealInto appends all finished runs into the bucket.
func (w *Writer) SealInto(b *Bucket) {
	for _, r := range w.Seal() {
		b.Add(r)
	}
}

// maxFreeClass is the largest size class a Free keeps: columns of up to
// 128 Ki rows (1 MiB), which covers every run chunk and every leaf's
// output chunk at the default 4 MiB cache budget. Larger columns are
// allocated fresh and dropped when returned.
const maxFreeClass = 17

// Free is a free list of uint64 columns in power-of-two size classes: class
// c holds columns whose capacity is at least 1<<c. It belongs to one
// goroutine at a time (the operator keeps one per worker). A nil *Free
// allocates fresh columns and drops returned ones.
//
// Columns may come back to a different list than the one that cut them, so
// one list could keep collecting what others allocate. Settle bounds that:
// it evens out a set of lists and trims each to its recent demand.
type Free struct {
	class [maxFreeClass + 1][][]uint64
	drawn [maxFreeClass + 1]int // columns handed out by Col since the last Settle
	need  [maxFreeClass + 1]int // recent demand: drawn, decaying by 1/8 per Settle
}

// Col returns a column of length n and unspecified contents. A column kept
// by the list has the capacity of its class, the power of two ≥ n, so that
// Put files it back in the same class.
func (f *Free) Col(n int) []uint64 {
	c := 0
	if n > 1 {
		c = bits.Len(uint(n - 1))
	}
	if f == nil || c > maxFreeClass {
		return make([]uint64, n)
	}
	f.drawn[c]++
	l := f.class[c]
	if len(l) == 0 {
		return make([]uint64, n, 1<<c)
	}
	col := l[len(l)-1]
	l[len(l)-1] = nil
	f.class[c] = l[:len(l)-1]
	return col[:n]
}

// Put gives a column back. The caller must not use it afterwards.
func (f *Free) Put(col []uint64) {
	n := cap(col)
	if f == nil || n == 0 {
		return
	}
	c := bits.Len(uint(n)) - 1
	if c > maxFreeClass {
		return
	}
	f.class[c] = append(f.class[c], col)
}

// Settle evens out lists that were used side by side — the workers of one
// execution — and trims them to their recent demand. A list's demand for a
// class is what it handed out since the previous Settle, or, when that was
// less, its previous demand less an eighth: executions of different sizes
// can take turns on the same lists without each trimming away what the
// next one needs. Per class, each list is topped up to its demand from the
// other lists' surplus, and what is left over is dropped. Settle must not
// run concurrently with any other use of the lists.
func Settle(lists []*Free) {
	for c := range maxFreeClass + 1 {
		for _, f := range lists {
			f.need[c] = max(f.drawn[c], f.need[c]-(f.need[c]+7)/8)
			f.drawn[c] = 0
		}
		donor := 0
		for _, f := range lists {
			for len(f.class[c]) < f.need[c] {
				for donor < len(lists) && len(lists[donor].class[c]) <= lists[donor].need[c] {
					donor++
				}
				if donor == len(lists) {
					break
				}
				d := lists[donor]
				k := min(f.need[c]-len(f.class[c]), len(d.class[c])-d.need[c])
				f.class[c] = append(f.class[c], d.class[c][len(d.class[c])-k:]...)
				d.truncate(c, len(d.class[c])-k)
			}
		}
		for _, f := range lists {
			f.truncate(c, min(len(f.class[c]), f.need[c]))
		}
	}
}

// truncate shortens class c to n columns, clearing the dropped references.
func (f *Free) truncate(c, n int) {
	l := f.class[c]
	clear(l[n:])
	f.class[c] = l[:n]
}

// Recycle gives the columns of a run a Writer produced back to the list and
// empties the run. Runs from elsewhere — table splits cut from one shared
// slab, hand-built one-row runs — are left alone. The caller must not use
// the run's rows afterwards.
func (f *Free) Recycle(r *Run) {
	if f == nil || !r.owned {
		return
	}
	f.Put(r.Keys)
	for _, col := range r.States {
		f.Put(col)
	}
	*r = Run{}
}
