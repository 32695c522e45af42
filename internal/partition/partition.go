// Package partition implements the PARTITIONING routine of the framework
// (paper Sections 3.1 and 4.2): radix scatter by one hash digit with a
// fan-out of 256, using software write-combining and the two-level
// list-of-arrays output structure.
//
// Software write-combining (Intel's term, used by Balkesen et al. and
// Wassenberg & Sanders) buffers a few cache lines of rows per partition
// and flushes a full buffer with a single bulk copy. The original purpose —
// avoiding read-before-write traffic and TLB misses from writing to 256
// scattered pages — translates in Go to: per-row work touches only a small,
// cache-resident buffer block, and the scattered destinations are touched
// only by wide copies. Rows are moved a block at a time through a mapping
// vector (Section 3.3): the digits of a block are computed once, and the
// vector then moves each column in turn, so only one column's buffers are
// in use at any moment however wide the aggregate state is.
package partition

import (
	"fmt"

	"cacheagg/internal/hashfn"
	"cacheagg/internal/runs"
)

// DefaultBufRows is the software-write-combining buffer size per partition,
// in rows. 64 rows × 8 bytes = 512 bytes per buffered column — a few cache
// lines per partition, the same order as the paper's one-line buffers while
// amortizing Go's bounds checks over longer copies.
const DefaultBufRows = 64

// MaxBufRows is the largest BufRows: a buffer slot of any partition must
// fit the mapping vector's 16-bit entries.
const MaxBufRows = 1 << 16 / hashfn.Fanout

// BlockRows is the longest block of the mapping-vector kernel, the
// length of its mapping vector: the operator's intake block.
const BlockRows = 4096

// ScratchBytes is what a Scatterer keeps beside its buffers and writers:
// the mapping vector, 2 bytes a row, and 13 bytes per partition (buffer
// length, block count and next free slot as int32, and one entry of the
// list of partitions a block touches).
const ScratchBytes = 2*BlockRows + 13*hashfn.Fanout

// Config configures a Scatterer.
type Config struct {
	// Level selects the radix digit: digit = hashfn.Digit(hash, Level).
	Level int
	// Words is the number of aggregate state columns to move along.
	Words int
	// BufRows is the SWC buffer capacity per partition (0 → DefaultBufRows),
	// at most MaxBufRows.
	BufRows int
	// ChunkRows is the chunk size of the output writers (0 → default).
	ChunkRows int
	// DropHashes is ignored: runs hold one word per row (the keys
	// argument of Scatter) and states, whatever it says.
	//
	// Deprecated: runs never carry hashes; the field has no effect.
	DropHashes bool
	// Free is the column free list the output writers cut their chunks
	// from (nil allocates fresh columns). It must belong to the goroutine
	// that drives the scatterer.
	Free *runs.Free
}

// Scatterer scatters rows into 256 per-digit outputs. It is not safe for
// concurrent use; the parallel driver gives each worker its own Scatterer.
type Scatterer struct {
	shift   uint
	words   int
	bufRows int

	// SWC buffers, contiguous per column: partition p occupies
	// [p*bufRows, (p+1)*bufRows) and holds bufLen[p] rows. Only the keys
	// argument of Scatter and the states are buffered: the hashes give the
	// digit and are not kept. The operator passes its hashes as both, so
	// its runs carry them.
	bufKey   []uint64
	bufState [][]uint64
	bufLen   [hashfn.Fanout]int32

	// mapBlock's scratch: the mapping vector of a block (BlockRows
	// slots), the block's rows per partition, each partition's next free
	// slot, and the partitions the block touches.
	pos     []uint16
	counts  [hashfn.Fanout]int32
	next    [hashfn.Fanout]int32
	touched [hashfn.Fanout]uint8

	// flushViews is a reusable [words][]uint64 scratch for AppendBlock.
	flushViews [][]uint64

	writers []*runs.Writer
	rows    int
}

// New creates a Scatterer.
func New(cfg Config) *Scatterer {
	if cfg.Level < 0 || cfg.Level >= hashfn.MaxLevels {
		panic(fmt.Sprintf("partition: level %d out of range", cfg.Level))
	}
	if cfg.Words < 0 {
		panic("partition: negative words")
	}
	if cfg.BufRows > MaxBufRows {
		panic(fmt.Sprintf("partition: %d buffer rows, at most %d", cfg.BufRows, MaxBufRows))
	}
	bufRows := cfg.BufRows
	if bufRows <= 0 {
		bufRows = DefaultBufRows
	}
	s := &Scatterer{
		shift:      uint(64 - hashfn.DigitBits*(cfg.Level+1)),
		words:      cfg.Words,
		bufRows:    bufRows,
		bufKey:     make([]uint64, hashfn.Fanout*bufRows),
		bufState:   make([][]uint64, cfg.Words),
		pos:        make([]uint16, BlockRows),
		flushViews: make([][]uint64, cfg.Words),
		writers:    make([]*runs.Writer, hashfn.Fanout),
	}
	for w := range s.bufState {
		s.bufState[w] = make([]uint64, hashfn.Fanout*bufRows)
	}
	for p := range s.writers {
		s.writers[p] = runs.NewWriterFree(cfg.ChunkRows, cfg.Words, cfg.Free)
	}
	return s
}

// Rows returns the number of rows scattered so far (including rows still
// sitting in SWC buffers).
func (s *Scatterer) Rows() int { return s.rows }

// Reset re-targets the scatterer to a new level, emptying its writers in
// place and keeping its buffers, so one worker can reuse the (sizable) SWC
// buffer allocation across bucket tasks. It panics if rows are still
// buffered — the previous task must have flushed or sealed.
func (s *Scatterer) Reset(level int) {
	if level < 0 || level >= hashfn.MaxLevels {
		panic(fmt.Sprintf("partition: level %d out of range", level))
	}
	for p, n := range s.bufLen {
		if n != 0 {
			panic(fmt.Sprintf("partition: Reset with %d rows buffered in partition %d", n, p))
		}
	}
	s.shift = uint(64 - hashfn.DigitBits*(level+1))
	s.rows = 0
	for _, w := range s.writers {
		w.Reset()
	}
}

func (s *Scatterer) flushPartition(p int) {
	n := int(s.bufLen[p])
	if n == 0 {
		return
	}
	base := p * s.bufRows
	for w := 0; w < s.words; w++ {
		s.flushViews[w] = s.bufState[w][base : base+n]
	}
	s.writers[p].AppendBlock(s.bufKey[base:base+n], s.flushViews, 0, n)
	s.bufLen[p] = 0
}

// Scatter scatters all rows of the given columns: row i goes to the
// partition of hashes[i]'s digit, carrying keys[i] and states[w][i]. states
// must have exactly the configured number of word columns (may be nil when
// words is 0). Each partition receives its rows in input order.
//
// Rows with state words move one block at a time through the mapping
// vector (mapBlock), which is then applied to the key column and to each
// state column in turn (place). DISTINCT rows, a single column, take the
// row-at-a-time loop scatter0.
func (s *Scatterer) Scatter(hashes, keys []uint64, states [][]uint64) {
	if len(hashes) != len(keys) {
		panic("partition: column length mismatch")
	}
	if len(states) != s.words {
		panic(fmt.Sprintf("partition: %d state columns, want %d", len(states), s.words))
	}
	if s.words == 0 {
		s.scatter0(hashes, keys)
		return
	}
	for i := 0; i < len(hashes); {
		pos := s.mapBlock(hashes[i:])
		n := len(pos)
		place(pos, s.bufKey, keys[i:i+n])
		for w, col := range states {
			place(pos, s.bufState[w], col[i:i+n])
		}
		i += n
	}
	s.rows += len(hashes)
}

// ScatterRaw is Scatter for rows whose states are still raw input, as
// the intake holds them: row i goes to the partition of hashes[i]'s
// digit, carrying hashes[i] as its key, and its state word w is
// cols[src[w]][lo+i], or the constant 1 where src[w] is -1 (the
// convention of agg.Kernels.Cols). The input columns are read straight
// into the buffers; no initial state is materialized.
func (s *Scatterer) ScatterRaw(hashes []uint64, cols [][]int64, src []int, lo int) {
	if len(src) != s.words {
		panic(fmt.Sprintf("partition: %d state sources, want %d", len(src), s.words))
	}
	if s.words == 0 {
		s.scatter0(hashes, hashes)
		return
	}
	for i := 0; i < len(hashes); {
		pos := s.mapBlock(hashes[i:])
		n := len(pos)
		place(pos, s.bufKey, hashes[i:i+n])
		for w, c := range src {
			if c < 0 {
				placeOne(pos, s.bufState[w])
			} else {
				place(pos, s.bufState[w], cols[c][lo+i:lo+i+n])
			}
		}
		i += n
	}
	s.rows += len(hashes)
}

// mapBlock maps a block of rows, a prefix of hashes of at most BlockRows
// rows, to their buffer slots, and returns the block's mapping vector:
// pos[i] is the slot of row i in every column's buffers. It runs two
// passes over the block. The first extracts each row's digit and counts
// the rows per partition; then every partition the block touches whose
// buffer lacks room for its count is flushed. The second turns each digit
// into the next free slot of its partition, so rows keep their input
// order within a partition. The buffers' lengths then include the block,
// which the caller must place into every column before the next call.
//
// A hot digit cuts the block: the first pass stops at the row that would
// give one partition more rows than its whole buffer holds, so a flush
// always makes room. Uniform digits run blocks to BlockRows; a single
// digit cuts them at bufRows rows, where one flush per block is due
// anyway. Only the touched partitions are visited between the passes, so
// a short block costs no sweep over all of them.
func (s *Scatterer) mapBlock(hashes []uint64) []uint16 {
	pos := s.pos[:min(len(hashes), len(s.pos))]
	hashes = hashes[:len(pos)]
	counts, touched := &s.counts, &s.touched
	nt := 0
	shift, bufRows := s.shift, int32(s.bufRows)
	for i, h := range hashes {
		d := uint8(h >> shift)
		c := counts[d]
		if c == bufRows {
			pos = pos[:i]
			break
		}
		if c == 0 {
			touched[nt] = d
			nt++
		}
		counts[d] = c + 1
		pos[i] = uint16(d)
	}
	next := &s.next
	for _, d := range touched[:nt] {
		l := s.bufLen[d]
		if l+counts[d] > bufRows {
			s.flushPartition(int(d))
			l = 0
		}
		next[d] = int32(d)*bufRows + l
		s.bufLen[d] = l + counts[d]
		counts[d] = 0
	}
	for i, p := range pos {
		d := uint8(p)
		pos[i] = uint16(next[d])
		next[d]++
	}
	return pos
}

// place moves one column of a mapped block, a key or state column or a
// raw input column, into that column's buffers.
func place[T uint64 | int64](pos []uint16, buf []uint64, col []T) {
	col = col[:len(pos)]
	for i, p := range pos {
		buf[p] = uint64(col[i])
	}
}

// placeOne is place for the constant 1 of a counting word.
func placeOne(pos []uint16, buf []uint64) {
	for _, p := range pos {
		buf[p] = 1
	}
}

// scatter0 is the DISTINCT scatter: with the key the only column, a
// mapping vector saves nothing, and one pass that writes each row as its
// digit is extracted is faster. The digits of 16 rows are extracted
// before any buffer is touched, the paper's out-of-order unrolling.
func (s *Scatterer) scatter0(hashes, keys []uint64) {
	const unroll = 16
	bufKey, bufLen := s.bufKey, &s.bufLen
	shift, bufRows := s.shift, int32(s.bufRows)
	var digits [unroll]uint8
	n := len(hashes)
	i := 0
	for ; i+unroll <= n; i += unroll {
		hs := hashes[i : i+unroll]
		for j := 0; j < unroll; j++ {
			digits[j] = uint8(hs[j] >> shift)
		}
		for j := 0; j < unroll; j++ {
			p := digits[j]
			l := bufLen[p]
			if l == bufRows {
				s.flushPartition(int(p))
				l = 0
			}
			bufKey[int32(p)*bufRows+l] = keys[i+j]
			bufLen[p] = l + 1
		}
	}
	for ; i < n; i++ {
		p := uint8(hashes[i] >> shift)
		l := bufLen[p]
		if l == bufRows {
			s.flushPartition(int(p))
			l = 0
		}
		bufKey[int32(p)*bufRows+l] = keys[i]
		bufLen[p] = l + 1
	}
	s.rows += n
}

// Flush drains all partition buffers into the writers.
func (s *Scatterer) Flush() {
	for p := 0; p < hashfn.Fanout; p++ {
		s.flushPartition(p)
	}
}

// SealInto flushes and seals every partition's writer into the
// corresponding bucket of the 256-element bucket slice.
func (s *Scatterer) SealInto(buckets []*runs.Bucket) {
	if len(buckets) != hashfn.Fanout {
		panic("partition: bucket slice must have fan-out length")
	}
	s.Flush()
	for p, w := range s.writers {
		w.SealInto(buckets[p])
	}
}

// Seal flushes and returns the per-digit runs, indexed by digit.
func (s *Scatterer) Seal() [][]*runs.Run {
	s.Flush()
	out := make([][]*runs.Run, hashfn.Fanout)
	for p, w := range s.writers {
		out[p] = w.Seal()
	}
	return out
}

// NaiveScatter is the untuned partitioning loop used as the Figure 3
// baseline: one row at a time, appended straight to the destination writer
// with no write combining and no unrolling.
func NaiveScatter(level, words int, hashes, keys []uint64, states [][]uint64) [][]*runs.Run {
	if level < 0 || level >= hashfn.MaxLevels {
		panic("partition: level out of range")
	}
	shift := uint(64 - hashfn.DigitBits*(level+1))
	writers := make([]*runs.Writer, hashfn.Fanout)
	for p := range writers {
		writers[p] = runs.NewWriter(0, words)
	}
	state := make([]uint64, words)
	for i := range hashes {
		p := int(hashes[i] >> shift & (hashfn.Fanout - 1))
		for w := 0; w < words; w++ {
			state[w] = states[w][i]
		}
		writers[p].Append(keys[i], state)
	}
	out := make([][]*runs.Run, hashfn.Fanout)
	for p, w := range writers {
		out[p] = w.Seal()
	}
	return out
}
