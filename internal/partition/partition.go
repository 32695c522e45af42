// Package partition implements the PARTITIONING routine of the framework
// (paper Sections 3.1 and 4.2): radix scatter by one hash digit with a
// fan-out of 256, using software write-combining and the two-level
// list-of-arrays output structure.
//
// Software write-combining (Intel's term, used by Balkesen et al. and
// Wassenberg & Sanders) buffers one cache line worth of rows per partition
// and flushes a full buffer with a single bulk copy. The original purpose —
// avoiding read-before-write traffic and TLB misses from writing to 256
// scattered pages — translates in Go to: per-row work touches only a small,
// cache-resident buffer block, and the scattered destinations are touched
// only by wide copies. The main loop is unrolled in blocks of 16 rows whose
// digits are extracted before any buffer is touched, mirroring the paper's
// out-of-order-execution unrolling ("oo", +24 % in Figure 3).
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

// unroll is the block size of the digit-precomputation loop (the paper
// unrolls "into blocks of 16 elements, which are first all hashed and then
// all put into their partition buffers").
const unroll = 16

// Config configures a Scatterer.
type Config struct {
	// Level selects the radix digit: digit = hashfn.Digit(hash, Level).
	Level int
	// Words is the number of aggregate state columns to move along.
	Words int
	// BufRows is the SWC buffer capacity per partition (0 → DefaultBufRows).
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
	level   int
	shift   uint
	words   int
	bufRows int

	// SWC buffers, contiguous per column: partition p occupies
	// [p*bufRows, (p+1)*bufRows). Only the keys argument of Scatter and
	// the states are buffered: the hashes give the digit and are not kept.
	// The operator passes its hashes as both, so its runs carry them.
	bufKey   []uint64
	bufState [][]uint64
	bufLen   []int

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
	bufRows := cfg.BufRows
	if bufRows <= 0 {
		bufRows = DefaultBufRows
	}
	s := &Scatterer{
		level:      cfg.Level,
		shift:      uint(64 - hashfn.DigitBits*(cfg.Level+1)),
		words:      cfg.Words,
		bufRows:    bufRows,
		bufKey:     make([]uint64, hashfn.Fanout*bufRows),
		bufState:   make([][]uint64, cfg.Words),
		bufLen:     make([]int, hashfn.Fanout),
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

// Level returns the radix level the scatterer was created for.
func (s *Scatterer) Level() int { return s.level }

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
	s.level = level
	s.shift = uint(64 - hashfn.DigitBits*(level+1))
	s.rows = 0
	for _, w := range s.writers {
		w.Reset()
	}
}

func (s *Scatterer) flushPartition(p int) {
	n := s.bufLen[p]
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

// Scatter scatters all rows of the given columns. states must have exactly
// the configured number of word columns (may be nil when words is 0).
//
// The loop is structured like the paper's tuned routine: digits of 16 rows
// are extracted into a local block first, then the block is drained into
// the partition buffers. The inner loop is dispatched once per call to a
// monomorphic specialization for the common word counts (0 = DISTINCT,
// 1 = single-aggregate), which keeps every buffer column in a register-
// resident local instead of re-loading slice headers per row per word.
func (s *Scatterer) Scatter(hashes, keys []uint64, states [][]uint64) {
	if len(hashes) != len(keys) {
		panic("partition: column length mismatch")
	}
	switch s.words {
	case 0:
		s.scatter0(hashes, keys)
	case 1:
		s.scatter1(hashes, keys, states[0])
	default:
		s.scatterN(hashes, keys, states)
	}
}

// scatter0 is the words=0 (DISTINCT) specialization.
func (s *Scatterer) scatter0(hashes, keys []uint64) {
	bufKey, bufLen := s.bufKey, s.bufLen
	shift, bufRows := s.shift, s.bufRows
	var digits [unroll]int
	n := len(hashes)
	i := 0
	for ; i+unroll <= n; i += unroll {
		hs := hashes[i : i+unroll]
		for j := 0; j < unroll; j++ {
			digits[j] = int(hs[j] >> shift & (hashfn.Fanout - 1))
		}
		for j := 0; j < unroll; j++ {
			p := digits[j]
			l := bufLen[p]
			if l == bufRows {
				s.flushPartition(p)
				l = 0
			}
			idx := p*bufRows + l
			bufKey[idx] = keys[i+j]
			bufLen[p] = l + 1
		}
	}
	for ; i < n; i++ {
		p := int(hashes[i] >> shift & (hashfn.Fanout - 1))
		l := bufLen[p]
		if l == bufRows {
			s.flushPartition(p)
			l = 0
		}
		idx := p*bufRows + l
		bufKey[idx] = keys[i]
		bufLen[p] = l + 1
	}
	s.rows += n
}

// scatter1 is the words=1 (single aggregate state word) specialization.
func (s *Scatterer) scatter1(hashes, keys, st0 []uint64) {
	bufKey, bufLen := s.bufKey, s.bufLen
	bufSt := s.bufState[0]
	shift, bufRows := s.shift, s.bufRows
	var digits [unroll]int
	n := len(hashes)
	i := 0
	for ; i+unroll <= n; i += unroll {
		hs := hashes[i : i+unroll]
		for j := 0; j < unroll; j++ {
			digits[j] = int(hs[j] >> shift & (hashfn.Fanout - 1))
		}
		for j := 0; j < unroll; j++ {
			p := digits[j]
			l := bufLen[p]
			if l == bufRows {
				s.flushPartition(p)
				l = 0
			}
			idx := p*bufRows + l
			bufKey[idx] = keys[i+j]
			bufSt[idx] = st0[i+j]
			bufLen[p] = l + 1
		}
	}
	for ; i < n; i++ {
		p := int(hashes[i] >> shift & (hashfn.Fanout - 1))
		l := bufLen[p]
		if l == bufRows {
			s.flushPartition(p)
			l = 0
		}
		idx := p*bufRows + l
		bufKey[idx] = keys[i]
		bufSt[idx] = st0[i]
		bufLen[p] = l + 1
	}
	s.rows += n
}

// scatterN is the general multi-word loop, with the same hoisted buffer
// locals and batched accounting as the specializations (only the per-word
// state copy stays a loop).
func (s *Scatterer) scatterN(hashes, keys []uint64, states [][]uint64) {
	bufKey, bufLen := s.bufKey, s.bufLen
	bufState := s.bufState
	shift, bufRows := s.shift, s.bufRows
	words := s.words
	var digits [unroll]int
	n := len(hashes)
	i := 0
	for ; i+unroll <= n; i += unroll {
		hs := hashes[i : i+unroll]
		for j := 0; j < unroll; j++ {
			digits[j] = int(hs[j] >> shift & (hashfn.Fanout - 1))
		}
		for j := 0; j < unroll; j++ {
			p := digits[j]
			l := bufLen[p]
			if l == bufRows {
				s.flushPartition(p)
				l = 0
			}
			idx := p*bufRows + l
			bufKey[idx] = keys[i+j]
			for w := 0; w < words; w++ {
				bufState[w][idx] = states[w][i+j]
			}
			bufLen[p] = l + 1
		}
	}
	for ; i < n; i++ {
		p := int(hashes[i] >> shift & (hashfn.Fanout - 1))
		l := bufLen[p]
		if l == bufRows {
			s.flushPartition(p)
			l = 0
		}
		idx := p*bufRows + l
		bufKey[idx] = keys[i]
		for w := 0; w < words; w++ {
			bufState[w][idx] = states[w][i]
		}
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
