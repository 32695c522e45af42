package partition

import (
	"fmt"
	"slices"
	"testing"

	"cacheagg/internal/agg"
	"cacheagg/internal/hashfn"
	"cacheagg/internal/runs"
	"cacheagg/internal/xrand"
)

// digitDist shapes the digits of generated rows at one level.
type digitDist int

const (
	uniformDigits digitDist = iota // random hashes
	oneDigit                       // every row on digit 7
	heavyDigit                     // half the rows on digit 7, the rest random
)

func (d digitDist) String() string {
	return [...]string{"uniform", "one", "heavy"}[d]
}

// genShaped builds n rows whose level-level digits follow dist. Keys are
// the row's sequence number plus base, so every row is distinct and a
// partition's key sequence shows its order; states are random words.
func genShaped(seed uint64, n, words, level int, dist digitDist, base uint64) (hashes, keys []uint64, states [][]uint64) {
	rng := xrand.NewXoshiro256(seed)
	shift := uint(64 - hashfn.DigitBits*(level+1))
	hashes, keys = make([]uint64, n), make([]uint64, n)
	states = make([][]uint64, words)
	for w := range states {
		states[w] = make([]uint64, n)
	}
	for i := range hashes {
		h := rng.Next()
		if dist == oneDigit || dist == heavyDigit && rng.Next()&1 == 0 {
			h = h&^(hashfn.Fanout-1<<shift) | 7<<shift
		}
		hashes[i], keys[i] = h, base+uint64(i)
		for w := range states {
			states[w][i] = rng.Next()
		}
	}
	return hashes, keys, states
}

// flatten concatenates one partition's runs into its key and state
// sequences, checking every run's shape.
func flatten(t *testing.T, rs []*runs.Run, words int) (keys []uint64, states [][]uint64) {
	t.Helper()
	states = make([][]uint64, words)
	for _, r := range rs {
		if err := r.Validate(words); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, r.Keys...)
		for w := range states {
			states[w] = append(states[w], r.States[w]...)
		}
	}
	return keys, states
}

// sameRows fails unless got and want hold the same rows per digit, in the
// same order.
func sameRows(t *testing.T, got, want [][]*runs.Run, words int) {
	t.Helper()
	for d := 0; d < hashfn.Fanout; d++ {
		gk, gs := flatten(t, got[d], words)
		wk, ws := flatten(t, want[d], words)
		if !slices.Equal(gk, wk) {
			t.Fatalf("digit %d: %d keys, want %d (or the order differs)", d, len(gk), len(wk))
		}
		for w := range gs {
			if !slices.Equal(gs[w], ws[w]) {
				t.Fatalf("digit %d: state word %d differs", d, w)
			}
		}
	}
}

// TestScatterMatchesNaive: the mapping-vector kernel produces exactly the
// naive per-row scatter's rows, digit by digit and in order, for every
// state width, digit shape, chunk size and call length — across Resets to
// new levels of one reused scatterer.
func TestScatterMatchesNaive(t *testing.T) {
	const n = 3*BlockRows + 5
	for _, words := range []int{0, 1, 2, 5, 6} {
		for _, dist := range []digitDist{uniformDigits, oneDigit, heavyDigit} {
			for _, chunkRows := range []int{128, 0} {
				for _, call := range []int{1, 15, BlockRows - 1, BlockRows + 1, 3 * BlockRows} {
					name := fmt.Sprintf("words=%d/%v/chunk=%d/call=%d", words, dist, chunkRows, call)
					t.Run(name, func(t *testing.T) {
						free := &runs.Free{}
						s := New(Config{Words: words, ChunkRows: chunkRows, Free: free})
						for level := 0; level < 2; level++ {
							hashes, keys, states := genShaped(uint64(31*words+level), n, words, level, dist, uint64(level)<<32)
							if level > 0 {
								s.Reset(level)
							}
							for lo := 0; lo < n; lo += call {
								hi := min(lo+call, n)
								view := make([][]uint64, words)
								for w := range view {
									view[w] = states[w][lo:hi]
								}
								s.Scatter(hashes[lo:hi], keys[lo:hi], view)
							}
							if s.Rows() != n {
								t.Fatalf("level %d: Rows = %d, want %d", level, s.Rows(), n)
							}
							got := s.Seal()
							sameRows(t, got, NaiveScatter(level, words, hashes, keys, states), words)
							for _, rs := range got {
								for _, r := range rs {
									free.Recycle(r)
								}
							}
						}
					})
				}
			}
		}
	}
}

// TestScatterRawMatchesMaterialized: ScatterRaw over raw input columns
// equals materializing the initial states (the input value, or 1 for a
// counting word) and calling Scatter, runs and all, for COUNT, SUM, MIN,
// MAX and AVG over negative and positive values and an offset input.
func TestScatterRawMatchesMaterialized(t *testing.T) {
	specs := []agg.Spec{{Kind: agg.Count}, {Kind: agg.Sum, Col: 0}, {Kind: agg.Min, Col: 1},
		{Kind: agg.Max, Col: 0}, {Kind: agg.Avg, Col: 1}}
	src := agg.NewLayout(specs).Kernels().Cols
	const lo, n = 77, 2*BlockRows + 300
	rng := xrand.NewXoshiro256(5)
	cols := [][]int64{make([]int64, lo+n), make([]int64, lo+n)}
	for i := range cols[0] {
		cols[0][i] = int64(rng.Next()%2001) - 1000
		cols[1][i] = int64(rng.Next())
	}
	for _, dist := range []digitDist{uniformDigits, heavyDigit} {
		hashes, _, _ := genShaped(9, n, 0, 0, dist, 0)
		states := make([][]uint64, len(src))
		for w, c := range src {
			states[w] = make([]uint64, n)
			for i := range states[w] {
				if c < 0 {
					states[w][i] = 1
				} else {
					states[w][i] = uint64(cols[c][lo+i])
				}
			}
		}
		raw := New(Config{Words: len(src), ChunkRows: 512})
		mat := New(Config{Words: len(src), ChunkRows: 512})
		for i := 0; i < n; i += 1000 {
			j := min(i+1000, n)
			raw.ScatterRaw(hashes[i:j], cols, src, lo+i)
			view := make([][]uint64, len(src))
			for w := range view {
				view[w] = states[w][i:j]
			}
			mat.Scatter(hashes[i:j], hashes[i:j], view)
		}
		got, want := raw.Seal(), mat.Seal()
		for d := range got {
			if len(got[d]) != len(want[d]) {
				t.Fatalf("%v: digit %d has %d runs, want %d", dist, d, len(got[d]), len(want[d]))
			}
			for r := range got[d] {
				g, w := got[d][r], want[d][r]
				if !slices.Equal(g.Keys, w.Keys) {
					t.Fatalf("%v: digit %d run %d: keys differ", dist, d, r)
				}
				for c := range g.States {
					if !slices.Equal(g.States[c], w.States[c]) {
						t.Fatalf("%v: digit %d run %d: state word %d differs", dist, d, r, c)
					}
				}
			}
		}
	}
}

// benchWidths are the state widths the scatter benchmarks price: DISTINCT,
// one word, two, and the benchmark workloads' COUNT, SUM, MIN, AVG (five).
var benchWidths = []int{0, 1, 2, 5}

// benchRows is the input of one benchmark iteration, scattered in calls of
// BlockRows rows as the operator's intake does.
const benchRows = 1 << 16

// benchScatter times scatter over benchRows uniform rows per iteration on
// one scatterer, recycling its runs between iterations as a worker does,
// and reports ns/row beside B/op and allocs/op.
func benchScatter(b *testing.B, words int, scatter func(s *Scatterer, lo, hi int)) {
	free := &runs.Free{}
	s := New(Config{Words: words, Free: free})
	b.SetBytes(int64(benchRows * 8 * (1 + words)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for lo := 0; lo < benchRows; lo += BlockRows {
			scatter(s, lo, lo+BlockRows)
		}
		for _, rs := range s.Seal() {
			for _, r := range rs {
				free.Recycle(r)
			}
		}
		s.Reset(0)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*benchRows), "ns/row")
}

func BenchmarkScatterSWC(b *testing.B) {
	for _, words := range benchWidths {
		b.Run(fmt.Sprintf("words=%d", words), func(b *testing.B) {
			hashes, keys, states := genShaped(1, benchRows, words, 0, uniformDigits, 0)
			view := make([][]uint64, words)
			benchScatter(b, words, func(s *Scatterer, lo, hi int) {
				for w := range view {
					view[w] = states[w][lo:hi]
				}
				s.Scatter(hashes[lo:hi], keys[lo:hi], view)
			})
		})
	}
}

// BenchmarkScatterRaw prices the intake's scatter of raw rows at the
// workloads' width: COUNT, SUM(c0), MIN(c1), AVG(c1) read two int64
// columns, and two of the five words are the constant 1.
func BenchmarkScatterRaw(b *testing.B) {
	src := agg.NewLayout([]agg.Spec{{Kind: agg.Count}, {Kind: agg.Sum, Col: 0},
		{Kind: agg.Min, Col: 1}, {Kind: agg.Avg, Col: 1}}).Kernels().Cols
	hashes, _, _ := genShaped(1, benchRows, 0, 0, uniformDigits, 0)
	rng := xrand.NewXoshiro256(2)
	cols := [][]int64{make([]int64, benchRows), make([]int64, benchRows)}
	for i := range cols[0] {
		cols[0][i], cols[1][i] = int64(rng.Next()%1000), int64(rng.Next()%4096)-2048
	}
	b.Run(fmt.Sprintf("words=%d", len(src)), func(b *testing.B) {
		benchScatter(b, len(src), func(s *Scatterer, lo, hi int) {
			s.ScatterRaw(hashes[lo:hi], cols, src, lo)
		})
	})
}

func BenchmarkScatterNaive(b *testing.B) {
	for _, words := range benchWidths {
		b.Run(fmt.Sprintf("words=%d", words), func(b *testing.B) {
			hashes, keys, states := genShaped(1, benchRows, words, 0, uniformDigits, 0)
			b.SetBytes(int64(benchRows * 8 * (1 + words)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				NaiveScatter(0, words, hashes, keys, states)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*benchRows), "ns/row")
		})
	}
}
