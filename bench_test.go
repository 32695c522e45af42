package cacheagg

// One testing.B benchmark per table and figure of the paper. Each figure is
// a table of cases that its Benchmark… and a tier-1 Test…Smoke share: the
// benchmark runs the cases at N = benchN rows, the smoke test runs the same
// cases once at smokeN rows and checks their group counts, so the harness
// runs every time the tests do.
//
// The sub-benchmarks report the paper's units with b.ReportMetric: ns/elem
// is Element Time (T·P/N/C, Section 6.1); cases that collect operator
// statistics add passes, switches, mean_alpha, hashed_share and the
// per-pass breakdown pass<i>_ns/elem; the cache-simulator cases add
// transfers; Figure 3 adds MB/s through b.SetBytes. Section 6.1's "median
// of 10 runs" is
//
//	go test -run '^$' -bench Fig8 -count 10 .
//
// and the median of each case's ten lines. To compare two commits, build
// each side's test binary once with go test -c and alternate -test.count 1
// runs of the two, so that drift on the host hits both sides alike.
//
// Scale: N = 2^20 rows per operation: large enough that the recursion of
// the operator engages with the reduced cache budget below, small enough
// that a figure runs in minutes. The cache budget is 1 MiB per worker so
// tables fill and strategies diverge at this N. Operators run on
// P = GOMAXPROCS workers unless the figure sweeps P.

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cacheagg/internal/agg"
	"cacheagg/internal/baselines"
	"cacheagg/internal/bench"
	"cacheagg/internal/cachesim"
	"cacheagg/internal/columnar"
	"cacheagg/internal/core"
	"cacheagg/internal/datagen"
	"cacheagg/internal/hashfn"
	"cacheagg/internal/hashtable"
	"cacheagg/internal/partition"
	"cacheagg/internal/runs"
	"cacheagg/internal/sched"
	"cacheagg/internal/sortagg"
	"cacheagg/internal/xrand"
)

const (
	benchN     = 1 << 20
	benchCache = 1 << 20
	smokeN     = benchN / 64
)

// kSweep is the K axis of the strategy figures, as exponents: 2^4 … 2^20.
var kSweep = []int{4, 6, 8, 10, 12, 14, 16, 18, 20}

func benchKeys(b *testing.B, dist datagen.Dist, k uint64) []uint64 {
	b.Helper()
	return datagen.Generate(datagen.Spec{Dist: dist, N: benchN, K: k, Seed: 42})
}

// figOut is what one operation of a figure case produced.
type figOut struct {
	groups    int         // result groups (0 when the operation does not group)
	rows      int         // rows processed, when not the case's n
	stats     *core.Stats // set when the case collects operator statistics
	transfers int64       // cache-line transfers of a cache-simulator run
}

// figCase is one point of a figure. setup builds its input at n rows and
// returns the operation one benchmark iteration times, plus the group-by
// keys that operation aggregates (nil when it does not group), against
// which the smoke test checks out.groups.
type figCase struct {
	name     string
	workers  int // Element Time's P; 0 counts as 1
	cols     int // Element Time's C; 0 counts as 1
	rowBytes int // bytes moved per row, reported as MB/s
	setup    func(tb testing.TB, n int) (op func() figOut, keys []uint64)
}

// metrics converts one operation of c over n rows that took d into the
// paper's units.
func (c figCase) metrics(out figOut, n int, d time.Duration) map[string]float64 {
	if out.rows > 0 {
		n = out.rows
	}
	m := map[string]float64{"ns/elem": bench.ElementTime(d, c.workers, n, max(c.cols, 1))}
	if out.transfers > 0 {
		m["transfers"] = float64(out.transfers)
	}
	if st := out.stats; st != nil {
		m["passes"] = float64(st.Passes)
		m["switches"] = float64(st.Switches)
		// With no table split the whole input reduced in one table.
		m["mean_alpha"] = float64(n) / float64(max(out.groups, 1))
		if st.TablesEmitted > 0 {
			m["mean_alpha"] = st.AlphaSum / float64(st.TablesEmitted)
		}
		if routed := st.HashedRows + st.PartitionedRows; routed > 0 {
			m["hashed_share"] = float64(st.HashedRows) / float64(routed)
		}
		for l := 0; l < st.Passes; l++ {
			m[fmt.Sprintf("pass%d_ns/elem", l)] = float64(st.LevelNanos[l]) / float64(n)
		}
	}
	return m
}

func benchFig(b *testing.B, cases []figCase) {
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			op, _ := c.setup(b, benchN)
			b.SetBytes(int64(c.rowBytes) * benchN)
			var out figOut
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out = op()
			}
			b.StopTimer()
			for unit, v := range c.metrics(out, benchN, b.Elapsed()/time.Duration(b.N)) {
				b.ReportMetric(v, unit)
			}
		})
	}
}

func smokeFig(t *testing.T, cases []figCase) {
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			op, keys := c.setup(t, smokeN)
			start := time.Now()
			out := op()
			d := time.Since(start)
			if keys != nil {
				if want := datagen.CountDistinct(keys); out.groups != want {
					t.Errorf("%d groups, want %d", out.groups, want)
				}
			}
			for unit, v := range c.metrics(out, smokeN, d) {
				if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
					t.Errorf("%s = %v", unit, v)
				}
			}
		})
	}
}

func keysAt(s datagen.Spec, n int) []uint64 {
	s.N = n
	return datagen.Generate(s)
}

func uniform(kExp int) datagen.Spec {
	return datagen.Spec{Dist: datagen.Uniform, K: 1 << kExp, Seed: 42}
}

func valueCol(n int, seed uint64) []int64 {
	rng := xrand.NewXoshiro256(seed)
	col := make([]int64, n)
	for i := range col {
		col[i] = int64(rng.Next() % 1000)
	}
	return col
}

// opCfg is the operator in the figures: p workers, the reduced cache
// budget, and statistics when the figure plots them.
func opCfg(s core.Strategy, p int, stats bool) core.Config {
	return core.Config{Strategy: s, Workers: p, CacheBytes: benchCache, CollectStats: stats}
}

func aggregateOp(tb testing.TB, cfg core.Config, in *core.Input) func() figOut {
	return func() figOut {
		res, err := core.Aggregate(cfg, in)
		if err != nil {
			tb.Fatal(err)
		}
		out := figOut{groups: res.Groups(), rows: len(in.Keys)}
		if cfg.CollectStats {
			out.stats = &res.Stats
		}
		return out
	}
}

// distinctCase times the DISTINCT query under cfg over spec's keys.
func distinctCase(name string, spec datagen.Spec, cfg core.Config) figCase {
	return figCase{name: name, workers: cfg.Workers, setup: func(tb testing.TB, n int) (func() figOut, []uint64) {
		keys := keysAt(spec, n)
		return aggregateOp(tb, cfg, &core.Input{Keys: keys}), keys
	}}
}

type namedStrategy struct {
	name string
	s    core.Strategy
}

// --- Figure 1 (empirical): the textbook algorithms and the framework on
// the cache simulator, M = 2^12 words, B = 16, at N/32 rows. ---

func fig1Cases() []figCase {
	algs := []struct {
		name string
		run  func(*cachesim.Machine, cachesim.Array) cachesim.Stats
	}{
		{"SortAggNaive", func(m *cachesim.Machine, in cachesim.Array) cachesim.Stats { return cachesim.SortAggNaive(m, in, 16) }},
		{"SortAggOpt", func(m *cachesim.Machine, in cachesim.Array) cachesim.Stats { return cachesim.SortAggOpt(m, in, 16) }},
		{"HashAggNaive", cachesim.HashAggNaive},
		{"HashAggOpt", cachesim.HashAggOpt},
		{"Framework", func(m *cachesim.Machine, in cachesim.Array) cachesim.Stats {
			return cachesim.FrameworkAgg(m, in, cachesim.FrameworkConfig{})
		}},
	}
	var cases []figCase
	for _, a := range algs {
		for _, k := range []int{6, 10, 12, 14} {
			cases = append(cases, figCase{name: fmt.Sprintf("%s/K=2^%d", a.name, k), setup: func(_ testing.TB, n int) (func() figOut, []uint64) {
				return func() figOut {
					m := cachesim.NewMachine(1<<12, 16)
					st := a.run(m, cachesim.UniformKeys(m, n/32, 1<<k, 42))
					return figOut{rows: n / 32, transfers: st.Transfers}
				}, nil
			}})
		}
	}
	return cases
}

func BenchmarkFig1CacheSim(b *testing.B) { benchFig(b, fig1Cases()) }
func TestFig1CacheSimSmoke(t *testing.T) { smokeFig(t, fig1Cases()) }

// --- Figure 3: each tuning step of the partitioning routine, on uniform
// random keys, in the paper's order: naive, software write-combining
// (swc), swc with out-of-order unrolling (oo) into the two-level output,
// and the same into over-allocated flat outputs. Every step moves 16 bytes
// per row, the key and an 8-byte payload (the key again), one row at a
// time. map is the operator's own scatter as its intake drives it: each
// block of partition.BlockRows keys is hashed with HashBatch and handed to
// partition.Scatterer, which maps the block to buffer slots once and
// applies the mapping vector to the key column and to one state column in
// turn. ---

// swcBuffers is the software write-combining step of Figure 3, one row at
// a time: a row's key and payload go to its partition's buffer of a few
// cache lines, and a full buffer moves to the partition's output in one
// bulk copy through flush.
type swcBuffers struct {
	keys, vals []uint64 // partition p buffers [p*DefaultBufRows, (p+1)*DefaultBufRows)
	n          [hashfn.Fanout]int
	flush      func(p int, keys, vals []uint64)
}

func newSWC(flush func(p int, keys, vals []uint64)) *swcBuffers {
	const size = hashfn.Fanout * partition.DefaultBufRows
	return &swcBuffers{keys: make([]uint64, size), vals: make([]uint64, size), flush: flush}
}

// add buffers one row for partition p, flushing the buffer first if full.
func (s *swcBuffers) add(p uint8, key, val uint64) {
	const rows = partition.DefaultBufRows
	l := s.n[p]
	base := int(p) * rows
	if l == rows {
		s.flush(int(p), s.keys[base:base+rows], s.vals[base:base+rows])
		l = 0
	}
	s.keys[base+l], s.vals[base+l] = key, val
	s.n[p] = l + 1
}

// drain flushes every partition's buffered rows.
func (s *swcBuffers) drain() {
	for p, l := range s.n {
		base := p * partition.DefaultBufRows
		s.flush(p, s.keys[base:base+l], s.vals[base:base+l])
		s.n[p] = 0
	}
}

// twoLevel returns a flush into the operator's two-level output: one
// chunked runs.Writer per partition.
func twoLevel() func(p int, keys, vals []uint64) {
	writers := make([]*runs.Writer, hashfn.Fanout)
	for p := range writers {
		writers[p] = runs.NewWriter(0, 1)
	}
	st := [][]uint64{nil}
	return func(p int, keys, vals []uint64) {
		st[0] = vals
		writers[p].AppendBlock(keys, st, 0, len(keys))
	}
}

// overalloc returns a flush into flat per-partition outputs, each
// allocated up front at twice its expected share of n rows.
func overalloc(n int) func(p int, keys, vals []uint64) {
	outK, outV := make([][]uint64, hashfn.Fanout), make([][]uint64, hashfn.Fanout)
	per := n/hashfn.Fanout*2 + 1024
	for p := range outK {
		outK[p], outV[p] = make([]uint64, 0, per), make([]uint64, 0, per)
	}
	return func(p int, keys, vals []uint64) {
		outK[p], outV[p] = append(outK[p], keys...), append(outV[p], vals...)
	}
}

func fig3Cases() []figCase {
	variant := func(name string, rowBytes int, mk func(keys []uint64) func()) figCase {
		return figCase{name: name, rowBytes: rowBytes, setup: func(_ testing.TB, n int) (func() figOut, []uint64) {
			run := mk(keysAt(datagen.Spec{Dist: datagen.Uniform, K: math.MaxUint64, Seed: 7}, n))
			return func() figOut { run(); return figOut{} }, nil
		}}
	}
	cases := []figCase{variant("memcpy", 16, func(keys []uint64) func() {
		dstA, dstB := make([]uint64, len(keys)), make([]uint64, len(keys))
		return func() { copy(dstA, keys); copy(dstB, keys) }
	})}
	digits := []struct {
		name string
		f    hashfn.Func
	}{{"key", hashfn.Identity}, {"hash", hashfn.Murmur2}}
	for _, h := range digits {
		cases = append(cases, variant("naive/"+h.name, 16, func(keys []uint64) func() {
			hs := make([]uint64, len(keys))
			return func() {
				for i, k := range keys {
					hs[i] = h.f(k)
				}
				partition.NaiveScatter(0, 1, hs, keys, [][]uint64{keys})
			}
		}))
	}
	// swc hashes and buffers one row at a time.
	for _, h := range digits {
		cases = append(cases, variant("swc/"+h.name, 16, func(keys []uint64) func() {
			return func() {
				s := newSWC(twoLevel())
				for _, k := range keys {
					s.add(uint8(h.f(k)>>56), k, k)
				}
				s.drain()
			}
		}))
	}
	// oo hashes 16 rows ahead of their buffering (the paper's out-of-order
	// unrolling; n is a multiple of 16). two-level is the operator's
	// output structure, overalloc the flat outputs it replaces.
	unrolled := func(keys []uint64, s *swcBuffers) {
		var digits [16]uint8
		for i := 0; i+16 <= len(keys); i += 16 {
			for j := range digits {
				digits[j] = uint8(hashfn.Murmur2(keys[i+j]) >> 56)
			}
			for j, p := range digits {
				s.add(p, keys[i+j], keys[i+j])
			}
		}
		s.drain()
	}
	return append(cases,
		variant("swc+oo/two-level", 16, func(keys []uint64) func() {
			return func() { unrolled(keys, newSWC(twoLevel())) }
		}),
		variant("swc+oo/overalloc", 16, func(keys []uint64) func() {
			return func() { unrolled(keys, newSWC(overalloc(len(keys)))) }
		}),
		variant("map", 16, func(keys []uint64) func() {
			hs := make([]uint64, partition.BlockRows)
			return func() {
				s := partition.New(partition.Config{Level: 0, Words: 1})
				st := [][]uint64{nil}
				for i := 0; i < len(keys); i += partition.BlockRows {
					blk := keys[i:min(len(keys), i+partition.BlockRows)]
					hashfn.HashBatch(blk, hs[:len(blk)])
					st[0] = blk
					s.Scatter(hs[:len(blk)], blk, st)
				}
				s.Flush()
			}
		}),
	)
}

func BenchmarkFig3Partitioning(b *testing.B) { benchFig(b, fig3Cases()) }
func TestFig3PartitioningSmoke(t *testing.T) { smokeFig(t, fig3Cases()) }

// --- Figures 4 and 5: the illustrative strategies and ADAPTIVE over K, on
// uniform keys, with the per-pass breakdown of Figure 4. ---

func fig4And5Cases() []figCase {
	p := runtime.GOMAXPROCS(0)
	var cases []figCase
	for _, s := range []namedStrategy{
		{"HashingOnly", core.HashingOnly()},
		{"PartitionAlways1", core.PartitionAlways(1)},
		{"PartitionAlways2", core.PartitionAlways(2)},
		{"Adaptive", core.DefaultAdaptive()},
	} {
		for _, k := range kSweep {
			cases = append(cases, distinctCase(fmt.Sprintf("%s/K=2^%d", s.name, k), uniform(k), opCfg(s.s, p, true)))
		}
	}
	return cases
}

func BenchmarkFig4And5Strategies(b *testing.B) { benchFig(b, fig4And5Cases()) }
func TestFig4And5StrategiesSmoke(t *testing.T) { smokeFig(t, fig4And5Cases()) }

// TestFig4OnePass pins Figure 4(a)'s one pass: HASHINGONLY and ADAPTIVE
// over K below the fill limit of the cache-sized table make one pass that
// splits no table, switches never and emits the intake table directly;
// above the limit they recurse. Four morsels, so two workers both take
// rows.
func TestFig4OnePass(t *testing.T) {
	const n = 4 * sched.DefaultGrain
	limit := int(float64(hashtable.CapacityForCache(benchCache, 0)) * hashtable.DefaultMaxFill)
	for _, s := range []namedStrategy{{"HashingOnly", core.HashingOnly()}, {"Adaptive", core.DefaultAdaptive()}} {
		for _, w := range []int{1, 2} {
			for _, k := range []int{8, 10, 12, 14, 16} {
				res, err := core.Distinct(opCfg(s.s, w, true), keysAt(uniform(k), n))
				if err != nil {
					t.Fatal(err)
				}
				st := res.Stats
				label := fmt.Sprintf("%s/w%d/K=2^%d (%d groups, limit %d)", s.name, w, k, res.Groups(), limit)
				if res.Groups() < limit {
					if st.Passes != 1 || st.TablesEmitted != 0 || st.Switches != 0 || st.DirectEmits != 1 {
						t.Errorf("%s: passes %d, tables emitted %d, switches %d, direct emits %d; want 1, 0, 0, 1",
							label, st.Passes, st.TablesEmitted, st.Switches, st.DirectEmits)
					}
				} else if st.Passes < 2 {
					t.Errorf("%s: %d passes, want at least 2", label, st.Passes)
				}
			}
		}
	}
}

// --- Figure 6: worker scaling. Element Time is per core, so a flat
// ns/elem over P is linear speedup. ---

func fig6Cases() []figCase {
	var cases []figCase
	for _, p := range []int{1, 2, 4} {
		for _, k := range []int{10, 16, 18} {
			cases = append(cases, distinctCase(fmt.Sprintf("P=%d/K=2^%d", p, k), uniform(k), opCfg(core.DefaultAdaptive(), p, false)))
		}
	}
	return cases
}

func BenchmarkFig6Speedup(b *testing.B) { benchFig(b, fig6Cases()) }
func TestFig6SpeedupSmoke(t *testing.T) { smokeFig(t, fig6Cases()) }

// --- Section 6.2: ADAPTIVE beside one co-runner goroutine per worker that
// either loops over a cache-resident buffer or copies out-of-cache ones.
// The paper finds the first harmless and the second up to 2× slower. The
// co-runners yield after every sweep, as a time-sliced thread would: Go
// preempts a running goroutine only every 10 ms, so a co-runner that never
// yields holds its P that long each time an operator worker wakes. ---

func interferenceCases() []figCase {
	p := runtime.GOMAXPROCS(0)
	var cases []figCase
	for _, co := range []struct {
		name string
		run  func(n int, stop *atomic.Bool)
	}{
		{"none", nil},
		{"cache-resident", func(_ int, stop *atomic.Bool) {
			buf := make([]uint64, 32768) // 256 KiB
			for s := uint64(0); !stop.Load(); buf[0] = s {
				for _, v := range buf {
					s += v
				}
				runtime.Gosched()
			}
		}},
		{"memcpy", func(n int, stop *atomic.Bool) {
			src, dst := make([]uint64, 4*n), make([]uint64, 4*n) // 32 MiB each at N = 2^20
			for !stop.Load() {
				copy(dst, src)
				runtime.Gosched()
			}
		}},
	} {
		for _, k := range []int{10, 18} {
			c := distinctCase(fmt.Sprintf("%s/K=2^%d", co.name, k), uniform(k), opCfg(core.DefaultAdaptive(), p, false))
			if co.run != nil {
				setup := c.setup
				c.setup = func(tb testing.TB, n int) (func() figOut, []uint64) {
					var stop atomic.Bool
					var wg sync.WaitGroup
					for d := 0; d < p; d++ {
						wg.Add(1)
						go func() {
							defer wg.Done()
							co.run(n, &stop)
						}()
					}
					tb.Cleanup(func() {
						stop.Store(true)
						wg.Wait()
					})
					return setup(tb, n)
				}
			}
			cases = append(cases, c)
		}
	}
	return cases
}

func BenchmarkFig6Interference(b *testing.B) { benchFig(b, interferenceCases()) }
func TestFig6InterferenceSmoke(t *testing.T) { smokeFig(t, interferenceCases()) }

// --- Figure 7: SUM columns added to the query. C counts the grouping
// column too; Figure 7 alone runs at N/4 rows, as the paper does, to
// offset the memory of its extra columns. ---

func fig7Cases() []figCase {
	p := runtime.GOMAXPROCS(0)
	var cases []figCase
	for _, nc := range []int{0, 1, 2, 4, 8} {
		for _, k := range []int{10, 16} {
			cases = append(cases, figCase{name: fmt.Sprintf("C=%d/K=2^%d", nc+1, k), workers: p, cols: nc + 1,
				setup: func(tb testing.TB, n int) (func() figOut, []uint64) {
					in := &core.Input{Keys: keysAt(uniform(k), n/4)}
					for c := 0; c < nc; c++ {
						in.AggCols = append(in.AggCols, valueCol(n/4, uint64(c)))
						in.Specs = append(in.Specs, agg.Spec{Kind: agg.Sum, Col: c})
					}
					return aggregateOp(tb, opCfg(core.DefaultAdaptive(), p, false), in), in.Keys
				}})
		}
	}
	return cases
}

func BenchmarkFig7Columns(b *testing.B) { benchFig(b, fig7Cases()) }
func TestFig7ColumnsSmoke(t *testing.T) { smokeFig(t, fig7Cases()) }

// --- Figure 8: prior work vs ADAPTIVE on the DISTINCT query, all on the
// same P workers. Every baseline is told the true K, the optimizer
// estimate it relies on; ADAPTIVE gets none. ---

func fig8Cases() []figCase {
	p := runtime.GOMAXPROCS(0)
	var cases []figCase
	for _, k := range kSweep {
		for _, alg := range baselines.All() {
			cases = append(cases, figCase{name: fmt.Sprintf("%s/K=2^%d", alg.Name(), k), workers: p,
				setup: func(_ testing.TB, n int) (func() figOut, []uint64) {
					keys := keysAt(uniform(k), n)
					cfg := baselines.Config{Workers: p, CacheBytes: benchCache, EstimatedGroups: datagen.CountDistinct(keys)}
					return func() figOut { return figOut{groups: alg.Run(keys, cfg).Groups()} }, keys
				}})
		}
		cases = append(cases, distinctCase(fmt.Sprintf("ADAPTIVE/K=2^%d", k), uniform(k), opCfg(core.DefaultAdaptive(), p, false)))
	}
	return cases
}

func BenchmarkFig8Baselines(b *testing.B) { benchFig(b, fig8Cases()) }
func TestFig8BaselinesSmoke(t *testing.T) { smokeFig(t, fig8Cases()) }

// --- Figure 9: ADAPTIVE on every distribution. hashed_share > 0.5 is the
// paper's solid marker: hashing handled most rows. ---

func fig9Cases() []figCase {
	p := runtime.GOMAXPROCS(0)
	var cases []figCase
	for _, dist := range datagen.Dists() {
		for _, k := range kSweep {
			spec := datagen.Spec{Dist: dist, K: 1 << k, Seed: 42}
			cases = append(cases, distinctCase(fmt.Sprintf("%s/K=2^%d", dist, k), spec, opCfg(core.DefaultAdaptive(), p, true)))
		}
	}
	return cases
}

func BenchmarkFig9Skew(b *testing.B) { benchFig(b, fig9Cases()) }
func TestFig9SkewSmoke(t *testing.T) { smokeFig(t, fig9Cases()) }

// --- Figure 10 (Appendix A.1): the two pure strategies across locality
// sweeps of three families at K = N/4; their crossover in mean_alpha
// locates α₀. ---

func fig10Cases() []figCase {
	p := runtime.GOMAXPROCS(0)
	const k = benchN / 4
	type input struct {
		name string
		spec datagen.Spec
	}
	var inputs []input
	for _, w := range []uint64{64, 256, 1024, 4096, 16384, 65536, k} {
		inputs = append(inputs, input{fmt.Sprintf("moving-cluster/window=%d", w),
			datagen.Spec{Dist: datagen.MovingCluster, K: k, Window: w, Seed: 42}})
	}
	for _, h := range []float64{0.05, 0.1, 0.2, 0.3, 0.4, 0.5} {
		inputs = append(inputs, input{fmt.Sprintf("self-similar/h=%g", h),
			datagen.Spec{Dist: datagen.SelfSimilar, K: k, H: h, Seed: 42}})
	}
	for _, f := range []float64{0.95, 0.9, 0.75, 0.5, 0.25, 0.1} {
		inputs = append(inputs, input{fmt.Sprintf("heavy-hitter/frac=%g", f),
			datagen.Spec{Dist: datagen.HeavyHitter, K: k, HitFraction: f, Seed: 42}})
	}
	var cases []figCase
	for _, in := range inputs {
		for _, s := range []namedStrategy{{"HashingOnly", core.HashingOnly()}, {"PartitionOnly", core.PartitionOnly()}} {
			cases = append(cases, distinctCase(in.name+"/"+s.name, in.spec, opCfg(s.s, p, true)))
		}
	}
	return cases
}

func BenchmarkFig10Locality(b *testing.B) { benchFig(b, fig10Cases()) }
func TestFig10LocalitySmoke(t *testing.T) { smokeFig(t, fig10Cases()) }

// --- Figure 11 (Appendix A.2): the amortization constant c. c = 0 routes
// rows exactly as HashingOnly does. ---

func fig11Cases() []figCase {
	p := runtime.GOMAXPROCS(0)
	var cases []figCase
	for _, c := range []int{0, 1, 2, 5, 10, 20, 50} {
		for _, k := range []int{10, 16, 19} {
			cases = append(cases, distinctCase(fmt.Sprintf("c=%d/K=2^%d", c, k), uniform(k), opCfg(core.Adaptive(core.DefaultAlpha0, c), p, false)))
		}
	}
	return cases
}

func BenchmarkFig11C(b *testing.B) { benchFig(b, fig11Cases()) }
func TestFig11CSmoke(t *testing.T) { smokeFig(t, fig11Cases()) }

// --- Section 4.1: insertion into a cache-sized table through the batch
// insert at width 0, in blocks of the operator's intake size; ns/elem is
// the cost of one insert. A block that stops short resets the table and
// goes on from the first row it did not take. ---

func insertCases() []figCase {
	kern := agg.NewLayout(nil).Kernels()
	var cases []figCase
	for _, k := range []int{6, 10, 14} {
		cases = append(cases, figCase{name: fmt.Sprintf("K=2^%d", k), setup: func(_ testing.TB, n int) (func() figOut, []uint64) {
			hs := make([]uint64, n)
			hashfn.HashBatch(keysAt(uniform(k), n), hs)
			ht := hashtable.New(hashtable.Config{
				CapacityRows: hashtable.CapacityForCache(benchCache, 0),
				Blocks:       hashfn.Fanout,
			})
			return func() figOut {
				ht.Reset()
				for i := 0; i < n; {
					hi := min(n, i+partition.BlockRows)
					if i += ht.InsertStateBatch(hs[i:hi], nil, nil, i, kern); i < hi {
						ht.Reset()
					}
				}
				return figOut{}
			}, nil
		}})
	}
	return cases
}

func BenchmarkHashTableInsert(b *testing.B) { benchFig(b, insertCases()) }
func TestHashTableInsertSmoke(t *testing.T) { smokeFig(t, insertCases()) }

// --- Duality table: classic sort-based aggregation vs the operator, all
// on one worker. ---

func sortDualCases() []figCase {
	var cases []figCase
	for _, in := range []struct {
		name string
		spec datagen.Spec
	}{
		{"uniform/K=2^10", uniform(10)},
		{"uniform/K=2^19", uniform(19)},
		{"sorted/K=2^18", datagen.Spec{Dist: datagen.Sorted, K: 1 << 18, Seed: 42}},
		{"heavy-hitter/K=2^18", datagen.Spec{Dist: datagen.HeavyHitter, K: 1 << 18, Seed: 42}},
	} {
		for _, alg := range []struct {
			name string
			run  func([]uint64) *sortagg.Result
		}{
			{"SortAgg", sortagg.SortAggregate},
			{"MergeAgg", func(keys []uint64) *sortagg.Result { return sortagg.MergeAggregate(keys, 0) }},
			{"RadixAgg", sortagg.RadixAggregate},
		} {
			cases = append(cases, figCase{name: in.name + "/" + alg.name, setup: func(_ testing.TB, n int) (func() figOut, []uint64) {
				keys := keysAt(in.spec, n)
				return func() figOut { return figOut{groups: alg.run(keys).Groups()} }, keys
			}})
		}
		cases = append(cases, distinctCase(in.name+"/ADAPTIVE", in.spec, opCfg(core.DefaultAdaptive(), 1, false)))
	}
	return cases
}

func BenchmarkTblSortDual(b *testing.B) { benchFig(b, sortDualCases()) }
func TestTblSortDualSmoke(t *testing.T) { smokeFig(t, sortDualCases()) }

// --- Section 3.3: the three column-processing models of SUM GROUP BY. ---

func columnarCases() []figCase {
	var cases []figCase
	for _, k := range []int{8, 14, 18} {
		for _, model := range []struct {
			name string
			run  func([]uint64, []int64) ([]uint64, []int64)
		}{
			{"row-at-a-time", columnar.SumRowAtATime},
			{"column-at-a-time", columnar.SumColumnAtATime},
			{"block-wise", func(keys []uint64, vals []int64) ([]uint64, []int64) { return columnar.SumBlockWise(keys, vals, 0) }},
		} {
			cases = append(cases, figCase{name: fmt.Sprintf("K=2^%d/%s", k, model.name), cols: 2, setup: func(_ testing.TB, n int) (func() figOut, []uint64) {
				keys, vals := keysAt(uniform(k), n), valueCol(n, 21)
				return func() figOut {
					groups, _ := model.run(keys, vals)
					return figOut{groups: len(groups)}
				}, keys
			}})
		}
	}
	return cases
}

func BenchmarkTblColumnar(b *testing.B) { benchFig(b, columnarCases()) }
func TestTblColumnarSmoke(t *testing.T) { smokeFig(t, columnarCases()) }

// --- Ablation: hash storage in runs. The paper's runs hold only keys and
// recompute the hash every pass; carrying it beside the key trades ~1 ns of
// MurmurHash2 per row per pass against 8 bytes of memory traffic per row
// per pass in each direction. Murmur2 on a uint64 is a bijection, so the
// hash can also replace the key. The ablation replays one recursion pass
// at layer level: scatter the rows by their level-0 digit into runs, then
// merge each partition's runs into a level-1 table, which compares hashes
// only. recompute runs hold keys and re-hash them at the merge; carry runs
// hold keys and the hash as one more column, and merge through it; hashkey
// runs hold the hash in the key column, the operator's layout, and merge
// with no re-hash. ---

// hashLayouts are the run layouts of the hash-storage ablation.
var hashLayouts = []string{"recompute", "carry", "hashkey"}

func ablationCases() []figCase {
	var cases []figCase
	for _, k := range []int{10, 16, 19} {
		for _, layout := range hashLayouts {
			cases = append(cases, figCase{name: fmt.Sprintf("%s/K=2^%d", layout, k),
				setup: func(tb testing.TB, n int) (func() figOut, []uint64) {
					keys := keysAt(uniform(k), n)
					return hashStoragePass(tb, keys, layout), keys
				}})
		}
	}
	return cases
}

// hashStoragePass returns one recursion pass over keys in the named run
// layout, reporting the groups the level-1 tables found.
func hashStoragePass(tb testing.TB, keys []uint64, layout string) func() figOut {
	hs := make([]uint64, len(keys))
	hashfn.HashBatch(keys, hs)
	var states [][]uint64 // the run columns beside the key
	col := keys           // the run's key column
	switch layout {
	case "carry":
		states = [][]uint64{hs}
	case "hashkey":
		col = hs
	}
	free := &runs.Free{}
	scat := partition.New(partition.Config{Words: len(states), Free: free})
	// Room for twice an average partition's rows at the table's fill limit.
	table := hashtable.New(hashtable.Config{
		CapacityRows: 8*len(keys)/hashfn.Fanout + 1024,
		Blocks:       1,
		MaxFill:      0.5,
		Level:        1,
	})
	kern := agg.NewLayout(nil).Kernels()
	scratch := make([]uint64, runs.DefaultChunkRows)
	return func() figOut {
		scat.Reset(0)
		scat.Scatter(hs, col, states)
		groups := 0
		for _, part := range scat.Seal() {
			for _, r := range part {
				var h []uint64
				switch layout {
				case "recompute":
					h = scratch[:r.Len()]
					hashfn.HashBatch(r.Keys, h)
				case "carry":
					h = r.States[0]
				case "hashkey":
					h = r.Keys
				}
				if m := table.InsertStateBatch(h, nil, nil, 0, kern); m < r.Len() {
					tb.Fatalf("level-1 table full after %d of %d rows", m, r.Len())
				}
				free.Recycle(r)
			}
			groups += table.Len()
			table.Reset()
		}
		return figOut{groups: groups}
	}
}

func BenchmarkAblationHashStorage(b *testing.B) { benchFig(b, ablationCases()) }
func TestAblationHashStorageSmoke(t *testing.T) { smokeFig(t, ablationCases()) }

// --- End-to-end: the public API, as a library consumer would call it. ---

func BenchmarkAggregateEndToEnd(b *testing.B) {
	keys := benchKeys(b, datagen.Zipf, 1<<16)
	vals := make([]int64, benchN)
	rng := xrand.NewXoshiro256(2)
	for i := range vals {
		vals[i] = int64(rng.Next() % 1000)
	}
	in := Input{
		GroupBy: keys,
		Columns: [][]int64{vals},
		Aggregates: []AggSpec{
			{Func: Count}, {Func: Sum, Col: 0}, {Func: Avg, Col: 0},
		},
	}
	b.SetBytes(benchN * 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Aggregate(in, Options{CacheBytes: benchCache}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAggregateGeneral is AggregateGeneral at batch_strings' shape:
// 2^16 rows, a zipf string column over 2^13 URLs beside a nullable uint64
// tag, the benchmark's four aggregates. private builds no dictionary;
// shared_warm encodes into a shared Interner that already holds every key.
func BenchmarkAggregateGeneral(b *testing.B) {
	const n = 1 << 16
	spec := datagen.Spec{Dist: datagen.Zipf, N: n, K: 1 << 13, Seed: 1}
	rng := xrand.NewXoshiro256(18)
	tags := make([]uint64, n)
	vals := [][]int64{make([]int64, n), make([]int64, n)}
	for i := range tags {
		r := rng.Next()
		tags[i] = r % 16
		vals[0][i] = int64(r>>8) % 1000
		vals[1][i] = int64((r>>32)%4096) - 2048
	}
	in := GeneralInput{
		GroupBy: []KeyColumn{
			{Strings: datagen.GenerateStrings(spec)},
			{Uint64s: tags, Nulls: datagen.NullMask(n, 0.05, 24)},
		},
		Columns: vals,
		Aggregates: []AggSpec{
			{Func: Count}, {Func: Sum, Col: 0}, {Func: Min, Col: 1}, {Func: Avg, Col: 1},
		},
	}
	shared := NewInterner()
	if _, err := AggregateGeneral(in, Options{Interner: shared}); err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		opt  Options
	}{
		{"private", Options{}},
		{"shared_warm", Options{Interner: shared}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := AggregateGeneral(in, bc.opt); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/row")
		})
	}
}
