package cacheagg

// One testing.B benchmark per table and figure of the paper. These are the
// Go-native counterparts of the cmd/aggbench subcommands: `aggbench`
// prints full sweeps in the paper's units, while `go test -bench=.`
// integrates with standard Go tooling (benchstat, -benchmem, CI).
//
// Scale: N = 2^20 rows per iteration by default — large enough that the
// recursion of the operator engages with the reduced cache budget below,
// small enough that the full suite runs in minutes. The cache budget is
// 1 MiB per worker so tables fill and strategies diverge at this N.

import (
	"fmt"
	"testing"

	"cacheagg/internal/baselines"
	"cacheagg/internal/cachesim"
	"cacheagg/internal/core"
	"cacheagg/internal/datagen"
	"cacheagg/internal/emm"
	"cacheagg/internal/hashfn"
	"cacheagg/internal/hashtable"
	"cacheagg/internal/partition"
	"cacheagg/internal/xrand"
)

const (
	benchN     = 1 << 20
	benchCache = 1 << 20
)

func benchKeys(b *testing.B, dist datagen.Dist, k uint64) []uint64 {
	b.Helper()
	return datagen.Generate(datagen.Spec{Dist: dist, N: benchN, K: k, Seed: 42})
}

func coreCfg(s core.Strategy) core.Config {
	return core.Config{Strategy: s, CacheBytes: benchCache}
}

func runDistinct(b *testing.B, cfg core.Config, keys []uint64) {
	b.Helper()
	b.SetBytes(int64(len(keys)) * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Distinct(cfg, keys); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 1: the cost model itself (cheap) and the cache simulator. ---

func BenchmarkFig1CostModel(b *testing.B) {
	p := emm.FigureParams()
	for i := 0; i < b.N; i++ {
		if rows := emm.Figure1(p); len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkFig1CacheSim(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := cachesim.NewMachine(1<<12, 16)
		in := cachesim.UniformKeys(m, 1<<14, 1<<10, 42)
		if st := cachesim.HashAggOpt(m, in); st.Groups == 0 {
			b.Fatal("no groups")
		}
	}
}

// --- Figure 3: partitioning micro-benchmarks. ---

func BenchmarkFig3PartitionNaive(b *testing.B) {
	keys := benchKeys(b, datagen.Uniform, 1<<30)
	b.SetBytes(benchN * 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hashes := make([]uint64, len(keys))
		for j, k := range keys {
			hashes[j] = hashfn.Murmur2(k)
		}
		partition.NaiveScatter(0, 0, hashes, keys, nil)
	}
}

func BenchmarkFig3PartitionSWC(b *testing.B) {
	keys := benchKeys(b, datagen.Uniform, 1<<30)
	var scratch [16]uint64
	b.SetBytes(benchN * 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := partition.New(partition.Config{Level: 0})
		j := 0
		for ; j+16 <= len(keys); j += 16 {
			for x := 0; x < 16; x++ {
				scratch[x] = hashfn.Murmur2(keys[j+x])
			}
			s.Scatter(scratch[:], keys[j:j+16], nil)
		}
		for ; j < len(keys); j++ {
			s.Add(hashfn.Murmur2(keys[j]), keys[j], nil)
		}
		s.Flush()
	}
}

// --- Figures 4 and 5: strategies over small/large K. ---

func benchStrategies() map[string]core.Strategy {
	return map[string]core.Strategy{
		"HashingOnly":     core.HashingOnly(),
		"PartitionAlways": core.PartitionAlways(1),
		"Adaptive":        core.DefaultAdaptive(),
	}
}

func BenchmarkFig4And5Strategies(b *testing.B) {
	for name, s := range benchStrategies() {
		for _, kExp := range []int{8, 14, 19} {
			keys := benchKeys(b, datagen.Uniform, 1<<uint(kExp))
			b.Run(fmt.Sprintf("%s/K=2^%d", name, kExp), func(b *testing.B) {
				runDistinct(b, coreCfg(s), keys)
			})
		}
	}
}

// --- Figure 6: worker scaling. ---

func BenchmarkFig6Speedup(b *testing.B) {
	keys := benchKeys(b, datagen.Uniform, 1<<16)
	for _, p := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			cfg := coreCfg(core.DefaultAdaptive())
			cfg.Workers = p
			runDistinct(b, cfg, keys)
		})
	}
}

// --- Figure 7: aggregate-column scaling. ---

func BenchmarkFig7Columns(b *testing.B) {
	keys := benchKeys(b, datagen.Uniform, 1<<14)
	rng := xrand.NewXoshiro256(5)
	maxCols := 4
	cols := make([][]int64, maxCols)
	for c := range cols {
		cols[c] = make([]int64, benchN)
		for i := range cols[c] {
			cols[c][i] = int64(rng.Next() % 1000)
		}
	}
	for _, nc := range []int{0, 1, 2, 4} {
		b.Run(fmt.Sprintf("C=%d", nc+1), func(b *testing.B) {
			in := Input{GroupBy: keys, Columns: cols[:nc]}
			for c := 0; c < nc; c++ {
				in.Aggregates = append(in.Aggregates, AggSpec{Func: Sum, Col: c})
			}
			opt := Options{CacheBytes: benchCache}
			b.SetBytes(int64(benchN) * 8 * int64(nc+1))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Aggregate(in, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Figure 8: prior work vs Adaptive. ---

func BenchmarkFig8Baselines(b *testing.B) {
	for _, kExp := range []int{10, 19} {
		keys := benchKeys(b, datagen.Uniform, 1<<uint(kExp))
		k := datagen.CountDistinct(keys)
		for _, alg := range baselines.All() {
			b.Run(fmt.Sprintf("%s/K=2^%d", alg.Name(), kExp), func(b *testing.B) {
				cfg := baselines.Config{CacheBytes: benchCache, EstimatedGroups: k}
				b.SetBytes(benchN * 8)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					alg.Run(keys, cfg)
				}
			})
		}
		b.Run(fmt.Sprintf("ADAPTIVE/K=2^%d", kExp), func(b *testing.B) {
			runDistinct(b, coreCfg(core.DefaultAdaptive()), keys)
		})
	}
}

// --- Figure 9: skew resistance. ---

func BenchmarkFig9Skew(b *testing.B) {
	for _, dist := range datagen.Dists() {
		keys := benchKeys(b, dist, 1<<16)
		b.Run(dist.String(), func(b *testing.B) {
			runDistinct(b, coreCfg(core.DefaultAdaptive()), keys)
		})
	}
}

// --- Figure 10: the two pure strategies across locality. ---

func BenchmarkFig10Locality(b *testing.B) {
	for _, w := range []uint64{256, 65536} {
		keys := datagen.Generate(datagen.Spec{
			Dist: datagen.MovingCluster, N: benchN, K: benchN / 4, Window: w, Seed: 42,
		})
		for name, s := range map[string]core.Strategy{
			"HashingOnly": core.HashingOnly(), "PartitionOnly": core.PartitionOnly(),
		} {
			b.Run(fmt.Sprintf("%s/window=%d", name, w), func(b *testing.B) {
				runDistinct(b, coreCfg(s), keys)
			})
		}
	}
}

// --- Figure 11: the amortization constant c. ---

func BenchmarkFig11C(b *testing.B) {
	keys := benchKeys(b, datagen.Uniform, 1<<18)
	for _, c := range []int{1, 10, 50} {
		b.Run(fmt.Sprintf("c=%d", c), func(b *testing.B) {
			runDistinct(b, coreCfg(core.Adaptive(core.DefaultAlpha0, c)), keys)
		})
	}
}

// --- Section 4.1 table: hash insertion cost. ---

func BenchmarkHashTableInsert(b *testing.B) {
	tb := hashtable.New(hashtable.Config{
		CapacityRows: hashtable.CapacityForCache(benchCache, 0),
		Blocks:       hashfn.Fanout,
	})
	rng := xrand.NewXoshiro256(1)
	keys := make([]uint64, 1<<16)
	hs := make([]uint64, len(keys))
	for i := range keys {
		keys[i] = rng.Uint64n(1 << 12)
		hs[i] = hashfn.Murmur2(keys[i])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i & (len(keys) - 1)
		if !tb.InsertState(hs[j], keys[j], nil, nil) {
			tb.Reset()
		}
	}
}

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

// --- Ablation: hash storage (DESIGN.md design-choice bench). ---
// The paper's runs hold only keys; hashes are recomputed every pass.
// Carrying the hash trades ~1 ns of MurmurHash2 per row per pass against
// 8 bytes of extra memory traffic per row per pass in each direction.
func BenchmarkAblationHashStorage(b *testing.B) {
	keys := benchKeys(b, datagen.Uniform, 1<<19)
	for _, carry := range []bool{false, true} {
		name := "recompute"
		if carry {
			name = "carry"
		}
		b.Run(name, func(b *testing.B) {
			cfg := coreCfg(core.DefaultAdaptive())
			cfg.CarryHashes = carry
			runDistinct(b, cfg, keys)
		})
	}
}

// --- Figure 1 addendum: the framework itself on the cache simulator. ---

func BenchmarkFig1FrameworkSim(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := cachesim.NewMachine(1<<12, 16)
		in := cachesim.UniformKeys(m, 1<<14, 1<<10, 42)
		if st := cachesim.FrameworkAgg(m, in, cachesim.FrameworkConfig{}); st.Groups == 0 {
			b.Fatal("no groups")
		}
	}
}
