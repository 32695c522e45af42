package hashtable

// Sweep of the full HASHING drain loop at N=2^20, as the engine runs it:
// HashBatch a block, InsertRawBatch it, and SplitRuns whenever the table
// stops short:
//
//	go test -run '^$' -bench Hashing -count 10 ./internal/hashtable

import (
	"fmt"
	"testing"

	"cacheagg/internal/agg"
	"cacheagg/internal/datagen"
	"cacheagg/internal/hashfn"
	"cacheagg/internal/xrand"
)

const (
	hotN     = 1 << 20
	hotCache = 1 << 20
)

func hotBenchTable(words int) *Table {
	return New(Config{
		CapacityRows: CapacityForCache(hotCache, words),
		Blocks:       hashfn.Fanout,
		Words:        words,
	})
}

// BenchmarkHashingDrainBatched is the engine's batched drain loop.
func BenchmarkHashingDrainBatched(b *testing.B) {
	lay := agg.NewLayout([]agg.Spec{{Kind: agg.Sum, Col: 0}})
	kern := lay.Kernels()
	cols := hotVals()
	hs := make([]uint64, 4096)
	for _, kExp := range []int{8, 14, 19} {
		keys := datagen.Generate(datagen.Spec{Dist: datagen.Uniform, N: hotN, K: 1 << uint(kExp), Seed: 42})
		b.Run(fmt.Sprintf("K=2^%d", kExp), func(b *testing.B) {
			tb := hotBenchTable(lay.Words)
			b.SetBytes(hotN * 16)
			b.ReportAllocs()
			b.ResetTimer()
			for it := 0; it < b.N; it++ {
				tb.Reset()
				for i := 0; i < len(keys); {
					blk := len(keys) - i
					if blk > len(hs) {
						blk = len(hs)
					}
					hashfn.HashBatch(keys[i:i+blk], hs[:blk])
					done := 0
					for done < blk {
						n := tb.InsertRawBatch(hs[done:blk], keys[i+done:i+blk], cols, i+done, kern)
						done += n
						if done < blk {
							tb.SplitRuns()
						}
					}
					i += blk
				}
			}
		})
	}
}

func hotVals() [][]int64 {
	rng := xrand.NewXoshiro256(7)
	vals := make([]int64, hotN)
	for i := range vals {
		vals[i] = int64(rng.Next() % 1000)
	}
	return [][]int64{vals}
}

// BenchmarkEmitColumns is the emit of a cache-sized table at 12.5, 25 and
// 50 % of its slots occupied: the occupancy scan, the gathers of the hash
// and state columns, and the key recovery, per group emitted:
//
//	go test -run '^$' -bench EmitColumns ./internal/hashtable
func BenchmarkEmitColumns(b *testing.B) {
	lay := agg.NewLayout([]agg.Spec{{Kind: agg.Sum, Col: 0}})
	kern := lay.Kernels()
	capRows := CapacityForCache(hotCache, lay.Words)
	for _, pct := range []float64{12.5, 25, 50} {
		tb := New(Config{CapacityRows: capRows, Blocks: hashfn.Fanout, Words: lay.Words, MaxFill: 0.5})
		groups := int(float64(capRows) * pct / 100)
		keys := make([]uint64, groups)
		for i := range keys {
			keys[i] = uint64(i)
		}
		hs := make([]uint64, groups)
		hashfn.HashBatch(keys, hs)
		if m := tb.InsertRawBatch(hs, keys, [][]int64{make([]int64, groups)}, 0, kern); m != groups {
			b.Fatalf("table took %d of %d groups", m, groups)
		}
		outK, outS := make([]uint64, groups), [][]uint64{make([]uint64, groups)}
		b.Run(fmt.Sprintf("occupancy=%g%%", pct), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tb.EmitColumns(hs, outK, outS)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(groups), "ns/group")
		})
	}
}
