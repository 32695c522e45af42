package hashtable

// Scalar-vs-batched sweeps of the full HASHING drain loop at N=2^20:
// hash every row, insert, split on full, repeat. The scalar variant is the
// reference oracle end to end — per-row Murmur2, per-row InsertRawCols, and
// the row-at-a-time splitRunsSlow compaction (the pre-batching SplitRuns).
// The batched variant is what the engine runs: HashBatch, InsertRawBatch,
// and the arena-allocating SplitRuns. The differential tests prove the two
// produce bit-identical runs, so the comparison is purely about speed:
//
//	go test -run xxx -bench Hashing -count 10 ./internal/hashtable > out.txt
//	benchstat -col /path out.txt

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

// BenchmarkHashingDrainScalar is the reference-oracle drain loop.
func BenchmarkHashingDrainScalar(b *testing.B) {
	lay := agg.NewLayout([]agg.Spec{{Kind: agg.Sum, Col: 0}})
	ops := lay.WordOps()
	cols := hotVals()
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
					h := hashfn.Murmur2(keys[i])
					if !tb.InsertRawCols(h, cols, i, ops) {
						tb.splitRunsSlow()
						continue
					}
					i++
				}
			}
		})
	}
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
