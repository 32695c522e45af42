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
