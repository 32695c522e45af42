package cacheagg

// Hot-path kernel sweeps over uniform keys at N=2^20: the aggregation
// inner loops as the engine runs them (HashBatch + InsertRawBatch /
// InsertStateBatch), and for hashing and folding also their row-at-a-time
// reference (Murmur2 per row, Op.Apply per row) beside the batch kernel:
//
//	go test -run '^$' -bench Hashing -count 10 .
//
// prints ten lines per sub-benchmark; compare the median of the scalar
// lines with the median of the batched lines of the same sweep.

import (
	"fmt"
	"testing"

	"cacheagg/internal/agg"
	"cacheagg/internal/core"
	"cacheagg/internal/datagen"
	"cacheagg/internal/hashfn"
	"cacheagg/internal/hashtable"
	"cacheagg/internal/xrand"
)

// hotKs is the uniform-K sweep of the hashing benchmarks: in-cache table
// (2^8), around the fill limit (2^14), and far beyond it (2^19).
var hotKs = []int{8, 14, 19}

func hotTable(words int) *hashtable.Table {
	return hashtable.New(hashtable.Config{
		CapacityRows: hashtable.CapacityForCache(benchCache, words),
		Blocks:       hashfn.Fanout,
		Words:        words,
	})
}

// drainInsertBatched runs the batched intake loop: morsel-wide hashing,
// then software-pipelined batch inserts.
func drainInsertBatched(tb *hashtable.Table, keys []uint64, cols [][]int64, kern *agg.Kernels, hs []uint64) int {
	splits := 0
	for i := 0; i < len(keys); {
		blk := min(len(keys)-i, len(hs))
		hashfn.HashBatch(keys[i:i+blk], hs[:blk])
		done := 0
		for done < blk {
			n := tb.InsertRawBatch(hs[done:blk], keys[i+done:i+blk], cols, i+done, kern)
			done += n
			if done < blk {
				tb.SplitRuns()
				splits++
			}
		}
		i += blk
	}
	return splits
}

// BenchmarkHashingInsert sweeps the HASHING routine's insert loop — the
// single hottest loop of the operator — over K.
func BenchmarkHashingInsert(b *testing.B) {
	lay := agg.NewLayout([]agg.Spec{{Kind: agg.Sum, Col: 0}})
	kern := lay.Kernels()
	rng := xrand.NewXoshiro256(7)
	vals := make([]int64, benchN)
	for i := range vals {
		vals[i] = int64(rng.Next() % 1000)
	}
	cols := [][]int64{vals}
	hs := make([]uint64, 4096)
	for _, kExp := range hotKs {
		keys := benchKeys(b, datagen.Uniform, 1<<uint(kExp))
		b.Run(fmt.Sprintf("batched/K=2^%d", kExp), func(b *testing.B) {
			tb := hotTable(lay.Words)
			b.SetBytes(benchN * 16)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tb.Reset()
				drainInsertBatched(tb, keys, cols, kern, hs)
			}
		})
	}
}

// BenchmarkHashingHash sweeps just the hash computation: one Murmur2 call
// per row vs the morsel-wide HashBatch kernel.
func BenchmarkHashingHash(b *testing.B) {
	keys := benchKeys(b, datagen.Uniform, 1<<19)
	out := make([]uint64, benchN)
	b.Run("scalar", func(b *testing.B) {
		b.SetBytes(benchN * 8)
		for i := 0; i < b.N; i++ {
			for j, k := range keys {
				out[j] = hashfn.Murmur2(k)
			}
		}
	})
	b.Run("batched", func(b *testing.B) {
		b.SetBytes(benchN * 8)
		for i := 0; i < b.N; i++ {
			hashfn.HashBatch(keys, out)
		}
	})
}

// BenchmarkHashingFold sweeps the aggregate fold kernels on a gathered
// batch: per-row Op.Apply dispatch vs the monomorphic column kernels.
func BenchmarkHashingFold(b *testing.B) {
	const groups = 1 << 14
	states := make([]uint64, groups)
	slots := make([]int32, benchN)
	vals := make([]int64, benchN)
	rng := xrand.NewXoshiro256(3)
	for i := range slots {
		slots[i] = int32(rng.Uint64n(groups))
		vals[i] = int64(rng.Next() % 1000)
	}
	op := agg.WordOp{Op: agg.OpAdd, Src: agg.SrcCol}
	b.Run("scalar", func(b *testing.B) {
		b.SetBytes(benchN * 8)
		for i := 0; i < b.N; i++ {
			for j, s := range slots {
				states[s] = op.Op.Apply(states[s], uint64(vals[j]))
			}
		}
	})
	b.Run("batched", func(b *testing.B) {
		fold := op.ColumnFolder()
		b.SetBytes(benchN * 8)
		for i := 0; i < b.N; i++ {
			fold(states, slots, vals)
		}
	})
}

// BenchmarkHashingUniformK is the end-to-end uniform-K sweep at N=2^20
// through the public operator (the batched engine): the trend line the
// tentpole targets. Scalar-vs-batched at this level is a before/after
// comparison across commits (see benchmark/README.md, "Comparing two
// commits").
func BenchmarkHashingUniformK(b *testing.B) {
	for _, kExp := range hotKs {
		keys := benchKeys(b, datagen.Uniform, 1<<uint(kExp))
		b.Run(fmt.Sprintf("K=2^%d", kExp), func(b *testing.B) {
			cfg := core.Config{Strategy: core.HashingOnly(), CacheBytes: benchCache}
			b.SetBytes(benchN * 8)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Distinct(cfg, keys); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
