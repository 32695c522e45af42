package cacheagg

// Hot-path kernel sweeps: scalar (row-at-a-time, reference) vs batched
// (morsel-wide) versions of the aggregation inner loops, over uniform keys
// at N=2^20. These are the benchmarks behind this repo's batching work:
//
//	go test -run '^$' -bench Hashing -count 10 .
//
// prints ten lines per sub-benchmark; compare the median of the scalar
// lines with the median of the batched lines of the same sweep.
//
// The scalar variants exercise exactly the code the engine used before the
// batch kernels existed (Murmur2 per row, InsertRawCols/InsertStateCols per
// row); the batched variants exercise what the engine runs now (HashBatch +
// InsertRawBatch/InsertStateBatch). The differential tests in
// internal/hashtable prove the two produce bit-identical tables, so the
// comparison is purely about speed.

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

// drainInsertScalar runs the pre-batching intake loop: hash and insert one
// row at a time, splitting the table whenever it fills.
func drainInsertScalar(tb *hashtable.Table, keys []uint64, cols [][]int64, ops []agg.WordOp) int {
	splits := 0
	for i := 0; i < len(keys); {
		h := hashfn.Murmur2(keys[i])
		if !tb.InsertRawCols(h, cols, i, ops) {
			tb.SplitRuns()
			splits++
			continue
		}
		i++
	}
	return splits
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
// single hottest loop of the operator — over K, scalar vs batched.
func BenchmarkHashingInsert(b *testing.B) {
	lay := agg.NewLayout([]agg.Spec{{Kind: agg.Sum, Col: 0}})
	ops := lay.WordOps()
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
		b.Run(fmt.Sprintf("scalar/K=2^%d", kExp), func(b *testing.B) {
			tb := hotTable(lay.Words)
			b.SetBytes(benchN * 16)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tb.Reset()
				drainInsertScalar(tb, keys, cols, ops)
			}
		})
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
