// Outofcore: aggregation with bounded memory — the disk level of the
// external memory model.
//
// The paper's cost analysis (Section 2) "holds in the cache setting as
// well as in the disk-based setting". This example runs the same GROUP BY
// twice: fully in memory, and with a memory budget of 1/4 of the input,
// which makes the operator spill its largest buckets of partial groups to
// temp files and read them back bucket by bucket — the same recursion by
// hash digit, one storage level down.
//
// Watch the spill statistics: on the skewed and sorted inputs, early
// aggregation before the spill shrinks the spilled volume far below N —
// the same α-effect the ADAPTIVE strategy exploits one level down.
//
// Run with: go run ./examples/outofcore
package main

import (
	"fmt"
	"log"
	"time"

	"cacheagg"
	"cacheagg/internal/datagen"
)

func main() {
	const n = 4 << 20

	run := func(label string, keys []uint64) {
		in := cacheagg.Input{
			GroupBy:    keys,
			Aggregates: []cacheagg.AggSpec{{Func: cacheagg.Count}},
		}
		start := time.Now()
		mem, err := cacheagg.Aggregate(in, cacheagg.Options{})
		if err != nil {
			log.Fatal(err)
		}
		memTime := time.Since(start)

		start = time.Now()
		ext, err := cacheagg.AggregateExternal(in, cacheagg.Options{}, cacheagg.ExternalOptions{
			MemoryBudgetBytes: 8 * n / 4,
		})
		if err != nil {
			log.Fatal(err)
		}
		extTime := time.Since(start)

		if mem.Len() != ext.Len() {
			log.Fatalf("mismatch: %d vs %d groups", mem.Len(), ext.Len())
		}
		fmt.Printf("%-22s %9d groups | in-memory %8v | out-of-core %8v, %4d bucket spills, %5.1f MiB spilled, %d merge level(s)\n",
			label, mem.Len(), memTime.Round(time.Millisecond), extTime.Round(time.Millisecond),
			ext.Stats.EvictedPartitions, float64(ext.Stats.SpilledBytes)/(1<<20), ext.Stats.MergeLevels)
	}

	run("uniform, K=2^21", datagen.Generate(datagen.Spec{
		Dist: datagen.Uniform, N: n, K: 2 << 20, Seed: 1,
	}))
	run("self-similar (80-20)", datagen.Generate(datagen.Spec{
		Dist: datagen.SelfSimilar, N: n, K: 2 << 20, Seed: 1,
	}))
	run("sorted, K=2^21", datagen.Generate(datagen.Spec{
		Dist: datagen.Sorted, N: n, K: 2 << 20, Seed: 1,
	}))
}
