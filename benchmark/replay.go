package main

import (
	"sync"
	"time"

	"cacheagg"
	"cacheagg/internal/agg"
	"cacheagg/internal/global"
	"cacheagg/internal/hashfn"
	"cacheagg/internal/hashtable"
	"cacheagg/internal/partition"
	"cacheagg/internal/runs"
)

// The staged replay: the first replayRows rows of a workload go through the
// operator's layers one layer at a time, in operator order, by calling the
// layers' own exported functions from here. Every call is a span; a layer's
// cost is the summed duration of its spans over the rows they handled.
//
// The replay sends all rows through both routines (HASHING: HashBatch,
// InsertRawBatch, SplitRuns; PARTITIONING: Scatter, Flush, Seal, then the
// leaf's InsertStateBatch and EmitColumns), so that every layer has a cost
// on the workload's own key distribution. How many rows the operator really
// sent through each routine comes from the public Stats; layerModel puts
// the two together.

const (
	replayRows  = 1 << 20
	replayBlock = 4096 // rows per kernel call, the operator's scratch size
	// defaultCacheBytes is the operator's cache budget when Options
	// leaves CacheBytes zero.
	defaultCacheBytes = 4 << 20
)

// Span names of the staged replay.
const (
	spanHash        = "hashfn.HashBatch"
	spanInsertRaw   = "hashtable.InsertRawBatch"
	spanSplit       = "hashtable.SplitRuns"
	spanInitStates  = "core.init_states"
	spanScatter     = "partition.Scatter"
	spanScatterEnd  = "partition.Flush+Seal"
	spanInsertState = "hashtable.InsertStateBatch"
	spanEmit        = "hashtable.EmitColumns"
	spanFold        = "agg.Fold"
	spanMerge       = "agg.Merge"
	spanGlobal      = "global.InsertBatch"
)

func aggSpecs(specs []cacheagg.AggSpec) []agg.Spec {
	out := make([]agg.Spec, len(specs))
	for i, s := range specs {
		var k agg.Kind
		switch s.Func {
		case cacheagg.Count:
			k = agg.Count
		case cacheagg.Sum:
			k = agg.Sum
		case cacheagg.Min:
			k = agg.Min
		case cacheagg.Max:
			k = agg.Max
		case cacheagg.Avg:
			k = agg.Avg
		}
		out[i] = agg.Spec{Kind: k, Col: s.Col}
	}
	return out
}

// replayBatch runs one staged replay as operation `op` under span parent.
// It returns the heap allocations per InsertRawBatch call of the HASHING
// stage, splits included.
func replayBatch(rec *recorder, parent, op int, keys []uint64, cols [][]int64, specs []cacheagg.AggSpec, cacheBytes int) (allocsPerBatch float64) {
	n := min(len(keys), replayRows)
	keys = keys[:n]
	lay := agg.NewLayout(aggSpecs(specs))
	kern := lay.Kernels()
	ops := lay.WordOps()
	words := lay.Words
	if cacheBytes <= 0 {
		cacheBytes = defaultCacheBytes
	}

	// hashfn: one HashBatch per block, as both routines start.
	hs := make([]uint64, n)
	for lo := 0; lo < n; lo += replayBlock {
		hi := min(lo+replayBlock, n)
		rec.measure(spanHash, parent, op, func() int64 {
			hashfn.HashBatch(keys[lo:hi], hs[lo:hi])
			return int64(hi - lo)
		})
	}

	// HASHING: fold raw rows into a cache-sized table; split when full.
	table := hashtable.New(hashtable.Config{
		CapacityRows: hashtable.CapacityForCache(cacheBytes, words),
		Blocks:       hashfn.Fanout,
		Words:        words,
	})
	split := func() {
		rec.measure(spanSplit, parent, op, func() int64 {
			groups := table.Len()
			table.SplitRuns()
			return int64(groups)
		})
	}
	calls := 0
	mallocs, _ := allocDelta(func() {
		for lo := 0; lo < n; lo += replayBlock {
			hi := min(lo+replayBlock, n)
			for done := lo; done < hi; {
				var took int
				rec.measure(spanInsertRaw, parent, op, func() int64 {
					took = table.InsertRawBatch(hs[done:hi], keys[done:hi], cols, done, kern)
					return int64(took)
				})
				calls++
				done += took
				if done < hi {
					split()
				}
			}
		}
		split()
	})
	allocsPerBatch = float64(mallocs) / float64(calls)

	// PARTITIONING: materialise each row's initial state, scatter by the
	// level-0 digit, seal into runs.
	scat := partition.New(partition.Config{Level: 0, Words: words, DropHashes: true})
	states := make([][]uint64, words)
	for w := range states {
		states[w] = make([]uint64, replayBlock)
	}
	for lo := 0; lo < n; lo += replayBlock {
		hi := min(lo+replayBlock, n)
		blk := hi - lo
		rec.measure(spanInitStates, parent, op, func() int64 {
			for w, o := range ops {
				dst := states[w][:blk]
				if o.Src == agg.SrcOne {
					for j := range dst {
						dst[j] = 1
					}
					continue
				}
				src := cols[o.Col][lo:hi]
				for j := range dst {
					dst[j] = uint64(src[j])
				}
			}
			return int64(blk)
		})
		view := make([][]uint64, words)
		for w := range view {
			view[w] = states[w][:blk]
		}
		rec.measure(spanScatter, parent, op, func() int64 {
			scat.Scatter(hs[lo:hi], keys[lo:hi], view)
			return int64(blk)
		})
	}
	var parts [][]*runs.Run
	rec.measure(spanScatterEnd, parent, op, func() int64 {
		scat.Flush()
		parts = scat.Seal()
		return int64(n)
	})

	// Leaf: merge each partition's runs into a level-1 table and emit it.
	scratch := make([]uint64, runs.DefaultChunkRows)
	var outH, outK []uint64
	outS := make([][]uint64, words)
	emit := func() {
		g := table.Len()
		if cap(outH) < g {
			outH, outK = make([]uint64, g), make([]uint64, g)
			for w := range outS {
				outS[w] = make([]uint64, g)
			}
		}
		sc := make([][]uint64, words)
		for w := range sc {
			sc[w] = outS[w][:g]
		}
		rec.measure(spanEmit, parent, op, func() int64 {
			table.EmitColumns(outH[:g], outK[:g], sc)
			return int64(g)
		})
		table.Reset()
	}
	table.Reset()
	table.SetLevel(1)
	for _, part := range parts {
		for _, r := range part {
			for lo := 0; lo < r.Len(); lo += len(scratch) {
				hi := min(lo+len(scratch), r.Len())
				ph := scratch[:hi-lo]
				rec.measure(spanHash, parent, op, func() int64 {
					hashfn.HashBatch(r.Keys[lo:hi], ph)
					return int64(hi - lo)
				})
				for done := lo; done < hi; {
					var took int
					rec.measure(spanInsertState, parent, op, func() int64 {
						took = table.InsertStateBatch(ph[done-lo:], r.Keys[done:hi], r.States, done, kern)
						return int64(took)
					})
					done += took
					if done < hi {
						emit()
					}
				}
			}
		}
		emit()
	}

	// agg: the fold and merge kernels alone, over gathered batches with
	// the slots a cache-resident table would hand them.
	const slotsRange = 1 << 14
	slots := make([]int32, replayBlock)
	stateCols := make([][]uint64, words)
	for w := range stateCols {
		stateCols[w] = make([]uint64, slotsRange)
	}
	src := make([]uint64, replayBlock)
	for lo := 0; lo+replayBlock <= n; lo += replayBlock {
		for j := range slots {
			slots[j] = int32(hs[lo+j] % slotsRange)
			src[j] = hs[lo+j] >> 40
		}
		rec.measure(spanFold, parent, op, func() int64 {
			for w, fold := range kern.Fold {
				var vals []int64
				if c := kern.Cols[w]; c >= 0 {
					vals = cols[c][lo : lo+replayBlock]
				}
				fold(stateCols[w], slots, vals)
			}
			return replayBlock
		})
		rec.measure(spanMerge, parent, op, func() int64 {
			for w, merge := range kern.Merge {
				merge(stateCols[w], slots, src)
			}
			return replayBlock
		})
	}
	return allocsPerBatch
}

// replayGlobal folds the rows into one shared global.Table from p
// goroutines, block by block, and returns the share of rows that escaped.
// The spans carry CPU time: each goroutine's calls are its own spans.
func replayGlobal(rec *recorder, parent, op, p int, keys []uint64, cols [][]int64, specs []cacheagg.AggSpec, groups int) float64 {
	n := min(len(keys), replayRows)
	lay := agg.NewLayout(aggSpecs(specs))
	t := global.New(global.Config{CapacityRows: 4 * groups, Ops: lay.WordOps()})
	blocks := (n + replayBlock - 1) / replayBlock
	var wg sync.WaitGroup
	for g := 0; g < p; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			hs := make([]uint64, replayBlock)
			var esc []int32
			for b := g; b < blocks; b += p {
				lo := b * replayBlock
				hi := min(lo+replayBlock, n)
				hashfn.HashBatch(keys[lo:hi], hs[:hi-lo])
				rec.measure(spanGlobal, parent, op, func() int64 {
					esc, _ = t.InsertBatch(hs[:hi-lo], keys[lo:hi], cols, lo, esc[:0])
					return int64(hi - lo)
				})
			}
		}(g)
	}
	wg.Wait()
	return float64(t.Escaped()) / float64(n)
}

// costPerUnit returns the cost of a span name in nanoseconds per recorded
// row (or group): per operation id the summed duration over the summed
// rows, and the median of that over operations.
func costPerUnit(spans []span, name string) float64 {
	type acc struct{ ns, rows int64 }
	byOp := make(map[int]*acc)
	for i := range spans {
		s := &spans[i]
		if s.Name != name {
			continue
		}
		a := byOp[s.Op]
		if a == nil {
			a = &acc{}
			byOp[s.Op] = a
		}
		a.ns += s.End - s.Start
		a.rows += s.Rows
	}
	var per []float64
	for _, a := range byOp {
		if a.rows > 0 {
			per = append(per, float64(a.ns)/float64(a.rows))
		}
	}
	return median(per)
}

// layerCosts are the per-layer costs a staged replay measured.
type layerCosts struct {
	hashNs, insertRawNs, insertStateNs, scatterNs float64 // per row
	splitNsPerGroup                               float64
	foldNs, mergeNs                               float64
}

func batchCosts(spans []span) layerCosts {
	// Split and emit both move groups out of a table; weigh them by the
	// groups each moved.
	var moveNs, moveGroups int64
	for i := range spans {
		if s := &spans[i]; s.Name == spanSplit || s.Name == spanEmit {
			moveNs += s.End - s.Start
			moveGroups += s.Rows
		}
	}
	c := layerCosts{
		hashNs:        costPerUnit(spans, spanHash),
		insertRawNs:   costPerUnit(spans, spanInsertRaw),
		insertStateNs: costPerUnit(spans, spanInsertState),
		// Scatter's cost includes materialising the states it moves and
		// the final flush, all per scattered row.
		scatterNs: costPerUnit(spans, spanInitStates) + costPerUnit(spans, spanScatter) + costPerUnit(spans, spanScatterEnd),
		foldNs:    costPerUnit(spans, spanFold),
		mergeNs:   costPerUnit(spans, spanMerge),
	}
	if moveGroups > 0 {
		c.splitNsPerGroup = float64(moveNs) / float64(moveGroups)
	}
	return c
}

// layerTimes is the modelled CPU time of one op by module.
type layerTimes struct {
	hashfn, hashtable, partition, intern time.Duration
}

func (t layerTimes) total() time.Duration { return t.hashfn + t.hashtable + t.partition + t.intern }

// layerModel weighs the replay's per-row costs by the rows the operator
// sent through each routine, as its public Stats report them. Rows below
// level 0 are taken to be hashed before any are partitioned: leaves are
// cache-sized, so the recursion ends in HASHING.
func layerModel(c layerCosts, st cacheagg.Stats, groups int) layerTimes {
	var deep int64
	for _, r := range st.LevelRows[min(1, len(st.LevelRows)):] {
		deep += r
	}
	hashedDeep := min(deep, st.HashedRows)
	partDeep := deep - hashedDeep
	hashed0 := st.HashedRows - hashedDeep
	part0 := max(st.PartitionedRows-partDeep, 0)
	moved := float64(groups) // the final emit
	if st.MeanAlpha > 0 {
		moved += float64(hashed0) / st.MeanAlpha // rows leaving intake tables
	}
	ns := func(x float64) time.Duration { return time.Duration(x) }
	return layerTimes{
		hashfn:    ns(float64(hashed0+part0+deep) * c.hashNs),
		hashtable: ns(float64(hashed0)*c.insertRawNs + float64(hashedDeep)*c.insertStateNs + moved*c.splitNsPerGroup),
		partition: ns(float64(part0+partDeep) * c.scatterNs),
	}
}
