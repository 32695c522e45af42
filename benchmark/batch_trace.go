package main

import (
	"math"
	"runtime"
	"time"

	"cacheagg"
	"cacheagg/internal/agg"
	"cacheagg/internal/bench"
)

// pairedP50 alternates two variants of an op for the budget and returns
// the median latency of each in milliseconds. Alternating keeps drift
// (thermal, a noisy neighbour) out of the difference.
func pairedP50(budget time.Duration, a, b func() error) (aMs, bMs float64, err error) {
	var la, lb []float64
	start := time.Now()
	for time.Since(start) < budget || len(la) < 3 {
		for i, f := range []func() error{a, b} {
			t := time.Now()
			if err := f(); err != nil {
				return 0, 0, err
			}
			ms := float64(time.Since(t)) / float64(time.Millisecond)
			if i == 0 {
				la = append(la, ms)
			} else {
				lb = append(lb, ms)
			}
		}
	}
	return median(la), median(lb), nil
}

// coreTrace is the part of a traced run every uint64-keyed Aggregate
// workload shares: public ops with and without the Tracer, one worker
// against P, and the counters of the public Stats.
type coreTrace struct {
	plainP50Ms float64
	stats      cacheagg.Stats // of an op at Workers 1
	metrics    map[string]float64
}

func traceCore(e *env, rec *recorder, in cacheagg.Input, opt cacheagg.Options, check func(*cacheagg.Result) error, groups int) (*coreTrace, error) {
	n := len(in.GroupBy)
	m := make(map[string]float64)
	op := func(name string, o cacheagg.Options) func() error {
		return func() error {
			id := rec.begin(name, 0, 0)
			res, err := cacheagg.Aggregate(in, o)
			rec.end(id, int64(n))
			if err != nil {
				return err
			}
			return check(res)
		}
	}
	traced := opt
	traced.Tracer = cacheagg.NewTracer(0)
	traced.CollectStats = true
	plainMs, tracedMs, err := pairedP50(e.budget(0.30), op("op.Aggregate", opt), op("op.Aggregate+Tracer", traced))
	if err != nil {
		return nil, err
	}
	m["core.trace_overhead_pct"] = (tracedMs - plainMs) / plainMs * 100

	// Heap traffic of plain ops at P workers.
	const allocOps = 3
	var opErr error
	mallocs, bytes := allocDelta(func() {
		for i := 0; i < allocOps && opErr == nil; i++ {
			_, opErr = cacheagg.Aggregate(in, opt)
		}
	})
	if opErr != nil {
		return nil, opErr
	}
	m["core.allocs_per_op"] = float64(mallocs) / allocOps
	m["core.alloc_bytes_per_row"] = float64(bytes) / allocOps / float64(n)

	// One worker: the counters repeat exactly, and T1 is the base of the
	// parallel efficiency.
	single := opt
	single.Workers = 1
	single.CollectStats = true
	var st cacheagg.Stats
	t1, err := timeOps(e.budget(0.15), 3, func() error {
		id := rec.begin("op.Aggregate@1", 0, 0)
		res, err := cacheagg.Aggregate(in, single)
		rec.end(id, int64(n))
		if err != nil {
			return err
		}
		st = res.Stats
		return check(res)
	})
	if err != nil {
		return nil, err
	}
	t1Ms := median(t1)
	cols := 1 + len(in.Columns)
	m["core.element_time_ns"] = bench.ElementTime(time.Duration(t1Ms*float64(time.Millisecond)), 1, n, cols)
	if routed := st.HashedRows + st.PartitionedRows; routed > 0 {
		m["core.hashed_rows_share"] = float64(st.HashedRows) / float64(routed)
	}
	m["core.passes"] = float64(st.Passes)
	m["core.switches"] = float64(st.Switches)
	m["core.tables_emitted"] = float64(st.TablesEmitted)
	m["core.mean_alpha"] = st.MeanAlpha
	m["sched.parallel_efficiency"] = t1Ms / (float64(e.p) * plainMs)
	if st.Planned {
		m["sketch.plan_ms"] = float64(st.PlanNanos) / 1e6
		m["sketch.hot_rows_bypassed_share"] = float64(st.HotRowsBypassed) / float64(n)
		m["sketch.k_estimate_rel_err"] = math.Abs(st.PlanEstimatedK-float64(groups)) / float64(groups)
	}
	return &coreTrace{plainP50Ms: plainMs, stats: st, metrics: m}, nil
}

// replayLoop repeats the staged replay for the budget, each repeat its own
// operation id, and returns the median allocations per insert batch.
func replayLoop(budget time.Duration, rec *recorder, keys []uint64, cols [][]int64, cacheBytes int) float64 {
	var allocs []float64
	start := time.Now()
	for op := 1; time.Since(start) < budget || op == 1; op++ {
		root := rec.begin("replay", 0, op)
		allocs = append(allocs, replayBatch(rec, root, op, keys, cols, stdSpecs, cacheBytes))
		rec.end(root, int64(min(len(keys), replayRows)))
		runtime.GC() // keep one repeat's garbage out of the next one's timings
	}
	return median(allocs)
}

// putBatchLayers reports the replay's layer costs and the modelled shares.
func putBatchLayers(m map[string]float64, c layerCosts, allocsPerBatch float64, words int) {
	m["hashfn.hashbatch_ns_per_row"] = c.hashNs
	m["hashtable.insert_raw_ns_per_row"] = c.insertRawNs
	m["hashtable.allocs_per_batch"] = allocsPerBatch
	m["hashtable.insert_state_ns_per_row"] = c.insertStateNs
	m["hashtable.split_ns_per_group"] = c.splitNsPerGroup
	m["agg.fold_ns_per_row"] = c.foldNs
	m["agg.merge_ns_per_row"] = c.mergeNs
	m["partition.scatter_ns_per_row"] = c.scatterNs
	if c.scatterNs > 0 {
		bytesPerRow := float64(8 + 8*words) // key and state words; hashes are dropped
		m["partition.scatter_mb_per_s"] = bytesPerRow / c.scatterNs * 1e9 / (1 << 20)
	}
}

func putShares(m map[string]float64, t layerTimes) {
	total := float64(t.total())
	if total <= 0 {
		return
	}
	m["hashfn.self_share"] = float64(t.hashfn) / total
	m["hashtable.self_share"] = float64(t.hashtable) / total
	m["partition.self_share"] = float64(t.partition) / total
	m["intern.self_share"] = float64(t.intern) / total
}

// stdWords is the state-word count of stdSpecs.
var stdWords = agg.NewLayout(aggSpecs(stdSpecs)).Words

func (b *batchInst) trace(e *env, rec *recorder) (map[string]float64, error) {
	ct, err := traceCore(e, rec, b.in, b.opt, b.check, b.trueK)
	if err != nil {
		return nil, err
	}
	m := ct.metrics
	replayBudget := 0.55
	if b.opt.EnablePlan {
		// The shared global table is the routine the selector may pick on
		// this workload: measure its insert path on the same rows.
		replayBudget = 0.45
		start := time.Now()
		var escaped []float64
		for op := 1; time.Since(start) < e.budget(0.10) || op == 1; op++ {
			root := rec.begin("replay.global", 0, -op)
			escaped = append(escaped, replayGlobal(rec, root, -op, e.p, b.in.GroupBy, b.in.Columns, stdSpecs, b.trueK))
			rec.end(root, int64(min(len(b.in.GroupBy), replayRows)))
		}
		m["global.insert_batch_ns_per_row"] = costPerUnit(rec.spans, spanGlobal)
		m["global.escaped_share"] = median(escaped)
	}
	allocs := replayLoop(e.budget(replayBudget), rec, b.in.GroupBy, b.in.Columns, b.opt.CacheBytes)
	costs := batchCosts(rec.spans)
	putBatchLayers(m, costs, allocs, stdWords)
	model := layerModel(costs, ct.stats, b.trueK)
	putShares(m, model)
	m["core.replay_coverage"] = float64(model.total()) / float64(time.Millisecond) / (ct.plainP50Ms * float64(e.p))
	return m, nil
}
