package main

import (
	"fmt"
	"runtime"
	"time"

	"cacheagg"
	"cacheagg/internal/hashfn"
	"cacheagg/internal/intern"
)

// Span names of the interning replay.
const (
	spanEncodeCold = "intern.EncodeColumns(cold)"
	spanEncodeWarm = "intern.EncodeColumns(warm)"
	spanDecode     = "intern.DecodeColumns"
	spanHashBytes  = "hashfn.Murmur2Bytes"
)

// memgovBudget is far above any workload's working set: the ledger only
// counts, it never refuses.
const memgovBudget = 1 << 30

// ledgerCoverage runs op once under an RSS sampler and compares the memory
// governor's peak with the RSS the process really gained.
func ledgerCoverage(m map[string]float64, op func() (peakReserved int64, err error)) error {
	runtime.GC()
	before, err := procStatusKB("VmRSS")
	if err != nil {
		return err
	}
	sampler := startRSSSampler()
	peak, err := op()
	peakKB := sampler.peakKB()
	if err != nil {
		return err
	}
	m["memgov.peak_reserved_mb"] = float64(peak) / (1 << 20)
	if grown := peakKB - before; grown > 0 {
		m["memgov.ledger_coverage"] = float64(peak) / 1024 / float64(grown)
	}
	return nil
}

func (s *stringsInst) trace(e *env, rec *recorder) (map[string]float64, error) {
	n := len(s.in.Columns[0])
	icols := []intern.Column{
		{Str: s.in.GroupBy[0].Strings},
		{U64: s.in.GroupBy[1].Uint64s, Nulls: s.in.GroupBy[1].Nulls},
	}
	types := []intern.ColType{intern.StrCol, intern.U64Col}

	// The whole public op, untraced: the base of the shares below.
	opMs, err := timeOps(e.budget(0.15), 3, func() error {
		id := rec.begin("op.AggregateGeneral", 0, 0)
		res, err := cacheagg.AggregateGeneral(s.in, s.opt)
		rec.end(id, int64(n))
		if err != nil {
			return err
		}
		return s.check(res)
	})
	if err != nil {
		return nil, err
	}

	// The inner uint64 aggregation over interned ids, measured like the
	// uint64 workloads measure theirs.
	ids := make([]uint64, n)
	shared := intern.New()
	if err := shared.NewEncoder().EncodeColumns(icols, ids); err != nil {
		return nil, err
	}
	groups := s.want.groups
	inner := cacheagg.Input{GroupBy: ids, Columns: s.in.Columns, Aggregates: stdSpecs}
	ct, err := traceCore(e, rec, inner, s.opt, func(r *cacheagg.Result) error {
		if r.Len() != groups {
			return fmt.Errorf("inner aggregation has %d groups, want %d", r.Len(), groups)
		}
		return nil
	}, groups)
	if err != nil {
		return nil, err
	}
	m := ct.metrics

	// Dictionary size and the ledger, from the public Stats.
	opt := s.opt
	opt.MemoryBudgetBytes = memgovBudget
	err = ledgerCoverage(m, func() (int64, error) {
		res, err := cacheagg.AggregateGeneral(s.in, opt)
		if err != nil {
			return 0, err
		}
		if res.Stats.InternedKeys > 0 {
			m["intern.dict_bytes_per_key"] = float64(res.Stats.InternBytes) / float64(res.Stats.InternedKeys)
		}
		return res.Stats.PeakReservedBytes, s.check(res)
	})
	if err != nil {
		return nil, err
	}

	// Staged replay of the interner: cold encode, warm encode in the
	// operator's block size, decode of the groups' ids.
	groupIDs := distinct(ids)
	var warmAllocs []float64
	start := time.Now()
	for op := 1; time.Since(start) < e.budget(0.20) || op == 1; op++ {
		root := rec.begin("replay.intern", 0, op)
		it := intern.New()
		enc := it.NewEncoder()
		var encErr error
		rec.measure(spanEncodeCold, root, op, func() int64 {
			encErr = enc.EncodeColumns(icols, ids)
			return int64(n)
		})
		batches := 0
		mallocs, _ := allocDelta(func() {
			for lo := 0; lo < n && encErr == nil; lo += replayBlock {
				hi := min(lo+replayBlock, n)
				blk := []intern.Column{
					{Str: icols[0].Str[lo:hi]},
					{U64: icols[1].U64[lo:hi], Nulls: icols[1].Nulls[lo:hi]},
				}
				rec.measure(spanEncodeWarm, root, op, func() int64 {
					encErr = enc.EncodeColumns(blk, ids[lo:hi])
					return int64(hi - lo)
				})
				batches++
			}
		})
		warmAllocs = append(warmAllocs, float64(mallocs)/float64(max(batches, 1)))
		rec.measure(spanDecode, root, op, func() int64 {
			if encErr == nil {
				_, encErr = enc.DecodeColumns(groupIDs, types)
			}
			return int64(len(groupIDs))
		})
		rec.measure(spanHashBytes, root, op, func() int64 {
			var bytes int64
			var sink uint64
			for _, u := range icols[0].Str {
				sink ^= hashfn.Murmur2String(u)
				bytes += int64(len(u))
			}
			hashSink = sink
			return bytes
		})
		rec.end(root, int64(n))
		if encErr != nil {
			return nil, encErr
		}
	}
	cold := costPerUnit(rec.spans, spanEncodeCold)
	decode := costPerUnit(rec.spans, spanDecode)
	m["intern.encode_cold_ns_per_row"] = cold
	m["intern.encode_warm_ns_per_row"] = costPerUnit(rec.spans, spanEncodeWarm)
	m["intern.allocs_per_warm_batch"] = median(warmAllocs)
	m["intern.decode_ns_per_group"] = decode
	m["hashfn.bytes_ns_per_byte"] = costPerUnit(rec.spans, spanHashBytes)

	allocs := replayLoop(e.budget(0.20), rec, ids, s.in.Columns, s.opt.CacheBytes)
	costs := batchCosts(rec.spans)
	putBatchLayers(m, costs, allocs, stdWords)
	model := layerModel(costs, ct.stats, groups)
	model.intern = time.Duration(cold*float64(n) + decode*float64(groups))
	putShares(m, model)
	// Coverage is against the whole public op: interning runs on one
	// goroutine, the aggregation on P.
	m["core.replay_coverage"] = (float64(model.intern) + float64(model.total()-model.intern)/float64(e.p)) /
		float64(time.Millisecond) / median(opMs)
	return m, nil
}

// hashSink keeps the byte-hash loop's result alive.
var hashSink uint64
