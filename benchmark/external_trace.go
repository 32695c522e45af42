package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"cacheagg"
	"cacheagg/internal/external"
	"cacheagg/internal/faultfs"
	"cacheagg/internal/hashfn"
)

// Span names of the spill codec replay. Their row counts are bytes.
const (
	spanCodecEncode = "external.BlockWriter"
	spanCodecDecode = "external.ReadBlockFile"
)

// codecWidth is the number of partial columns stdSpecs spill.
var codecWidth = external.BuildPlan(aggSpecs(stdSpecs)).Width()

// replayCodec writes rows partial-aggregate rows through the checksummed
// block codec the spill files and the stream checkpoints share, and reads
// them back. The file goes through the page cache like a real spill file:
// Finish is called without fsync, as the spill path calls it.
func replayCodec(rec *recorder, parent, op int, dir, tag string, keys []uint64) error {
	cols := make([][]uint64, codecWidth)
	for c := range cols {
		cols[c] = make([]uint64, len(keys))
		for i, k := range keys {
			cols[c][i] = hashfn.Murmur2(k+uint64(c)) >> 44
		}
	}
	path := filepath.Join(dir, fmt.Sprintf("codec-%d.blk", op))
	defer os.Remove(path)
	var err error
	rec.measure(spanCodecEncode, parent, op, func() int64 {
		var w *external.BlockWriter
		w, err = external.NewBlockWriter(faultfs.OS(), path, tag, codecWidth)
		if err != nil {
			return 0
		}
		for i, k := range keys {
			if err = w.AppendState(k, cols, i); err != nil {
				w.Abort()
				return 0
			}
		}
		if err = w.Finish(false); err != nil {
			w.Abort()
			return 0
		}
		return w.Bytes()
	})
	if err != nil {
		return err
	}
	rec.measure(spanCodecDecode, parent, op, func() int64 {
		var got []uint64
		got, _, err = external.ReadBlockFile(faultfs.OS(), path, tag, codecWidth)
		if err == nil && len(got) != len(keys) {
			err = fmt.Errorf("codec read back %d rows, wrote %d", len(got), len(keys))
		}
		st, statErr := os.Stat(path)
		if statErr != nil {
			return 0
		}
		return st.Size()
	})
	return err
}

// codecLoop repeats the codec replay for the budget and reports MiB/s.
func codecLoop(budget time.Duration, rec *recorder, m map[string]float64, dir, tag string, keys []uint64) error {
	start := time.Now()
	for op := 1; time.Since(start) < budget || op == 1; op++ {
		root := rec.begin("replay.codec", 0, op)
		err := replayCodec(rec, root, op, dir, tag, keys)
		rec.end(root, int64(len(keys)))
		if err != nil {
			return err
		}
	}
	mbPerS := func(span string) float64 {
		nsPerByte := costPerUnit(rec.spans, span)
		if nsPerByte <= 0 {
			return 0
		}
		return 1e9 / nsPerByte / (1 << 20)
	}
	m["external.codec_encode_mb_per_s"] = mbPerS(spanCodecEncode)
	m["external.codec_decode_mb_per_s"] = mbPerS(spanCodecDecode)
	return nil
}

// distinct returns the distinct keys in first-seen order.
func distinct(keys []uint64) []uint64 {
	seen := make(map[uint64]bool)
	var out []uint64
	for _, k := range keys {
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}

func (x *externalInst) trace(e *env, rec *recorder) (map[string]float64, error) {
	m := make(map[string]float64)
	n := len(x.in.GroupBy)
	inputBytes := float64(n * 8 * (1 + len(x.in.Columns)))

	// Public ops with the Tracer installed: ExternalStats supplies the
	// counts of what the spill machinery did.
	traced := x.opt
	traced.Tracer = cacheagg.NewTracer(0)
	var spill, levels, evicted, retries []float64
	var peak int64
	op := func() (*cacheagg.ExternalResult, error) {
		id := rec.begin("op.AggregateExternal+Tracer", 0, 0)
		res, err := x.op(traced)
		rec.end(id, int64(n))
		if err != nil {
			return nil, err
		}
		st := res.Stats
		spill = append(spill, float64(st.SpilledBytes)/inputBytes)
		levels = append(levels, float64(st.MergeLevels))
		evicted = append(evicted, float64(st.EvictedPartitions))
		retries = append(retries, float64(st.ChunkRetries))
		peak = st.PeakReservedBytes
		return res, x.check(res)
	}
	diskMs, err := timeOps(e.budget(0.35), 3, func() error { _, err := op(); return err })
	if err != nil {
		return nil, err
	}
	m["external.disk_op_p50_ms"] = median(diskMs)
	_, before := x.mem.count()
	if _, err := x.memOp(); err != nil {
		return nil, err
	}
	_, after := x.mem.count()
	m["external.spill_files_per_op"] = float64(after - before)
	m["external.spill_bytes_per_input_byte"] = median(spill)
	m["external.merge_levels"] = median(levels)
	m["external.evicted_partitions"] = median(evicted)
	m["external.chunk_retries"] = median(retries)
	if err := ledgerCoverage(m, func() (int64, error) { _, err := op(); return peak, err }); err != nil {
		return nil, err
	}

	if err := codecLoop(e.budget(0.25), rec, m, x.ext.TempDir, "spill", distinct(x.in.GroupBy)); err != nil {
		return nil, err
	}
	allocs := replayLoop(e.budget(0.30), rec, x.in.GroupBy, x.in.Columns, x.opt.CacheBytes)
	putBatchLayers(m, batchCosts(rec.spans), allocs, stdWords)
	return m, nil
}
