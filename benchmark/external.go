package main

import (
	"fmt"
	"os"
	"path/filepath"

	"cacheagg"
	"cacheagg/internal/core"
	"cacheagg/internal/datagen"
	"cacheagg/internal/external"
)

const (
	externalRows  = 1 << 16
	externalKeys  = 1 << 15
	externalCache = 64 << 10
	// externalBudget is the frozen MemoryBudgetBytes of external_spill,
	// found once with -calibrate: small enough that at scale 1 every op
	// evicts level-0 partitions to disk and at least half the partial
	// rows go through spill files. Input sizes scale with it in smoke runs.
	externalBudget = 3 << 20
)

// externalInst is external_spill: the out-of-core engine under a byte
// budget. The timed ops call internal/external directly — exactly what the
// public cacheagg.AggregateExternal wrapper calls — because only there can
// the spill files be kept off the disk, whose share of the op holds no bound
// (see memFS). The first op checks the public call on the real disk and the
// traced run times it.
type externalInst struct {
	e    *env
	in   cacheagg.Input
	opt  cacheagg.Options
	ext  cacheagg.ExternalOptions
	mem  *memFS
	cin  *core.Input
	orc  *oracle[uint64]
	want checksums
	sums []int64
}

func newExternalSpill(e *env) (instance, error) {
	n := e.scaled(externalRows, 8192)
	keys := datagen.Generate(datagen.Spec{Dist: datagen.Uniform, N: n, K: uint64(e.scaled(externalKeys, 4096)), Seed: e.seed})
	cols := valueColumns(n, e.seed)
	dir := filepath.Join(e.tmp, "spill")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	x := &externalInst{
		e:   e,
		in:  cacheagg.Input{GroupBy: keys, Columns: cols, Aggregates: stdSpecs},
		opt: cacheagg.Options{Workers: e.p, CacheBytes: externalCache},
		ext: cacheagg.ExternalOptions{
			MemoryBudgetBytes: externalBudget,
			TempDir:           dir,
			MergeWorkers:      e.p,
		},
		mem:  newMemFS(),
		cin:  &core.Input{Keys: keys, AggCols: cols, Specs: aggSpecs(stdSpecs)},
		orc:  u64Oracle(keys, cols, stdSpecs),
		sums: make([]int64, len(stdSpecs)),
	}
	x.want = x.orc.checksums(digestU64)
	return x, nil
}

// memOp runs one out-of-core aggregation with its spill files in memory.
func (x *externalInst) memOp() (*external.Result, error) {
	return external.Aggregate(external.Config{
		MemoryBudgetBytes: x.ext.MemoryBudgetBytes,
		TempDir:           x.ext.TempDir,
		MergeWorkers:      x.ext.MergeWorkers,
		FS:                x.mem,
		Core:              core.Config{Workers: x.opt.Workers, CacheBytes: x.opt.CacheBytes},
	}, x.cin)
}

func internalExternalView(r *external.Result) view[uint64] {
	return view[uint64]{
		n:     len(r.Keys),
		key:   func(i int) uint64 { return r.Keys[i] },
		agg:   func(s, i int) int64 { return r.Aggs[s][i] },
		float: func(s, i int) float64 { return r.AggsFloat[s][i] },
	}
}

// externalView adapts *cacheagg.ExternalResult, which has truncated
// averages only.
func externalView(r *cacheagg.ExternalResult) view[uint64] {
	return view[uint64]{
		n:   r.Len(),
		key: func(i int) uint64 { return r.Groups[i] },
		agg: func(s, i int) int64 { return r.Aggs[s][i] },
	}
}

func (x *externalInst) close() {}

func (x *externalInst) op(opt cacheagg.Options) (*cacheagg.ExternalResult, error) {
	return cacheagg.AggregateExternal(x.in, opt, x.ext)
}

// firstOp compares both entry points key by key: the public call on the
// real disk and the direct call on the in-memory file system.
func (x *externalInst) firstOp() error {
	res, err := x.op(x.opt)
	if err != nil {
		return err
	}
	if err := x.orc.checkFull(externalView(res)); err != nil {
		return fmt.Errorf("AggregateExternal: %w", err)
	}
	mres, err := x.memOp()
	if err != nil {
		return err
	}
	err = x.orc.checkFull(internalExternalView(mres))
	x.orc = nil
	return err
}

// checkOp verifies one op: right output, really out of core, nothing left.
func (x *externalInst) checkOp(v view[uint64], spilledBytes int64) error {
	if got := digestView(v, stdSpecs, digestU64, x.sums); !got.equal(x.want) {
		return fmt.Errorf("checksums differ: got %v, want %v", got, x.want)
	}
	if x.e.scale == 1 && spilledBytes == 0 {
		return fmt.Errorf("the op did not spill: the budget no longer forces the out-of-core path")
	}
	if left, err := os.ReadDir(x.ext.TempDir); err != nil {
		return err
	} else if inMem, _ := x.mem.count(); len(left)+inMem != 0 {
		return fmt.Errorf("%d spill files left behind", len(left)+inMem)
	}
	return nil
}

// check verifies one op of the public entry point.
func (x *externalInst) check(res *cacheagg.ExternalResult) error {
	return x.checkOp(externalView(res), res.Stats.SpilledBytes)
}

func (x *externalInst) run(e *env) (*e2eSample, error) {
	return runSequential(e, int64(len(x.in.GroupBy)), func() (func() error, error) {
		res, err := x.memOp()
		return func() error { return x.checkOp(internalExternalView(res), res.Stats.SpilledBytes) }, err
	}), nil
}
