package main

import (
	"fmt"

	"cacheagg"
	"cacheagg/internal/datagen"
	"cacheagg/internal/xrand"
)

// stdSpecs are the aggregates of every workload unless stated otherwise:
// COUNT, SUM(c0), MIN(c1), AVG(c1) over two int64 value columns. They cover
// every state-word operation (add, min) and the two-word AVG state.
var stdSpecs = []cacheagg.AggSpec{
	{Func: cacheagg.Count},
	{Func: cacheagg.Sum, Col: 0},
	{Func: cacheagg.Min, Col: 1},
	{Func: cacheagg.Avg, Col: 1},
}

// valueColumns generates the two value columns: c0 in [0, 1000), c1 in
// [-2048, 2048) so that MIN and AVG see both signs.
func valueColumns(n int, seed uint64) [][]int64 {
	rng := xrand.NewXoshiro256(seed ^ 0x9e3779b97f4a7c15)
	c0 := make([]int64, n)
	c1 := make([]int64, n)
	for i := range c0 {
		r := rng.Next()
		c0[i] = int64(r % 1000)
		c1[i] = int64((r>>32)%4096) - 2048
	}
	return [][]int64{c0, c1}
}

// u64Oracle builds the map oracle of a uint64-keyed input.
func u64Oracle(keys []uint64, cols [][]int64, specs []cacheagg.AggSpec) *oracle[uint64] {
	o := newOracle[uint64](specs)
	for i, k := range keys {
		o.add(k, cols, i)
	}
	return o
}

// resultView adapts *cacheagg.Result.
func resultView(r *cacheagg.Result) view[uint64] {
	return view[uint64]{
		n:     r.Len(),
		key:   func(i int) uint64 { return r.Groups[i] },
		agg:   func(s, i int) int64 { return r.Aggs[s][i] },
		float: r.Float,
	}
}

// batchInst is one of the three uint64-keyed cacheagg.Aggregate workloads.
type batchInst struct {
	in    cacheagg.Input
	opt   cacheagg.Options
	orc   *oracle[uint64] // nil once firstOp has used it
	want  checksums
	trueK int
	sums  []int64 // scratch of digestView
}

func newBatch(e *env, keys []uint64, opt cacheagg.Options) *batchInst {
	cols := valueColumns(len(keys), e.seed)
	opt.Workers = e.p
	b := &batchInst{
		in:   cacheagg.Input{GroupBy: keys, Columns: cols, Aggregates: stdSpecs},
		opt:  opt,
		orc:  u64Oracle(keys, cols, stdSpecs),
		sums: make([]int64, len(stdSpecs)),
	}
	b.want = b.orc.checksums(digestU64)
	b.trueK = b.orc.groups()
	return b
}

// Input sizes at scale 1. N is sized so that one op takes tens of
// milliseconds at P = 2 and a ten-second region holds well over 100 ops.
const (
	lowkRows  = 1 << 22
	lowkKeys  = 1 << 10
	highkRows = 1 << 19
	highkKeys = 1 << 18
	skewRows  = 3 << 18
	skewKeys  = 1 << 18
)

func newBatchLowK(e *env) (instance, error) {
	keys := datagen.Generate(datagen.Spec{Dist: datagen.Uniform, N: e.scaled(lowkRows, 4096), K: lowkKeys, Seed: e.seed})
	return newBatch(e, keys, cacheagg.Options{}), nil
}

func newBatchHighK(e *env) (instance, error) {
	n := e.scaled(highkRows, 4096)
	keys := datagen.Generate(datagen.Spec{Dist: datagen.Uniform, N: n, K: uint64(e.scaled(highkKeys, 2048)), Seed: e.seed})
	return newBatch(e, keys, cacheagg.Options{}), nil
}

func newBatchSkew(e *env) (instance, error) {
	n := e.scaled(skewRows, 3*4096)
	k := uint64(e.scaled(skewKeys, 2048))
	seg := n / 3
	keys := make([]uint64, n)
	datagen.Fill(keys[:seg], datagen.Spec{Dist: datagen.HeavyHitter, K: k, Seed: e.seed, HitFraction: 0.5})
	datagen.Fill(keys[seg:2*seg], datagen.Spec{Dist: datagen.Zipf, K: k, Seed: e.seed + 1, Theta: 1.0})
	datagen.Fill(keys[2*seg:], datagen.Spec{Dist: datagen.Uniform, K: k, Seed: e.seed + 2})
	return newBatch(e, keys, cacheagg.Options{EnablePlan: true, Routine: cacheagg.RoutineAuto}), nil
}

func (b *batchInst) close() {}

func (b *batchInst) firstOp() error {
	res, err := cacheagg.Aggregate(b.in, b.opt)
	if err != nil {
		return err
	}
	err = b.orc.checkFull(resultView(res))
	b.orc = nil
	return err
}

// check compares one op's result with the oracle's checksums.
func (b *batchInst) check(res *cacheagg.Result) error {
	if got := digestView(resultView(res), stdSpecs, digestU64, b.sums); !got.equal(b.want) {
		return fmt.Errorf("checksums differ: got %v, want %v", got, b.want)
	}
	return nil
}

func (b *batchInst) run(e *env) (*e2eSample, error) {
	return runSequential(e, int64(len(b.in.GroupBy)), func() (func() error, error) {
		res, err := cacheagg.Aggregate(b.in, b.opt)
		return func() error { return b.check(res) }, err
	}), nil
}
