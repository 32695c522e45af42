package main

import (
	"fmt"

	"cacheagg"
	"cacheagg/internal/datagen"
	"cacheagg/internal/xrand"
)

const (
	stringsRows = 1 << 16
	stringsKeys = 1 << 13
	// tagValues and tagNullFrac shape the second key column: a nullable
	// uint64 with few values, so NULL grouping is on the measured path.
	tagValues   = 16
	tagNullFrac = 0.05
)

// generalKey is one composite grouping key of batch_strings.
type generalKey struct {
	url  string
	tag  uint64
	null bool
}

func digestGeneral(k generalKey) uint64 {
	d := digestString(k.url)*1099511628211 ^ k.tag
	if k.null {
		d = ^d
	}
	return d
}

// stringsInst is batch_strings: AggregateGeneral with a private dictionary
// per op, so every op pays the interner's write path and the key decode.
type stringsInst struct {
	in   cacheagg.GeneralInput
	opt  cacheagg.Options
	orc  *oracle[generalKey]
	want checksums
	sums []int64
}

func newBatchStrings(e *env) (instance, error) {
	n := e.scaled(stringsRows, 4096)
	spec := datagen.Spec{Dist: datagen.Zipf, N: n, K: uint64(e.scaled(stringsKeys, 512)), Seed: e.seed}
	urls := datagen.GenerateStrings(spec)
	rng := xrand.NewXoshiro256(e.seed + 17)
	tags := make([]uint64, n)
	for i := range tags {
		tags[i] = rng.Uint64n(tagValues)
	}
	nulls := datagen.NullMask(n, tagNullFrac, e.seed+23)
	cols := valueColumns(n, e.seed)
	s := &stringsInst{
		in: cacheagg.GeneralInput{
			GroupBy:    []cacheagg.KeyColumn{{Strings: urls}, {Uint64s: tags, Nulls: nulls}},
			Columns:    cols,
			Aggregates: stdSpecs,
		},
		opt:  cacheagg.Options{Workers: e.p},
		orc:  newOracle[generalKey](stdSpecs),
		sums: make([]int64, len(stdSpecs)),
	}
	for i := range urls {
		k := generalKey{url: urls[i], tag: tags[i], null: nulls[i]}
		if k.null {
			k.tag = 0 // the slot of a NULL is ignored
		}
		s.orc.add(k, cols, i)
	}
	s.want = s.orc.checksums(digestGeneral)
	return s, nil
}

func generalView(r *cacheagg.GeneralResult) view[generalKey] {
	urls, tags := &r.GroupCols[0], &r.GroupCols[1]
	return view[generalKey]{
		n: r.Len(),
		key: func(i int) generalKey {
			k := generalKey{url: urls.Strings[i], null: tags.IsNull(i)}
			if !k.null {
				k.tag = tags.Uint64s[i]
			}
			return k
		},
		agg:   func(s, i int) int64 { return r.Aggs[s][i] },
		float: r.Float,
	}
}

func (s *stringsInst) close() {}

func (s *stringsInst) firstOp() error {
	res, err := cacheagg.AggregateGeneral(s.in, s.opt)
	if err != nil {
		return err
	}
	if len(res.GroupCols) != 2 {
		return fmt.Errorf("result has %d key columns, want 2", len(res.GroupCols))
	}
	err = s.orc.checkFull(generalView(res))
	s.orc = nil
	return err
}

func (s *stringsInst) check(res *cacheagg.GeneralResult) error {
	if len(res.GroupCols) != 2 {
		return fmt.Errorf("result has %d key columns, want 2", len(res.GroupCols))
	}
	if got := digestView(generalView(res), stdSpecs, digestGeneral, s.sums); !got.equal(s.want) {
		return fmt.Errorf("checksums differ: got %v, want %v", got, s.want)
	}
	return nil
}

func (s *stringsInst) run(e *env) (*e2eSample, error) {
	return runSequential(e, int64(len(s.in.Columns[0])), func() (func() error, error) {
		res, err := cacheagg.AggregateGeneral(s.in, s.opt)
		return func() error { return s.check(res) }, err
	}), nil
}
