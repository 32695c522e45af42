package main

import (
	"fmt"
	"math"

	"cacheagg"
)

// The reference every workload verifies against: a plain map from group key
// to scalar accumulators, built row by row in set-up. The first op of a run
// is compared against it key by key (never by position: the operator's
// order inside a hash-prefix leaf depends on the schedule); every later op
// is compared through order-independent checksums that cost one pass over
// the result and no allocation.

// oracle aggregates rows under keys of type K.
type oracle[K comparable] struct {
	specs []cacheagg.AggSpec
	index map[K]int32
	keys  []K
	count []int64
	// acc[s][g] is the accumulator of spec s for group g: the running
	// sum for Sum and Avg, the extreme for Min and Max, unused for Count.
	acc [][]int64
}

func newOracle[K comparable](specs []cacheagg.AggSpec) *oracle[K] {
	return &oracle[K]{
		specs: specs,
		index: make(map[K]int32),
		acc:   make([][]int64, len(specs)),
	}
}

// add folds row `row` of cols into the group of key.
func (o *oracle[K]) add(key K, cols [][]int64, row int) {
	g, ok := o.index[key]
	if !ok {
		g = int32(len(o.keys))
		o.index[key] = g
		o.keys = append(o.keys, key)
		o.count = append(o.count, 0)
		for s, sp := range o.specs {
			init := int64(0)
			switch sp.Func {
			case cacheagg.Min:
				init = math.MaxInt64
			case cacheagg.Max:
				init = math.MinInt64
			}
			o.acc[s] = append(o.acc[s], init)
		}
	}
	o.count[g]++
	for s, sp := range o.specs {
		if sp.Func == cacheagg.Count {
			continue
		}
		v := cols[sp.Col][row]
		a := &o.acc[s][g]
		switch sp.Func {
		case cacheagg.Sum, cacheagg.Avg:
			*a += v
		case cacheagg.Min:
			if v < *a {
				*a = v
			}
		case cacheagg.Max:
			if v > *a {
				*a = v
			}
		}
	}
}

// merge folds every group of other into o: the super-aggregate law the
// streaming oracle uses to combine per-block partial oracles.
func (o *oracle[K]) merge(other *oracle[K], times int64) {
	for g2, key := range other.keys {
		g, ok := o.index[key]
		if !ok {
			g = int32(len(o.keys))
			o.index[key] = g
			o.keys = append(o.keys, key)
			o.count = append(o.count, 0)
			for s := range o.specs {
				o.acc[s] = append(o.acc[s], other.acc[s][g2])
				if f := o.specs[s].Func; f == cacheagg.Sum || f == cacheagg.Avg {
					o.acc[s][g] = 0
				}
			}
		}
		o.count[g] += other.count[g2] * times
		for s, sp := range o.specs {
			v := other.acc[s][g2]
			a := &o.acc[s][g]
			switch sp.Func {
			case cacheagg.Sum, cacheagg.Avg:
				*a += v * times
			case cacheagg.Min:
				if v < *a {
					*a = v
				}
			case cacheagg.Max:
				if v > *a {
					*a = v
				}
			}
		}
	}
}

// groups returns the number of distinct keys.
func (o *oracle[K]) groups() int { return len(o.keys) }

// value returns the finalized integer of spec s for group g (Avg truncated
// toward zero, as the library documents).
func (o *oracle[K]) value(s, g int) int64 {
	switch o.specs[s].Func {
	case cacheagg.Count:
		return o.count[g]
	case cacheagg.Avg:
		return o.acc[s][g] / o.count[g]
	default:
		return o.acc[s][g]
	}
}

// float returns the exact finalized value of spec s for group g.
func (o *oracle[K]) float(s, g int) float64 {
	if o.specs[s].Func == cacheagg.Avg {
		return float64(o.acc[s][g]) / float64(o.count[g])
	}
	return float64(o.value(s, g))
}

// view is a read-only face over any of the library's result types.
type view[K comparable] struct {
	n   int
	key func(i int) K
	agg func(s, i int) int64
	// float is nil for result types without exact averages.
	float func(s, i int) float64
}

// checkFull compares v against the oracle group by group, looked up by
// key, including exact averages where the result exposes them.
func (o *oracle[K]) checkFull(v view[K]) error {
	if v.n != o.groups() {
		return fmt.Errorf("result has %d groups, oracle %d", v.n, o.groups())
	}
	seen := make([]bool, o.groups())
	for i := 0; i < v.n; i++ {
		k := v.key(i)
		g, ok := o.index[k]
		if !ok {
			return fmt.Errorf("row %d: key %v is not in the input", i, k)
		}
		if seen[g] {
			return fmt.Errorf("row %d: key %v appears twice", i, k)
		}
		seen[g] = true
		for s := range o.specs {
			if got, want := v.agg(s, i), o.value(s, int(g)); got != want {
				return fmt.Errorf("key %v %s: got %d, want %d", k, o.specs[s].Func, got, want)
			}
			if v.float != nil {
				if got, want := v.float(s, i), o.float(s, int(g)); got != want {
					return fmt.Errorf("key %v %s (float): got %v, want %v", k, o.specs[s].Func, got, want)
				}
			}
		}
	}
	return nil
}

// checksums is the order-independent digest of a result: any permutation of
// the same rows gives the same value, a dropped, duplicated or mis-folded
// group changes it.
type checksums struct {
	groups int
	rows   int64  // Σ COUNT when the specs include a Count, else 0
	keySum uint64 // Σ digest(key), wrapping
	keyXor uint64 // XOR digest(key)
	cols   []int64
}

func (c checksums) equal(d checksums) bool {
	if c.groups != d.groups || c.rows != d.rows || c.keySum != d.keySum ||
		c.keyXor != d.keyXor || len(c.cols) != len(d.cols) {
		return false
	}
	for i := range c.cols {
		if c.cols[i] != d.cols[i] {
			return false
		}
	}
	return true
}

func (c checksums) String() string {
	return fmt.Sprintf("groups=%d rows=%d keysum=%x keyxor=%x cols=%v",
		c.groups, c.rows, c.keySum, c.keyXor, c.cols)
}

// digestView computes the checksums of a result. cols must have one slot
// per spec; it is overwritten and returned inside the digest so the hot
// verification loop allocates nothing.
func digestView[K comparable](v view[K], specs []cacheagg.AggSpec, digest func(K) uint64, cols []int64) checksums {
	c := checksums{groups: v.n, cols: cols}
	for s := range cols {
		cols[s] = 0
	}
	for i := 0; i < v.n; i++ {
		d := digest(v.key(i))
		c.keySum += d
		c.keyXor ^= d
	}
	for s, sp := range specs {
		var sum int64
		for i := 0; i < v.n; i++ {
			sum += v.agg(s, i)
		}
		cols[s] = sum
		if sp.Func == cacheagg.Count && c.rows == 0 {
			c.rows = sum
		}
	}
	return c
}

// checksums digests the oracle itself — the expected value of digestView
// over any correct result.
func (o *oracle[K]) checksums(digest func(K) uint64) checksums {
	return digestView(view[K]{
		n:   o.groups(),
		key: func(i int) K { return o.keys[i] },
		agg: o.value,
	}, o.specs, digest, make([]int64, len(o.specs)))
}

func digestU64(k uint64) uint64 { return k }

// digestString is FNV-1a, enough to make key checksums sensitive to any
// changed byte.
func digestString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
