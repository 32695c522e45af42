// Package columnar implements the three column-wise processing models the
// paper contrasts in Section 3.3 (Figure 2):
//
//   - Row-at-a-time: all columns of a row are touched together. Known to
//     prevent tight loops and to shrink the effective cache (a "row" of all
//     attributes is wider than one attribute).
//   - Column-at-a-time (MonetDB): a first operator consumes the grouping
//     column and materializes a FULL mapping vector (row → group index); a
//     second operator applies that vector to each aggregate column. Costs
//     extra memory traffic for the vector, and the aggregate application
//     has the scattered access pattern of naive HASHAGGREGATION.
//   - Block-wise interleaved (MonetDB/X100): the mapping vector is produced
//     and applied one cache-sized block at a time, never materialized to
//     memory — the model the paper adopts inside its operator.
//
// The operator's own form of the mapping vector, destination partitions
// instead of group indices, is partition.Scatterer's block kernel (the
// `map` bar of Figure 3).
package columnar

import "cacheagg/internal/hashfn"

// GroupMapping is the output of the MonetDB-style first operator: the
// distinct groups in first-appearance order and, for every input row, the
// index of its group.
type GroupMapping struct {
	Groups []uint64
	Map    []uint32
}

// MapGroups builds the group vector and mapping vector of a key column
// (operator 1 of Figure 2's column-at-a-time model).
func MapGroups(keys []uint64) GroupMapping {
	gm := GroupMapping{Map: make([]uint32, len(keys))}
	idx := newIndex(1024)
	for i, k := range keys {
		id, fresh := idx.getOrAdd(k, uint32(len(gm.Groups)))
		if fresh {
			gm.Groups = append(gm.Groups, k)
		}
		gm.Map[i] = id
	}
	return gm
}

// index is a minimal open-addressing key → uint32 map.
type index struct {
	keys []uint64 // key+1, 0 empty
	vals []uint32
	rows int
}

func newIndex(slots int) *index {
	p := 16
	for p < slots {
		p <<= 1
	}
	return &index{keys: make([]uint64, p), vals: make([]uint32, p)}
}

func (ix *index) getOrAdd(key uint64, next uint32) (uint32, bool) {
	if ix.rows*2 >= len(ix.keys) {
		ix.grow()
	}
	mask := uint64(len(ix.keys) - 1)
	s := hashfn.Murmur2(key) & mask
	for {
		switch ix.keys[s] {
		case 0:
			ix.keys[s] = key + 1
			ix.vals[s] = next
			ix.rows++
			return next, true
		case key + 1:
			return ix.vals[s], false
		}
		s = (s + 1) & mask
	}
}

func (ix *index) grow() {
	old := *ix
	ix.keys = make([]uint64, len(old.keys)*2)
	ix.vals = make([]uint32, len(old.vals)*2)
	ix.rows = 0
	mask := uint64(len(ix.keys) - 1)
	for s, k := range old.keys {
		if k == 0 {
			continue
		}
		p := hashfn.Murmur2(k-1) & mask
		for ix.keys[p] != 0 {
			p = (p + 1) & mask
		}
		ix.keys[p] = k
		ix.vals[p] = old.vals[s]
		ix.rows++
	}
}

// SumRowAtATime aggregates SUM(vals) GROUP BY keys touching both columns
// row by row (the first model of Section 3.3).
func SumRowAtATime(keys []uint64, vals []int64) ([]uint64, []int64) {
	idx := newIndex(1024)
	var groups []uint64
	var sums []int64
	for i, k := range keys {
		id, fresh := idx.getOrAdd(k, uint32(len(groups)))
		if fresh {
			groups = append(groups, k)
			sums = append(sums, 0)
		}
		sums[id] += vals[i]
	}
	return groups, sums
}

// SumColumnAtATime aggregates with a fully materialized mapping vector
// (the MonetDB model): one pass to build the mapping, one pass per
// aggregate column to apply it. The apply pass has the scattered
// out[mapping[i]] access pattern the paper warns about for large outputs.
func SumColumnAtATime(keys []uint64, vals []int64) ([]uint64, []int64) {
	gm := MapGroups(keys)
	sums := make([]int64, len(gm.Groups))
	for i, g := range gm.Map {
		sums[g] += vals[i]
	}
	return gm.Groups, sums
}

// DefaultBlockRows is the block size of the interleaved model: small
// enough that the block's mapping vector stays cache resident.
const DefaultBlockRows = 4096

// SumBlockWise aggregates with block-wise interleaving (the MonetDB/X100
// model the paper adopts): the mapping vector exists only for one
// cache-sized block at a time.
func SumBlockWise(keys []uint64, vals []int64, blockRows int) ([]uint64, []int64) {
	if blockRows <= 0 {
		blockRows = DefaultBlockRows
	}
	idx := newIndex(1024)
	var groups []uint64
	var sums []int64
	mapping := make([]uint32, blockRows)
	for lo := 0; lo < len(keys); lo += blockRows {
		hi := min(lo+blockRows, len(keys))
		blk := mapping[:hi-lo]
		// Produce the block's mapping from the grouping column…
		for j := range blk {
			id, fresh := idx.getOrAdd(keys[lo+j], uint32(len(groups)))
			if fresh {
				groups = append(groups, keys[lo+j])
				sums = append(sums, 0)
			}
			blk[j] = id
		}
		// …then immediately apply it to the aggregate column fragment.
		for j, g := range blk {
			sums[g] += vals[lo+j]
		}
	}
	return groups, sums
}
