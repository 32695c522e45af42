package core

// Native Go fuzz targets. `go test` runs the seed corpus as regular tests;
// `go test -fuzz=FuzzAggregateMatchesReference ./internal/core` explores
// further. The fuzzer drives the full operator (all strategies, adversarial
// tiny caches) against the map-based reference.

import (
	"bytes"
	"encoding/binary"
	"testing"

	"cacheagg/internal/agg"
	"cacheagg/internal/hashfn"
	"cacheagg/internal/memgov"
)

// decodeKeys derives a key stream from fuzz bytes: each byte is a key, so
// collisions and runs of equal keys are frequent (the interesting cases).
func decodeKeys(data []byte) []uint64 {
	keys := make([]uint64, len(data))
	for i, b := range data {
		keys[i] = uint64(b)
	}
	return keys
}

// decodePairs derives wider keys: each two bytes are a key, so up to
// 65,536 groups.
func decodePairs(data []byte) []uint64 {
	keys := make([]uint64, (len(data)+1)/2)
	for i, b := range data {
		keys[i/2] |= uint64(b) << (8 * (i % 2))
	}
	return keys
}

func FuzzAggregateMatchesReference(f *testing.F) {
	f.Add([]byte{1, 2, 3, 1, 2, 1}, uint8(0))
	f.Add([]byte{0, 0, 0, 0}, uint8(1))
	f.Add([]byte{255}, uint8(2))
	f.Add([]byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 9, 8, 7}, uint8(3))
	// Twelve two-byte keys of one top hash digit overflow a block of the
	// smallest intake table at the 1 MiB cache: HASHINGONLY grows it.
	var sameDigit []byte
	for k := uint64(0); len(sameDigit) < 24; k++ {
		if hashfn.Digit(hashfn.Murmur2(k), 0) == 0 {
			sameDigit = append(sameDigit, byte(k), byte(k>>8))
		}
	}
	f.Add(sameDigit, uint8(24))
	// 4,096 copies of one key at the 8 KiB cache, whose leaf threshold is
	// 1,024 rows: PARTITIONALWAYS(1) sorts the level-1 bucket as its final
	// pass, and PARTITIONONLY partitions it past the last digit, where it
	// is folded into one state row.
	f.Add(bytes.Repeat([]byte{7}, 4096), uint8(1))
	f.Add(bytes.Repeat([]byte{7}, 4096), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, mode uint8) {
		if len(data) == 0 || len(data) > 1<<14 {
			return
		}
		// Mode bit 3 selects a 1 MiB cache, whose intake tables start below
		// the cache size and grow on a short count, with two bytes a key:
		// enough groups to overflow a block and, at two or three workers,
		// the fill limit of the absorb's cache-sized target.
		keys, cacheBytes := decodeKeys(data), 8<<10 // tiny: maximum recursion stress
		if mode&8 != 0 {
			keys, cacheBytes = decodePairs(data), 1<<20
		}
		vals := make([]int64, len(keys))
		for i := range vals {
			vals[i] = int64(int8(data[i])) // reuse bytes as signed values
		}
		in := &Input{
			Keys:    keys,
			AggCols: [][]int64{vals},
			Specs: []agg.Spec{
				{Kind: agg.Count},
				{Kind: agg.Sum, Col: 0},
				{Kind: agg.Min, Col: 0},
				{Kind: agg.Max, Col: 0},
				{Kind: agg.Avg, Col: 0},
			},
		}
		strategies := allStrategies()
		s := strategies[int(mode)%len(strategies)]
		cfg := Config{
			Strategy:     s,
			Workers:      1 + int(mode>>4)%3,
			CacheBytes:   cacheBytes,
			MorselRows:   64,
			ChunkRows:    32,
			CollectStats: mode&1 == 1,
		}
		res, err := Aggregate(cfg, in)
		if err != nil {
			t.Fatal(err)
		}
		// Every intake row is hashed or partitioned, with or without
		// CollectStats; later passes only add to the counts.
		if st := res.Stats; st.HashedRows+st.PartitionedRows < int64(len(keys)) || st.Passes < 1 {
			t.Fatalf("%s: stats %+v for %d rows", s.Name(), st, len(keys))
		}
		want := refAggregate(in)
		if res.Groups() != len(want) {
			t.Fatalf("%s: %d groups, want %d", s.Name(), res.Groups(), len(want))
		}
		for r := 0; r < res.Groups(); r++ {
			wantRow, ok := want[res.Keys[r]]
			if !ok {
				t.Fatalf("phantom key %d", res.Keys[r])
			}
			for si := range in.Specs {
				if res.Aggs[si][r] != wantRow[si] {
					t.Fatalf("%s: key %d spec %v: %d != %d",
						s.Name(), res.Keys[r], in.Specs[si], res.Aggs[si][r], wantRow[si])
				}
			}
		}
	})
}

// FuzzRoutineSelection drives the three configurations the spill rule is
// derived from: no spill target (never spills), a spill target without a
// byte budget (every non-empty level-0 bucket spills) and a spill target
// with a generous budget (spills nothing). Each returns exactly the
// reference answer; there is no routine to choose.
func FuzzRoutineSelection(f *testing.F) {
	f.Add([]byte{1, 2, 3, 1, 2, 1, 9, 9}, uint8(0))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0}, uint8(2))
	f.Add([]byte{7, 7, 7, 7, 1, 2, 3, 4}, uint8(3))
	f.Add([]byte{200, 100, 50, 25, 12, 6, 3, 1}, uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, modeByte uint8) {
		if len(data) < 8 || len(data) > 1<<14 {
			return
		}
		keys := decodeKeys(data)
		vals := make([]int64, len(keys))
		for i := range vals {
			vals[i] = int64(int8(data[i]))
		}
		in := &Input{
			Keys:    keys,
			AggCols: [][]int64{vals},
			Specs: []agg.Spec{
				{Kind: agg.Count},
				{Kind: agg.Sum, Col: 0},
				{Kind: agg.Avg, Col: 0},
			},
		}
		cfg := Config{
			Strategy:     DefaultAdaptive(),
			Workers:      1 + int(modeByte>>4)%4,
			CacheBytes:   8 << 10,
			MorselRows:   64,
			ChunkRows:    32,
			CollectStats: true,
		}
		mode := modeByte % 3
		if mode > 0 {
			cfg.Spill = &Spill{Dir: t.TempDir()}
		}
		if mode == 2 {
			cfg.Governor = memgov.New(64 << 20)
		}
		res, err := Aggregate(cfg, in)
		if err != nil {
			t.Fatalf("mode %d: %v", mode, err)
		}
		if sp := res.Spill; mode == 1 && (sp.ResidentRoots != 0 || sp.Buckets == 0) ||
			mode != 1 && sp.Buckets != 0 {
			t.Fatalf("mode %d: spill stats %+v", mode, sp)
		}
		want := refAggregate(in)
		if res.Groups() != len(want) {
			t.Fatalf("mode %d: %d groups, want %d", mode, res.Groups(), len(want))
		}
		for r := 0; r < res.Groups(); r++ {
			wantRow, ok := want[res.Keys[r]]
			if !ok {
				t.Fatalf("phantom key %d", res.Keys[r])
			}
			for si := range in.Specs {
				if res.Aggs[si][r] != wantRow[si] {
					t.Fatalf("mode %d: key %d spec %v: %d != %d",
						mode, res.Keys[r], in.Specs[si], res.Aggs[si][r], wantRow[si])
				}
			}
		}
	})
}

// FuzzWideKeys exercises the full 64-bit key space (hash digit coverage).
func FuzzWideKeys(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 8 || len(data) > 1<<13 {
			return
		}
		n := len(data) / 8
		keys := make([]uint64, n)
		for i := 0; i < n; i++ {
			keys[i] = binary.LittleEndian.Uint64(data[i*8:])
		}
		cfg := Config{Workers: 2, CacheBytes: 8 << 10, MorselRows: 128}
		res, err := Distinct(cfg, keys)
		if err != nil {
			t.Fatal(err)
		}
		ref := map[uint64]struct{}{}
		for _, k := range keys {
			ref[k] = struct{}{}
		}
		if res.Groups() != len(ref) {
			t.Fatalf("%d groups, want %d", res.Groups(), len(ref))
		}
	})
}
