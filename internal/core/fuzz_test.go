package core

// Native Go fuzz targets. `go test` runs the seed corpus as regular tests;
// `go test -fuzz=FuzzAggregateMatchesReference ./internal/core` explores
// further. The fuzzer drives the full operator (all strategies, adversarial
// tiny caches) against the map-based reference.

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"cacheagg/internal/agg"
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

func FuzzAggregateMatchesReference(f *testing.F) {
	f.Add([]byte{1, 2, 3, 1, 2, 1}, uint8(0))
	f.Add([]byte{0, 0, 0, 0}, uint8(1))
	f.Add([]byte{255}, uint8(2))
	f.Add([]byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 9, 8, 7}, uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, mode uint8) {
		if len(data) == 0 || len(data) > 1<<14 {
			return
		}
		keys := decodeKeys(data)
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
			Strategy:    s,
			Workers:     1 + int(mode>>4)%3,
			CacheBytes:  8 << 10, // tiny: maximum recursion stress
			MorselRows:  64,
			ChunkRows:   32,
			CarryHashes: mode&1 == 1,
			EnablePlan:  mode&2 == 2,
		}
		if cfg.EnablePlan && len(keys) >= 64 {
			// Fuzz inputs are below the planner's minimum, so synthesize the
			// plan directly from fuzz bytes: the executor must stay correct
			// under arbitrary hot keys, table sizes, and routing decisions.
			cfg.Plan = &Plan{
				SampleRows:     len(keys),
				EstimatedK:     float64(data[0]) * 17,
				HotKeys:        []uint64{uint64(data[1]), uint64(data[2]), uint64(data[3])},
				HotHashes:      []uint64{0, 0, 0},
				HotMass:        float64(data[4]) / 255,
				StartPartition: data[5]&1 == 1,
				TableRows:      int(data[6]) << 6,
			}
		}
		res, err := Aggregate(cfg, in)
		if err != nil {
			t.Fatal(err)
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

// FuzzRoutineSelection drives the routine selector with fuzz-
// synthesized — frequently bogus — plans (huge/zero/NaN/Inf K̂ and α̂,
// drift-guard violations) and every routine override. The selector must
// sanitize: no panic, no livelock (the run completes inside the fuzz
// timeout), a forced sort-spill fails fast with ErrMemoryBudget and
// everything else returns exactly the reference answer.
func FuzzRoutineSelection(f *testing.F) {
	f.Add([]byte{1, 2, 3, 1, 2, 1, 9, 9}, uint8(0), uint8(0))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0}, uint8(2), uint8(255))
	f.Add([]byte{7, 7, 7, 7, 1, 2, 3, 4}, uint8(3), uint8(17))
	f.Add([]byte{200, 100, 50, 25, 12, 6, 3, 1}, uint8(1), uint8(64))
	f.Fuzz(func(t *testing.T, data []byte, routineByte, planByte uint8) {
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
		// A palette of plan-field poisons indexed by fuzz bytes.
		kPalette := []float64{0, 1, float64(data[0]) * 17, 1e300, math.Inf(1), math.NaN(), -3, 2}
		aPalette := []float64{0, 1e12, math.NaN(), math.Inf(1), -1, float64(data[1]), 200}
		plan := &Plan{
			SampleRows:     int(int8(data[2])) * 64, // negative half the time
			TotalRows:      len(keys),
			EstimatedK:     kPalette[int(planByte)%len(kPalette)],
			HalfSampleK:    kPalette[int(planByte>>3)%len(kPalette)],
			PredictedAlpha: aPalette[int(planByte>>5)%len(aPalette)],
			TableRows:      int(int8(data[3])) << 5,
		}
		cfg := Config{
			Strategy:   DefaultAdaptive(),
			Workers:    1 + int(routineByte>>4)%4,
			CacheBytes: 8 << 10,
			MorselRows: 64,
			ChunkRows:  32,
			Plan:       plan,
			Routine:    Routine(routineByte % 4), // includes one out-of-range value
		}
		res, err := Aggregate(cfg, in)
		if err != nil {
			if cfg.Routine == RoutineSortSpill && errors.Is(err, ErrMemoryBudget) {
				return // fail-fast contract: typed, immediate, no result
			}
			t.Fatalf("routine %v plan %+v: %v", cfg.Routine, plan, err)
		}
		want := refAggregate(in)
		if res.Groups() != len(want) {
			t.Fatalf("routine %v: %d groups, want %d", cfg.Routine, res.Groups(), len(want))
		}
		for r := 0; r < res.Groups(); r++ {
			wantRow, ok := want[res.Keys[r]]
			if !ok {
				t.Fatalf("phantom key %d", res.Keys[r])
			}
			for si := range in.Specs {
				if res.Aggs[si][r] != wantRow[si] {
					t.Fatalf("routine %v: key %d spec %v: %d != %d",
						cfg.Routine, res.Keys[r], in.Specs[si], res.Aggs[si][r], wantRow[si])
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
