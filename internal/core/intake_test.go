package core

// Tests of the fused final pass at intake: when no worker's intake split a
// table or scattered a row, the intake tables are the result. Every case is
// checked key by key against the map oracle, AVG float bits included, and
// for the top-digit prefix order of the output.

import (
	"context"
	"fmt"
	"testing"

	"cacheagg/internal/agg"
	"cacheagg/internal/datagen"
	"cacheagg/internal/hashfn"
	"cacheagg/internal/hashtable"
	"cacheagg/internal/memgov"
	"cacheagg/internal/xrand"
)

// keyedInput wraps keys with contractInput's two value columns and specs.
func keyedInput(keys []uint64, seed uint64) *Input {
	rng := xrand.NewXoshiro256(seed)
	c0 := make([]int64, len(keys))
	c1 := make([]int64, len(keys))
	for i := range c0 {
		r := rng.Next()
		c0[i] = int64(r%100003) - 50000
		c1[i] = int64(r >> 1)
	}
	return &Input{Keys: keys, AggCols: [][]int64{c0, c1}, Specs: contractSpecs}
}

// cyclicKeys returns n rows over exactly min(n, k) groups, each group's key
// spread over the whole key space.
func cyclicKeys(n, k int) []uint64 {
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i%k)*0x9E3779B97F4A7C15 + 1
	}
	return keys
}

// digitKeys returns n distinct keys whose hashes share top digit d, found
// by brute force over hashfn.Murmur2, starting the search at from.
func digitKeys(n, d int, from uint64) []uint64 {
	keys := make([]uint64, 0, n)
	for k := from; len(keys) < n; k++ {
		if hashfn.Digit(hashfn.Murmur2(k), 0) == d {
			keys = append(keys, k)
		}
	}
	return keys
}

// checkPrefixOrder checks the written order guarantee: the top hash digit
// never decreases along the result.
func checkPrefixOrder(t *testing.T, label string, res *Result) {
	t.Helper()
	for i := 1; i < res.Groups(); i++ {
		if hashfn.Digit(res.Hashes[i], 0) < hashfn.Digit(res.Hashes[i-1], 0) {
			t.Fatalf("%s: top-digit order violated at row %d", label, i)
		}
	}
}

// intakeLimit is the fill limit of the intake table over n rows of the
// contract specs at the default cache.
func intakeLimit(n int) int {
	words := agg.NewLayout(contractSpecs).Words
	c := intakeCapacity(n, cacheRows(DefaultCacheBytes, words))
	return int(float64(c) * hashtable.DefaultMaxFill)
}

// TestIntakeDirectEmit sweeps the input size across the intake table's
// sizes, with K just under and just over its fill limit, at 1, 2 and 3
// workers, without and with a governor: K under the limit never splits a
// table, and at one worker is one pass with one direct emit; K over it
// splits and recurses. A governed run drains its ledger to 0.
func TestIntakeDirectEmit(t *testing.T) {
	for _, n := range []int{0, 1, 64, 1024, 16383, 16384, 16385, 1 << 17} {
		lim := intakeLimit(n)
		for _, k := range []int{lim - 1, lim + 1} {
			k = max(min(k, n), 1)
			in := keyedInput(cyclicKeys(n, k), uint64(n+k))
			for _, w := range []int{1, 2, 3} {
				for _, governed := range []bool{false, true} {
					label := fmt.Sprintf("n=%d/K=%d/w%d/governed=%v", n, k, w, governed)
					cfg := Config{Workers: w, CollectStats: true}
					var gov *memgov.Governor
					if governed {
						gov = memgov.New(256 << 20)
						cfg.Governor = gov
					}
					res, err := Aggregate(cfg, in)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					checkContract(t, label, res, in)
					checkPrefixOrder(t, label, res)
					if gov != nil && gov.Reserved() != 0 {
						t.Fatalf("%s: ledger holds %d bytes after the run", label, gov.Reserved())
					}
					st := res.Stats
					switch {
					case n == 0:
						if st.DirectEmits != 0 || st.Passes != 0 {
							t.Fatalf("%s: empty input made %d emits over %d passes", label, st.DirectEmits, st.Passes)
						}
					case k > lim:
						if st.TablesEmitted == 0 || st.Passes < 2 {
							t.Fatalf("%s: K over the limit split %d tables over %d passes", label, st.TablesEmitted, st.Passes)
						}
					case st.TablesEmitted != 0:
						t.Fatalf("%s: K under the limit split %d tables", label, st.TablesEmitted)
					case w == 1 && (st.Passes != 1 || st.DirectEmits != 1):
						t.Fatalf("%s: %d passes and %d direct emits, want 1 and 1", label, st.Passes, st.DirectEmits)
					}
				}
			}
		}
	}
}

// TestIntakeDirectEmitEveryFamily runs every datagen family through the
// direct path (K under the limit) and past it, at 1, 2 and 3 workers.
func TestIntakeDirectEmitEveryFamily(t *testing.T) {
	for _, d := range datagen.Dists() {
		for _, k := range []uint64{1 << 10, 1 << 15} {
			keys := datagen.Generate(datagen.Spec{Dist: d, N: 1 << 16, K: k, Seed: 5})
			in := keyedInput(keys, k)
			for _, w := range []int{1, 2, 3} {
				label := fmt.Sprintf("%v/K=%d/w%d", d, k, w)
				res, err := Aggregate(Config{Workers: w}, in)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				checkContract(t, label, res, in)
				checkPrefixOrder(t, label, res)
			}
		}
	}
}

// TestIntakeBlockOverflowFallsBack: keys that share a top hash digit
// overflow one block of the intake table long before its fill limit. Below
// the cache size the short count grows the table, in the intake and in the
// absorb, so the run stays one pass with one direct emit, whatever the
// other workers' intakes held. A block overflow of a cache-sized table is a
// fill event: the worker that meets it splits its table and the run takes
// the recursive path.
func TestIntakeBlockOverflowFallsBack(t *testing.T) {
	// One morsel of 100 same-digit keys, then three morsels of 300
	// well-spread groups: 400 groups, under the fill limit of either
	// table. At the default cache the intake table has 16,384 slots, 64 a
	// block; at 64 KiB it is cache-sized, with 2,048 slots, 8 a block.
	keys := digitKeys(100, 7, 0)
	for len(keys) < 1024 {
		keys = append(keys, keys[len(keys)%100])
	}
	keys = append(keys, cyclicKeys(3072, 300)...)
	in := keyedInput(keys, 3)
	for _, cache := range []int{0, 64 << 10} {
		for _, w := range []int{1, 2, 3} {
			label := fmt.Sprintf("cache=%d/w%d", cache, w)
			res, err := Aggregate(Config{Workers: w, MorselRows: 1024, CacheBytes: cache, CollectStats: true}, in)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			checkContract(t, label, res, in)
			checkPrefixOrder(t, label, res)
			st := res.Stats
			if cache == 0 && (st.TablesEmitted != 0 || st.Passes != 1 || st.DirectEmits != 1) {
				t.Fatalf("%s: split %d tables over %d passes with %d direct emits, want a grown table emitted directly",
					label, st.TablesEmitted, st.Passes, st.DirectEmits)
			}
			if cache != 0 && (st.TablesEmitted == 0 || st.Passes < 2) {
				t.Fatalf("%s: block overflow split %d tables over %d passes, want a fallback", label, st.TablesEmitted, st.Passes)
			}
		}
	}
}

// TestIntakeAbsorbGrowsOrSplits drives finishIntake over two hand-filled
// intake tables. A union that fits is absorbed and emitted directly; so is
// a union over one block of the smallest table, which grows the target. A
// union over the fill limit of a cache-sized table splits the target into
// the root buckets and is recursed on. Every result is exact.
func TestIntakeAbsorbGrowsOrSplits(t *testing.T) {
	lim := intakeLimit(1 << 14)
	cases := []struct {
		name   string
		a, b   []uint64
		absorb bool
		grows  bool
	}{
		// b's groups are a subset of a's.
		{"union fits", cyclicKeys(4000, 3000), cyclicKeys(4000, 1500), true, false},
		// 6 + 6 keys of one digit in 2,048-slot tables of 8-slot blocks.
		{"union over one block", digitKeys(6, 3, 0), digitKeys(6, 3, 1<<32), true, true},
		{"union over the cache-sized fill limit", cyclicKeys(lim-100, lim-100), rangeKeys(lim-100, 1<<40), false, false},
	}
	for _, tc := range cases {
		keys := append(append([]uint64(nil), tc.a...), tc.b...)
		in := keyedInput(keys, 9)
		cfg := Config{Workers: 2, MorselRows: len(tc.a), CollectStats: true}.withDefaults()
		e, err := newExec(context.Background(), cfg, in)
		if err != nil {
			t.Fatal(err)
		}
		if len(e.workers) != 2 {
			t.Fatalf("%s: %d workers, want 2", tc.name, len(e.workers))
		}
		if !tc.absorb && e.intakeRows != e.cacheRows {
			t.Fatalf("%s: intake tables of %d slots, want cache-sized (%d)", tc.name, e.intakeRows, e.cacheRows)
		}
		for w, lo := range []int{0, len(tc.a)} {
			hi := lo + len(tc.a)
			if w == 1 {
				hi = len(keys)
			}
			tab := e.workers[w].table
			tab.ResetCapacity(e.intakeRows)
			tab.SetLevel(0)
			hs := make([]uint64, hi-lo)
			hashfn.HashBatch(keys[lo:hi], hs)
			if got := tab.InsertRawBatch(hs, keys[lo:hi], in.AggCols, lo, e.kern); got != hi-lo {
				t.Fatalf("%s: worker %d table took %d of %d rows alone", tc.name, w, got, hi-lo)
			}
		}
		e.finishIntake()
		if got := len(e.out.chunks) == 1 && e.root == nil; got != tc.absorb {
			t.Fatalf("%s: absorbed = %v (%d chunks), want %v", tc.name, got, len(e.out.chunks), tc.absorb)
		}
		grown := max(e.workers[0].table.CapacityRows(), e.workers[1].table.CapacityRows()) > e.intakeRows
		if grown != tc.grows {
			t.Fatalf("%s: target grew = %v, want %v", tc.name, grown, tc.grows)
		}
		if err := e.recurse(context.Background()); err != nil {
			t.Fatal(err)
		}
		res := assembled(t, e)
		checkContract(t, tc.name, res, in)
		checkPrefixOrder(t, tc.name, res)
		if direct := e.workers[0].stats.directEmits + e.workers[1].stats.directEmits; tc.absorb && direct != 1 {
			t.Fatalf("%s: %d direct emits, want 1", tc.name, direct)
		}
	}
}

// TestSmallDistinctInputsNeverFallBack: all-distinct inputs of a few
// hundred rows get the smallest intake table, whose blocks have 8 slots,
// and overflow one now and then. The table grows instead, so every one of
// 2,000 seeded inputs at each size is one pass with no table split.
func TestSmallDistinctInputsNeverFallBack(t *testing.T) {
	specs := []agg.Spec{{Kind: agg.Count}}
	for _, n := range []int{256, 400, 512, 768, 1024} {
		rng := xrand.NewXoshiro256(uint64(n))
		keys := make([]uint64, n)
		for trial := range 2000 {
			seen := make(map[uint64]bool, n)
			for i := range keys {
				k := rng.Next()
				for seen[k] {
					k = rng.Next()
				}
				seen[k] = true
				keys[i] = k
			}
			res, err := Aggregate(Config{Workers: 1, CollectStats: true}, &Input{Keys: keys, Specs: specs})
			if err != nil {
				t.Fatal(err)
			}
			if st := res.Stats; res.Groups() != n || st.TablesEmitted != 0 || st.Passes != 1 {
				t.Fatalf("n=%d trial %d: %d groups, %d tables split over %d passes, want %d, 0 and 1",
					n, trial, res.Groups(), st.TablesEmitted, st.Passes, n)
			}
		}
	}
}

// rangeKeys returns the n distinct keys from, from+1, ….
func rangeKeys(n int, from uint64) []uint64 {
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = from + uint64(i)
	}
	return keys
}

// TestSpillRunNeverDirectEmits: a run with a spill target keeps no intake
// table, so even K far under the limit recurses, and once it spilled its
// result is in total hash order.
func TestSpillRunNeverDirectEmits(t *testing.T) {
	in := keyedInput(cyclicKeys(1<<14, 1000), 11)
	for _, w := range []int{1, 2, 3} {
		for _, budget := range []int64{0, 1 << 30} {
			label := fmt.Sprintf("w%d/budget=%d", w, budget)
			cfg := Config{Workers: w, MorselRows: 4096, CollectStats: true,
				Governor: memgov.New(budget), Spill: &Spill{Dir: t.TempDir()}}
			res, err := Aggregate(cfg, in)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			checkContract(t, label, res, in)
			if res.Stats.Passes < 2 {
				t.Fatalf("%s: %d passes, want the recursive path", label, res.Stats.Passes)
			}
			if spilled := res.Spill.Buckets > 0; spilled != (budget == 0) {
				t.Fatalf("%s: spilled = %v", label, spilled)
			}
			if budget != 0 {
				continue
			}
			for i := 1; i < res.Groups(); i++ {
				if res.Hashes[i] <= res.Hashes[i-1] {
					t.Fatalf("%s: total hash order violated at row %d", label, i)
				}
			}
		}
	}
}

// TestIntakeCapacity pins the input-sized intake table: the smallest power
// of two whose fill limit holds n rows, within [minTableRows, cacheRows].
func TestIntakeCapacity(t *testing.T) {
	const cache = 1 << 16
	for _, tc := range []struct{ n, want int }{
		{0, minTableRows},
		{1, minTableRows},
		{minTableRows / 4, minTableRows},
		{minTableRows/4 + 1, 2 * minTableRows},
		{cache / 4, cache},
		{cache/4 + 1, cache},
		{1 << 30, cache},
	} {
		if got := intakeCapacity(tc.n, cache); got != tc.want {
			t.Errorf("intakeCapacity(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}
