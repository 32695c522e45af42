package core

// White-box tests for engine paths that are hard to reach through the
// public surface: forced finalization at hash-digit exhaustion (64-bit
// collisions), the leaf fallback on block overflow, direct table emission,
// and chunk ordering.

import (
	"context"
	"sort"
	"testing"

	"cacheagg/internal/agg"
	"cacheagg/internal/hashfn"
	"cacheagg/internal/runs"
	"cacheagg/internal/sched"
)

// mkExec builds an exec with a tiny cache for direct engine-level tests.
func mkExec(specs []agg.Spec, keys []uint64, cols [][]int64) *exec {
	cfg := Config{
		Strategy:   DefaultAdaptive(),
		Workers:    1,
		CacheBytes: 32 << 10,
		MorselRows: 1024,
		ChunkRows:  128,
	}.withDefaults()
	e, err := newExec(cfg, &Input{Keys: keys, AggCols: cols, Specs: specs})
	if err != nil {
		panic(err)
	}
	return e
}

// assembled runs e's finalize round, failing the test on error.
func assembled(t *testing.T, e *exec) *Result {
	t.Helper()
	res, err := e.assemble(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// runBucketTask drives processBucket through the pool like the engine does.
func runBucketTask(e *exec, b *runs.Bucket, level int, prefix uint64) {
	e.pool.Run(func(ctx *sched.Ctx) { e.processBucket(ctx, b, level, prefix) })
}

func TestForcedFinalizationAtMaxLevels(t *testing.T) {
	// A bucket processed at MaxLevels must finalize even though all rows
	// share every hash digit — the 64-bit collision case. Build rows with
	// IDENTICAL hashes but distinct keys.
	e := mkExec(nil, nil, nil)
	const sameHash = uint64(0xDEADBEEFCAFEF00D)
	r := &runs.Run{States: [][]uint64{}}
	const n = 100
	for k := uint64(0); k < n; k++ {
		r.Hashes = append(r.Hashes, sameHash)
		r.Keys = append(r.Keys, k)
	}
	var b runs.Bucket
	b.Add(r)
	runBucketTask(e, &b, hashfn.MaxLevels, 0)
	res := assembled(t, e)
	if res.Groups() != n {
		t.Fatalf("collision bucket produced %d groups, want %d", res.Groups(), n)
	}
	seen := map[uint64]bool{}
	for _, k := range res.Keys {
		if seen[k] {
			t.Fatalf("duplicate key %d", k)
		}
		seen[k] = true
	}
}

func TestForcedFinalizationMergesDuplicates(t *testing.T) {
	// Same-hash rows with REPEATED keys must merge their states.
	specs := []agg.Spec{{Kind: agg.Count}}
	e := mkExec(specs, nil, nil)
	const sameHash = uint64(42)
	r := &runs.Run{States: [][]uint64{{}}}
	for i := 0; i < 30; i++ {
		r.Hashes = append(r.Hashes, sameHash)
		r.Keys = append(r.Keys, uint64(i%3))
		r.States[0] = append(r.States[0], 1) // COUNT partial of 1
	}
	var b runs.Bucket
	b.Add(r)
	runBucketTask(e, &b, hashfn.MaxLevels, 0)
	res := assembled(t, e)
	if res.Groups() != 3 {
		t.Fatalf("got %d groups, want 3", res.Groups())
	}
	for i := range res.Keys {
		if res.Aggs[0][i] != 10 {
			t.Fatalf("key %d count %d, want 10", res.Keys[i], res.Aggs[0][i])
		}
	}
}

func TestLeafBlockOverflowFallsBackToGrownTable(t *testing.T) {
	// Craft a leaf-sized bucket whose rows all land in ONE block of a
	// blocked table (identical digit at every level ⇒ same block), with
	// more rows than a single block of one holds. The leaf table is
	// unblocked with room for twice the rows, so finalizeLeaf must still
	// hold them all.
	e := mkExec(nil, nil, nil)
	if e.finalRows < 300 {
		t.Skip("cache too small for this scenario")
	}
	r := &runs.Run{States: [][]uint64{}}
	// All hashes share every 8-bit digit (hash = repeated byte pattern)
	// but differ in nothing else — identical full hash, distinct keys, so
	// every insert probes the same block.
	const n = 300 // more than blockRows = capRows/256 for a 32 KiB table
	for k := uint64(0); k < n; k++ {
		r.Hashes = append(r.Hashes, 0x1111111111111111)
		r.Keys = append(r.Keys, k)
	}
	var b runs.Bucket
	b.Add(r)
	if b.Rows() > e.finalRows {
		t.Skipf("bucket (%d) exceeds leaf threshold (%d)", b.Rows(), e.finalRows)
	}
	runBucketTask(e, &b, 1, 0)
	res := assembled(t, e)
	if res.Groups() != n {
		t.Fatalf("block-overflow fallback lost groups: %d, want %d", res.Groups(), n)
	}
}

func TestEmitTableChunkOrdering(t *testing.T) {
	// Chunks must be concatenated by bucket prefix: run two sibling
	// buckets in reverse prefix order and check the assembled output is
	// still ordered.
	e := mkExec(nil, nil, nil)
	mkBucket := func(digit uint64) *runs.Bucket {
		r := &runs.Run{States: [][]uint64{}}
		for i := uint64(0); i < 50; i++ {
			h := digit<<56 | i<<8 // digit-0 fixed, spread below
			r.Hashes = append(r.Hashes, h)
			r.Keys = append(r.Keys, digit*1000+i)
		}
		var b runs.Bucket
		b.Add(r)
		return &b
	}
	// Process high-digit bucket first.
	runBucketTask(e, mkBucket(9), 1, 9)
	runBucketTask(e, mkBucket(2), 1, 2)
	res := assembled(t, e)
	if res.Groups() != 100 {
		t.Fatalf("groups = %d", res.Groups())
	}
	if !sort.SliceIsSorted(res.Hashes, func(i, j int) bool { return res.Hashes[i] < res.Hashes[j] }) {
		// Digit-level ordering is the guarantee.
		for i := 1; i < len(res.Hashes); i++ {
			if res.Hashes[i]>>56 < res.Hashes[i-1]>>56 {
				t.Fatalf("prefix order violated at %d", i)
			}
		}
	}
}

func TestDirectEmitOnLowCardinalityBucket(t *testing.T) {
	// A big bucket with few groups must be absorbed by one table and
	// emitted directly (the fused final pass), not recursed.
	e := mkExec(nil, nil, nil)
	r := &runs.Run{States: [][]uint64{}}
	const n = 5000 // above finalRows for the 32 KiB cache
	if n <= e.finalRows {
		t.Skipf("finalRows %d too large", e.finalRows)
	}
	for i := 0; i < n; i++ {
		k := uint64(i % 7)
		r.Hashes = append(r.Hashes, hashfn.Murmur2(k))
		r.Keys = append(r.Keys, k)
	}
	var b runs.Bucket
	b.Add(r)
	// NOTE: rows of this bucket have arbitrary top digits; process at
	// level 1 anyway (the engine never depends on the prefix actually
	// matching for correctness, only for output ordering).
	runBucketTask(e, &b, 1, 0)
	res := assembled(t, e)
	if res.Groups() != 7 {
		t.Fatalf("groups = %d, want 7", res.Groups())
	}
	if e.workers[0].stats.directEmits == 0 {
		t.Fatal("expected a direct emit")
	}
}

func TestCapacityFloor(t *testing.T) {
	// Even an absurdly small cache budget must yield a usable table
	// (capacity floor of fanout × MinBlockRows).
	cfg := Config{CacheBytes: 64, Workers: 1}.withDefaults()
	e, err := newExec(cfg, &Input{Keys: []uint64{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if e.cacheRows < hashfn.Fanout*8 {
		t.Fatalf("cacheRows = %d below floor", e.cacheRows)
	}
	if err := e.run(context.Background()); err != nil {
		t.Fatal(err)
	}
	res := assembled(t, e)
	if res.Groups() != 3 {
		t.Fatalf("groups = %d", res.Groups())
	}
}

func TestIntakeRespectsMorselBoundaries(t *testing.T) {
	// A morsel grain larger than the input must still work, as must a
	// grain of 1.
	for _, grain := range []int{1, 7, 1 << 20} {
		cfg := Config{Workers: 2, MorselRows: grain, CacheBytes: 32 << 10}
		keys := make([]uint64, 500)
		for i := range keys {
			keys[i] = uint64(i % 50)
		}
		res, err := Distinct(cfg, keys)
		if err != nil {
			t.Fatal(err)
		}
		if res.Groups() != 50 {
			t.Fatalf("grain %d: groups = %d", grain, res.Groups())
		}
	}
}

func TestScattererAndTableReuseAcrossRuns(t *testing.T) {
	// The same exec config executed repeatedly must not leak state
	// between executions (worker resources are rebuilt per exec, but this
	// guards the Reset paths).
	cfg := Config{Workers: 1, CacheBytes: 32 << 10}
	for round := 0; round < 5; round++ {
		keys := make([]uint64, 2000)
		for i := range keys {
			keys[i] = uint64(round*10000 + i)
		}
		res, err := Distinct(cfg, keys)
		if err != nil {
			t.Fatal(err)
		}
		if res.Groups() != 2000 {
			t.Fatalf("round %d: groups = %d", round, res.Groups())
		}
	}
}
