package core

// White-box tests for engine paths that are hard to reach through the
// public surface: forced finalization at hash-digit exhaustion, a leaf
// whose keys share one probe start, direct table emission, and chunk
// ordering. Runs hold keys only, so each test reaches its path with real
// keys found by searching their Murmur2 hashes.

import (
	"context"
	"math"
	"runtime"
	"testing"

	"cacheagg/internal/agg"
	"cacheagg/internal/hashfn"
	"cacheagg/internal/partition"
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

// keysWhere returns the n smallest keys whose Murmur2 hash satisfies pred.
func keysWhere(n int, pred func(h uint64) bool) []uint64 {
	var keys []uint64
	for k := uint64(0); len(keys) < n; k++ {
		if pred(hashfn.Murmur2(k)) {
			keys = append(keys, k)
		}
	}
	return keys
}

// runBucketTask drives processBucket through the pool like the engine does.
func runBucketTask(e *exec, b *runs.Bucket, level int, prefix uint64) {
	e.pool.Run(func(ctx *sched.Ctx) { e.processBucket(ctx, b, level, prefix) })
}

func TestForcedFinalizationAtMaxLevels(t *testing.T) {
	// A bucket processed at MaxLevels has no hash digit left to partition
	// by: it must finalize in one grown table. The rows share the top
	// digit, as a real bucket's rows share their prefix.
	e := mkExec(nil, nil, nil)
	const n = 100
	r := &runs.Run{
		Keys:   keysWhere(n, func(h uint64) bool { return hashfn.Digit(h, 0) == 0x5A }),
		States: [][]uint64{},
	}
	var b runs.Bucket
	b.Add(r)
	runBucketTask(e, &b, hashfn.MaxLevels, 0)
	res := assembled(t, e)
	if res.Groups() != n {
		t.Fatalf("MaxLevels bucket produced %d groups, want %d", res.Groups(), n)
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
	// Rows with repeated keys must merge their states.
	specs := []agg.Spec{{Kind: agg.Count}}
	e := mkExec(specs, nil, nil)
	r := &runs.Run{States: [][]uint64{{}}}
	for i := 0; i < 30; i++ {
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
	// A leaf-sized bucket whose rows all start probing at ONE slot, with
	// more rows than a block of a cache-sized table holds: the leaf table
	// is unblocked with room for four times the rows, so finalizeLeaf must
	// hold them all along one long probe chain.
	e := mkExec(nil, nil, nil)
	if e.finalRows < 300 {
		t.Skip("cache too small for this scenario")
	}
	// Hashes sharing their low 12 bits share the probe start of every
	// table of up to 4096 slots; the 300 rows' leaf table has 2048.
	const n = 300 // more than blockRows = capRows/256 for a 32 KiB table
	r := &runs.Run{
		Keys:   keysWhere(n, func(h uint64) bool { return h&0xFFF == 0x2A5 }),
		States: [][]uint64{},
	}
	var b runs.Bucket
	b.Add(r)
	if b.Rows() > e.finalRows {
		t.Skipf("bucket (%d) exceeds leaf threshold (%d)", b.Rows(), e.finalRows)
	}
	runBucketTask(e, &b, 1, 0)
	res := assembled(t, e)
	if res.Groups() != n {
		t.Fatalf("long probe chain lost groups: %d, want %d", res.Groups(), n)
	}
}

func TestEmitTableChunkOrdering(t *testing.T) {
	// Chunks must be concatenated by bucket prefix: run two sibling
	// buckets in reverse prefix order and check the assembled output is
	// still ordered.
	e := mkExec(nil, nil, nil)
	mkBucket := func(digit int) *runs.Bucket {
		r := &runs.Run{
			Keys:   keysWhere(50, func(h uint64) bool { return hashfn.Digit(h, 0) == digit }),
			States: [][]uint64{},
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
	// Digit-level ordering is the guarantee: the digit-2 bucket first.
	for i, h := range res.Hashes {
		want := 2
		if i >= 50 {
			want = 9
		}
		if d := hashfn.Digit(h, 0); d != want || h != hashfn.Murmur2(res.Keys[i]) {
			t.Fatalf("row %d: key %d, hash %#x (top digit %d), want top digit %d", i, res.Keys[i], h, d, want)
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
		r.Keys = append(r.Keys, uint64(i%7))
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

// TestScattererAllocMatchesWorkerBytes: the write-combining term of
// workerBytes (swcBytes) is what partition.New really allocates, so the
// governor's ledger follows the scatter buffers' layout. The slack covers
// the scatterer's bookkeeping (256 writers, buffer lengths, column views):
// at most 32 KiB, against 128 KiB per buffered column.
func TestScattererAllocMatchesWorkerBytes(t *testing.T) {
	const slack = 32 << 10
	for words := 0; words <= 5; words++ {
		term := swcBytes(words)
		alloc := int64(math.MaxInt64)
		for range 5 { // the least of a few tries: other goroutines allocate too
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			s := partition.New(partition.Config{Words: words})
			runtime.ReadMemStats(&after)
			runtime.KeepAlive(s)
			alloc = min(alloc, int64(after.TotalAlloc-before.TotalAlloc))
		}
		if alloc < term || alloc > term+slack {
			t.Errorf("words %d: partition.New allocated %d bytes, workerBytes charges %d (slack %d)",
				words, alloc, term, slack)
		}
	}
}
