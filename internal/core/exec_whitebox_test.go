package core

// White-box tests for engine paths that are hard to reach through the
// public surface: forced finalization at hash-digit exhaustion, a leaf
// whose keys share one probe start, the one-group fold past the last
// digit, a fixed-pass strategy's final sort and its int32 row cap, direct
// table emission, and chunk ordering. Runs carry the hash, so each test
// builds its runs from the hashes of real keys found by searching Murmur2,
// and the emitted keys are those keys recovered.

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync/atomic"
	"testing"

	"cacheagg/internal/agg"
	"cacheagg/internal/faultfs"
	"cacheagg/internal/hashfn"
	"cacheagg/internal/memgov"
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
	e, err := newExec(context.Background(), cfg, &Input{Keys: keys, AggCols: cols, Specs: specs})
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

// hashesWhere returns the Murmur2 hashes of the n smallest keys whose
// hash satisfies pred: a run column as the engine carries it.
func hashesWhere(n int, pred func(h uint64) bool) []uint64 {
	var hashes []uint64
	for k := uint64(0); len(hashes) < n; k++ {
		if h := hashfn.Murmur2(k); pred(h) {
			hashes = append(hashes, h)
		}
	}
	return hashes
}

// runBucketTask drives processBucket through the pool like the engine does.
func runBucketTask(e *exec, b *runs.Bucket, level int, prefix uint64) {
	e.pool.Run(func(ctx *sched.Ctx) { e.processBucket(ctx, b, level, prefix) })
}

func TestForcedFinalizationAtMaxLevels(t *testing.T) {
	// A bucket processed at MaxLevels has no hash digit left to partition
	// by: it must be finalized in one pass, here the sort leaf's, as it is
	// under the leaf threshold. The rows share the top digit, as a real
	// bucket's rows share their prefix.
	e := mkExec(nil, nil, nil)
	const n = 100
	r := &runs.Run{
		Keys:   hashesWhere(n, func(h uint64) bool { return hashfn.Digit(h, 0) == 0x5A }),
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
	for i, k := range res.Keys {
		if seen[k] || hashfn.Murmur2(k) != res.Hashes[i] || hashfn.Digit(res.Hashes[i], 0) != 0x5A {
			t.Fatalf("row %d: key %d, hash %#x, seen before %v", i, k, res.Hashes[i], seen[k])
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
		r.Keys = append(r.Keys, hashfn.Murmur2(uint64(i%3)))
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
		if res.Aggs[0][i] != 10 || res.Keys[i] > 2 {
			t.Fatalf("key %d count %d, want 10", res.Keys[i], res.Aggs[0][i])
		}
	}
}

func TestLeafHoldsOneLongProbeChain(t *testing.T) {
	// A leaf-sized bucket whose rows all share their low 12 bits, the
	// probe start of every table of up to 4096 slots, with more rows than
	// a block of a cache-sized table holds: the sort leaf, which orders
	// by every bit, must keep them all apart.
	e := mkExec(nil, nil, nil)
	if e.finalRows < 300 {
		t.Skip("cache too small for this scenario")
	}
	const n = 300 // more than blockRows = capRows/256 for a 32 KiB table
	r := &runs.Run{
		Keys:   hashesWhere(n, func(h uint64) bool { return h&0xFFF == 0x2A5 }),
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

// TestOneGroupBucketFolds: a bucket past the last digit holds one group
// however many rows it has, resident or partly spilled, and is folded into
// one state row through the merge kernels: the leaf scratch stays
// untouched, so it does not grow with the rows.
func TestOneGroupBucketFolds(t *testing.T) {
	const n, runRows = 1 << 16, 4096
	h := hashfn.Murmur2(42)
	for _, spill := range []bool{false, true} {
		cfg := Config{Workers: 1, CacheBytes: 32 << 10, ChunkRows: 128}
		if spill {
			cfg.Spill = &Spill{FS: newMemFS(), Dir: t.TempDir()}
		}
		e, err := newExec(context.Background(), cfg.withDefaults(), &Input{Specs: []agg.Spec{{Kind: agg.Count}}})
		if err != nil {
			t.Fatal(err)
		}
		ws := &e.workers[0]
		ws.mem.Reserve(int64(n) * e.interRow) // as a scatter reserves them
		var b runs.Bucket
		for lo := 0; lo < n; lo += runRows {
			r := &runs.Run{Keys: make([]uint64, runRows), States: [][]uint64{make([]uint64, runRows)}}
			for i := range r.Keys {
				r.Keys[i], r.States[0][i] = h, 1
			}
			b.Add(r)
			if spill && lo < n/2 {
				if err := e.spillBucket(ws, &b); err != nil {
					t.Fatal(err)
				}
			}
		}
		if spill && (len(b.Spilled) == 0 || len(b.Runs) == 0) {
			t.Fatalf("%d spilled and %d resident runs, want both", len(b.Spilled), len(b.Runs))
		}
		runBucketTask(e, &b, hashfn.MaxLevels, h)
		res := assembled(t, e)
		if res.Groups() != 1 || res.Keys[0] != 42 || res.Aggs[0][0] != n {
			t.Fatalf("spill %v: got %d groups, first key %d count %d; want key 42 counted %d times",
				spill, res.Groups(), res.Keys[0], res.Aggs[0][0], n)
		}
		if st := ws.stats; ws.leaf != nil || st.directEmits != 1 || st.hashedRows != n {
			t.Fatalf("spill %v: leaf scratch %v, %d direct emits, %d hashed rows; want none, 1, %d",
				spill, ws.leaf != nil, st.directEmits, st.hashedRows, n)
		}
		if spill {
			e.spill.close()
		}
	}
}

// TestFixedPassFinalBucketSorts: a fixed-pass strategy's final pass over
// a bucket with more groups than the leaf threshold sorts it, loses no
// group, and holds a scratch past finalRows only while it sorts: the
// scratch's reservation equals its allocation while it is held, and both
// are gone once the bucket is done.
func TestFixedPassFinalBucketSorts(t *testing.T) {
	cfg := Config{
		Strategy:   PartitionAlways(1),
		Workers:    1,
		CacheBytes: 32 << 10,
		ChunkRows:  128,
		Governor:   memgov.New(0),
	}.withDefaults()
	e, err := newExec(context.Background(), cfg, &Input{})
	if err != nil {
		t.Fatal(err)
	}
	n := 3 * e.cacheRows / 2
	hashes := hashesWhere(n, func(uint64) bool { return true })
	bucket := func() *runs.Bucket {
		var b runs.Bucket
		b.Add(&runs.Run{Keys: hashes, States: [][]uint64{}})
		return &b
	}
	ws := &e.workers[0]
	runBucketTask(e, bucket(), 1, 0)
	if res := assembled(t, e); res.Groups() != n {
		t.Fatalf("%d groups, want %d", res.Groups(), n)
	}
	// The bucket's rows were never reserved, so the consumed bucket
	// leaves its rows' release on the ledger beside the scratch's.
	rowsNet := -int64(n) * e.interRow
	ws.mem.Flush()
	if ws.leaf != nil || ws.mem.Net() != rowsNet {
		t.Fatalf("after the bucket: scratch held %v, worker reserved %d; want none, %d",
			ws.leaf != nil, ws.mem.Net(), rowsNet)
	}
	// The same sort, stopped before doBucket drops the scratch.
	e.pool.Run(func(ctx *sched.Ctx) { e.sortLeaf(ctx, ws, bucket(), 0, 1) })
	ws.mem.Flush()
	sc := ws.leaf
	if rows := len(sc.hashes); rows <= e.finalRows || rows < n || ws.mem.Net()-rowsNet != 16*int64(rows) {
		t.Fatalf("while sorting: scratch of %d rows, worker reserved %d beyond the rows; want ≥ %d rows at 16 bytes",
			rows, ws.mem.Net()-rowsNet, n)
	}
}

// openCounter counts the files opened through it.
type openCounter struct {
	faultfs.FS
	opens atomic.Int32
}

func (c *openCounter) Open(name string) (faultfs.File, error) {
	c.opens.Add(1)
	return c.FS.Open(name)
}

// TestSortPastInt32RowsFailsTyped: the final sort indexes rows with
// int32, so a bucket whose spilled run claims 2^31 rows fails the run with
// ErrMemoryBudget before the sort sizes its scratch or opens the file.
func TestSortPastInt32RowsFailsTyped(t *testing.T) {
	fs := &openCounter{FS: newMemFS()}
	cfg := Config{
		Strategy:   PartitionAlways(1),
		Workers:    1,
		CacheBytes: 32 << 10,
		Spill:      &Spill{FS: fs, Dir: t.TempDir()},
	}.withDefaults()
	e, err := newExec(context.Background(), cfg, &Input{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.spill.close()
	var b runs.Bucket
	b.Spilled = []runs.Spilled{{Path: "claimed", Rows: 1 << 31}}
	err = e.pool.Run(func(ctx *sched.Ctx) { e.processBucket(ctx, &b, 1, 0) })
	if !errors.Is(err, ErrMemoryBudget) || fs.opens.Load() != 0 || e.workers[0].leaf != nil {
		t.Fatalf("error %v, %d files opened, scratch made %v; want ErrMemoryBudget, none, no",
			err, fs.opens.Load(), e.workers[0].leaf != nil)
	}
}

func TestEmitTableChunkOrdering(t *testing.T) {
	// Chunks must be concatenated by bucket prefix: run two sibling
	// buckets in reverse prefix order and check the assembled output is
	// still ordered.
	e := mkExec(nil, nil, nil)
	mkBucket := func(digit int) *runs.Bucket {
		r := &runs.Run{
			Keys:   hashesWhere(50, func(h uint64) bool { return hashfn.Digit(h, 0) == digit }),
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
		r.Keys = append(r.Keys, hashfn.Murmur2(uint64(i%7)))
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
	e, err := newExec(context.Background(), cfg, &Input{Keys: []uint64{1, 2, 3}})
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
