package core

// White-box tests for engine paths that are hard to reach through the
// public surface: forced finalization at hash-digit exhaustion, a leaf
// whose keys share one probe start, the finalization table's size and
// growth and its refusal at the cap, direct table emission, and chunk
// ordering. Runs carry the hash, so each test builds its runs from the
// hashes of real keys found by searching Murmur2, and the emitted keys are
// those keys recovered.

import (
	"context"
	"errors"
	"math"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"cacheagg/internal/agg"
	"cacheagg/internal/hashfn"
	"cacheagg/internal/hashtable"
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
	// by: it must finalize in the finalization table. The rows share the top
	// digit, as a real bucket's rows share their prefix.
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
	// A leaf-sized bucket whose rows all start probing at ONE slot, with
	// more rows than a block of a cache-sized table holds: the
	// finalization table is unblocked with room for four times the rows,
	// so finalize must hold them all along one long probe chain.
	e := mkExec(nil, nil, nil)
	if e.finalRows < 300 {
		t.Skip("cache too small for this scenario")
	}
	// Hashes sharing their low 12 bits share the probe start of every
	// table of up to 4096 slots; the 300 rows' leaf table has 2048.
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

// TestOneGroupBucketGetsASmallTable: a bucket past the last digit holds
// one key however many rows it has, so it finalizes in a table that starts
// at most cache-sized and never grows, not in one sized to its rows.
func TestOneGroupBucketGetsASmallTable(t *testing.T) {
	e := mkExec([]agg.Spec{{Kind: agg.Count}}, nil, nil)
	const n = 1 << 16
	r := &runs.Run{Keys: make([]uint64, n), States: [][]uint64{make([]uint64, n)}}
	for i := range r.Keys {
		r.Keys[i], r.States[0][i] = hashfn.Murmur2(42), 1
	}
	var b runs.Bucket
	b.Add(r)
	runBucketTask(e, &b, hashfn.MaxLevels, 0)
	res := assembled(t, e)
	if res.Groups() != 1 || res.Keys[0] != 42 || res.Aggs[0][0] != n {
		t.Fatalf("got %d groups, first key %d count %d; want key 42 counted %d times",
			res.Groups(), res.Keys[0], res.Aggs[0][0], n)
	}
	fin := e.workers[0].final
	slots := fin.FootprintBytes() / int64(hashtable.SlotBytes(e.words))
	if fin.CapacityRows() > e.cacheRows || slots > int64(e.cacheRows) {
		t.Fatalf("one group finalized in %d slots of an allocation of %d, want at most %d",
			fin.CapacityRows(), slots, e.cacheRows)
	}
}

// TestFinalizationTableGrows: a fixed-pass strategy's single pass over a
// bucket with more groups than half a cache-sized table grows the
// finalization table past the cache size, loses no group, and keeps the
// table's reservation equal to its allocation.
func TestFinalizationTableGrows(t *testing.T) {
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
	r := &runs.Run{Keys: hashesWhere(n, func(uint64) bool { return true }), States: [][]uint64{}}
	var b runs.Bucket
	b.Add(r)
	runBucketTask(e, &b, 1, 0)
	res := assembled(t, e)
	if res.Groups() != n {
		t.Fatalf("%d groups, want %d", res.Groups(), n)
	}
	ws := &e.workers[0]
	if got, want := ws.final.CapacityRows(), 4*e.cacheRows; got != want {
		t.Fatalf("finalization table of %d slots, want %d", got, want)
	}
	// The bucket's rows were never reserved, so the consumed bucket
	// leaves its rows' release beside the table's reservation.
	ws.mem.Flush()
	if got, want := ws.mem.Net(), ws.final.FootprintBytes()-int64(n)*e.interRow; got != want {
		t.Fatalf("worker reserved %d bytes, want the table's %d less the bucket's rows", got, want)
	}
}

// TestFinalizationTableAtTheCapFailsTyped: a finalization table at
// hashtable.MaxSlots that stops short cannot grow, and the run fails with
// ErrMemoryBudget rather than a panic. The test sets the table's logical
// capacity field to the cap in place of a 2^31-slot allocation; Grow
// refuses on that field alone.
func TestFinalizationTableAtTheCapFailsTyped(t *testing.T) {
	e := mkExec(nil, nil, nil)
	ws := &e.workers[0]
	table := e.finalTable(ws, 1)
	capRows := reflect.ValueOf(table).Elem().FieldByName("capRows")
	*(*int)(unsafe.Pointer(capRows.UnsafeAddr())) = hashtable.MaxSlots
	r := &runs.Run{Keys: hashesWhere(table.MaxRows()+1, func(uint64) bool { return true }), States: [][]uint64{}}
	var absorbed bool
	err := e.pool.Run(func(ctx *sched.Ctx) { absorbed = e.absorbRun(ctx, ws, table, r) })
	if absorbed || !errors.Is(err, ErrMemoryBudget) {
		t.Fatalf("absorb at the cap: absorbed %v, error %v; want a failure wrapping ErrMemoryBudget", absorbed, err)
	}
	if table.Len() != table.MaxRows() || table.CapacityRows() != hashtable.MaxSlots {
		t.Fatalf("refused table holds %d groups in %d slots, want %d in %d",
			table.Len(), table.CapacityRows(), table.MaxRows(), hashtable.MaxSlots)
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
