package runs

import (
	"testing"
	"testing/quick"

	"cacheagg/internal/xrand"
)

func TestWriterSingleChunk(t *testing.T) {
	w := NewWriter(10, 2)
	for i := 0; i < 5; i++ {
		w.Append(uint64(i*100), uint64(i), []uint64{uint64(i), uint64(i * 2)})
	}
	if w.Rows() != 5 {
		t.Fatalf("Rows = %d, want 5", w.Rows())
	}
	rs := w.Seal()
	if len(rs) != 1 {
		t.Fatalf("got %d runs, want 1", len(rs))
	}
	r := rs[0]
	if err := r.Validate(2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if r.Hashes[i] != uint64(i*100) || r.Keys[i] != uint64(i) ||
			r.States[0][i] != uint64(i) || r.States[1][i] != uint64(i*2) {
			t.Fatalf("row %d corrupted: %v %v %v", i, r.Hashes[i], r.Keys[i], r.States)
		}
	}
}

func TestWriterChunking(t *testing.T) {
	w := NewWriter(4, 0)
	for i := 0; i < 11; i++ {
		w.Append(uint64(i), uint64(i), nil)
	}
	rs := w.Seal()
	if len(rs) != 3 {
		t.Fatalf("got %d runs, want 3 (4+4+3)", len(rs))
	}
	wantLens := []int{4, 4, 3}
	next := uint64(0)
	for i, r := range rs {
		if r.Len() != wantLens[i] {
			t.Fatalf("run %d has %d rows, want %d", i, r.Len(), wantLens[i])
		}
		for _, k := range r.Keys {
			if k != next {
				t.Fatalf("order broken: got %d want %d", k, next)
			}
			next++
		}
	}
}

func TestWriterSealTwice(t *testing.T) {
	w := NewWriter(4, 0)
	w.Append(1, 1, nil)
	first := w.Seal()
	if len(first) != 1 {
		t.Fatalf("first seal: %d runs", len(first))
	}
	second := w.Seal()
	if len(second) != 0 {
		t.Fatalf("second seal should be empty, got %d runs", len(second))
	}
	// Writer remains usable.
	w.Append(2, 2, nil)
	third := w.Seal()
	if len(third) != 1 || third[0].Keys[0] != 2 {
		t.Fatalf("writer unusable after seal: %v", third)
	}
}

func TestWriterDefaultChunkRows(t *testing.T) {
	w := NewWriter(0, 0)
	if w.chunkRows != DefaultChunkRows {
		t.Fatalf("chunkRows = %d, want %d", w.chunkRows, DefaultChunkRows)
	}
}

func TestWriterNegativeWordsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewWriter(0, -1)
}

func TestAppendBlockCrossesChunks(t *testing.T) {
	const n = 100
	hashes := make([]uint64, n)
	keys := make([]uint64, n)
	st := [][]uint64{make([]uint64, n)}
	for i := 0; i < n; i++ {
		hashes[i] = uint64(i) << 32
		keys[i] = uint64(i)
		st[0][i] = uint64(i * 3)
	}
	// The free list hands out power-of-two columns; a chunk cut from one
	// must still stop at the deliberately awkward chunk size.
	for _, free := range []*Free{nil, {}} {
		w := NewWriterFree(7, 1, false, free)
		w.AppendBlock(hashes, keys, st, 0, 60)
		w.AppendBlock(hashes, keys, st, 60, 60) // empty range is a no-op
		w.AppendBlock(hashes, keys, st, 60, n)
		if w.Rows() != n {
			t.Fatalf("Rows = %d, want %d", w.Rows(), n)
		}
		var b Bucket
		w.SealInto(&b)
		for i, r := range b.Runs {
			if r.Len() > 7 {
				t.Fatalf("run %d has %d rows, chunk size is 7", i, r.Len())
			}
		}
		got := Concat(&b, 1)
		if got.Len() != n {
			t.Fatalf("concat %d rows, want %d", got.Len(), n)
		}
		for i := 0; i < n; i++ {
			if got.Hashes[i] != hashes[i] || got.Keys[i] != keys[i] || got.States[0][i] != st[0][i] {
				t.Fatalf("row %d corrupted", i)
			}
		}
	}
}

// TestWriterChunkGrowth pins the chunk sequence: firstChunkRows, doubling
// up to the chunk size, then the chunk size repeated.
func TestWriterChunkGrowth(t *testing.T) {
	want := []int{64, 128, 256, 512, 1024, 2048, 4096, 4096, 4096}
	total := 0
	for _, c := range want {
		total += c
	}
	keys := make([]uint64, total)
	st := [][]uint64{make([]uint64, total)}
	w := NewWriterFree(DefaultChunkRows, 1, true, &Free{})
	w.AppendBlock(nil, keys, st, 0, total)
	rs := w.Seal()
	if len(rs) != len(want) {
		t.Fatalf("got %d chunks, want %d", len(rs), len(want))
	}
	for i, r := range rs {
		if r.Len() != want[i] || cap(r.Keys) != want[i] || cap(r.States[0]) != want[i] {
			t.Fatalf("chunk %d: %d rows, capacity %d, want %d", i, r.Len(), cap(r.Keys), want[i])
		}
	}
}

// TestWriterReset: a reset writer is empty, usable, and grows from the
// first chunk size again.
func TestWriterReset(t *testing.T) {
	w := NewWriter(0, 1)
	for i := 0; i < 300; i++ {
		w.Append(uint64(i), uint64(i), []uint64{1})
	}
	w.Reset()
	if w.Rows() != 0 || len(w.Seal()) != 0 {
		t.Fatal("reset writer is not empty")
	}
	w.Append(5, 6, []uint64{7})
	rs := w.Seal()
	if len(rs) != 1 || rs[0].Len() != 1 || rs[0].Keys[0] != 6 || rs[0].States[0][0] != 7 {
		t.Fatalf("writer unusable after Reset: %+v", rs)
	}
	if cap(rs[0].Keys) != firstChunkRows {
		t.Fatalf("first chunk after Reset has capacity %d, want %d", cap(rs[0].Keys), firstChunkRows)
	}
}

// TestRecycleReusesWriterColumns: a recycled writer run is emptied and its
// columns are cut again by the next writer on the same list.
func TestRecycleReusesWriterColumns(t *testing.T) {
	free := &Free{}
	w := NewWriterFree(0, 1, true, free)
	w.Append(0, 1, []uint64{2})
	r := w.Seal()[0]
	backing := &r.Keys[:1][0]
	free.Recycle(r)
	if r.Len() != 0 || r.States != nil {
		t.Fatal("recycled run still holds its columns")
	}
	w2 := NewWriterFree(0, 1, true, free)
	w2.Append(0, 3, []uint64{4})
	r2 := w2.Seal()[0]
	if p := &r2.States[0][:1][0]; p != backing && &r2.Keys[:1][0] != backing {
		t.Fatal("the next writer did not reuse the recycled column")
	}
	if r2.Keys[0] != 3 || r2.States[0][0] != 4 {
		t.Fatalf("reused chunk holds %v %v", r2.Keys, r2.States)
	}
}

// TestRecycleForeignRunIsNoop: runs no Writer produced — table splits cut
// from a shared slab, hand-built runs — are never taken apart.
func TestRecycleForeignRunIsNoop(t *testing.T) {
	free := &Free{}
	slab := []uint64{1, 2, 3, 4}
	r := &Run{Keys: slab[:2], States: [][]uint64{slab[2:]}, Aggregated: true}
	free.Recycle(r)
	if r.Len() != 2 || len(r.States) != 1 || !r.Aggregated {
		t.Fatal("Recycle changed a run it does not own")
	}
	if col := free.Col(2); &col[0] == &slab[0] || &col[0] == &slab[2] {
		t.Fatal("Recycle handed out a foreign run's storage")
	}
}

// TestNilFree: a nil list allocates fresh columns and drops returned ones.
func TestNilFree(t *testing.T) {
	var free *Free
	col := free.Col(5)
	if len(col) != 5 {
		t.Fatalf("len = %d, want 5", len(col))
	}
	free.Put(col)
	w := NewWriterFree(0, 2, false, free)
	w.Append(1, 2, []uint64{3, 4})
	r := w.Seal()[0]
	free.Recycle(r)
	if r.Len() != 1 || r.States[1][0] != 4 {
		t.Fatal("nil list took a run apart")
	}
}

// TestSettleEvensOutAndTrims: columns that came back to the wrong list
// move to the list that handed them out, a list keeps no more than its
// recent demand, and an unused class fades out.
func TestSettleEvensOutAndTrims(t *testing.T) {
	a, b := &Free{}, &Free{}
	var cols [][]uint64
	for range 3 {
		cols = append(cols, a.Col(64), b.Col(100))
	}
	for _, c := range cols {
		a.Put(c) // every column comes back to a
	}
	a.Put(make([]uint64, 8)) // surplus a never handed out
	lists := []*Free{a, b}
	Settle(lists)
	if len(a.class[6]) != 3 || len(a.class[7]) != 0 || len(b.class[6]) != 0 || len(b.class[7]) != 3 {
		t.Fatalf("after Settle a holds %d + %d, b %d + %d columns of 64 + 128 rows, want 3 + 0, 0 + 3",
			len(a.class[6]), len(a.class[7]), len(b.class[6]), len(b.class[7]))
	}
	if len(a.class[3]) != 0 {
		t.Fatal("Settle kept a column nobody handed out")
	}
	Settle(lists) // nothing handed out since: demand decays from 3 to 2
	if len(a.class[6]) != 2 || len(b.class[7]) != 2 {
		t.Fatalf("idle lists hold %d and %d columns, want 2", len(a.class[6]), len(b.class[7]))
	}
	Settle(lists)
	Settle(lists)
	if len(a.class[6])+len(b.class[7]) != 0 {
		t.Fatal("an unused class did not fade out")
	}
}

// TestWriterPreservesMultisetProperty: appending rows through arbitrary
// interleavings of Append and AppendBlock preserves exactly the multiset of
// rows and their relative order.
func TestWriterPreservesMultiset(t *testing.T) {
	f := func(seed uint64, nSmall uint8) bool {
		n := int(nSmall)%200 + 1
		rng := xrand.NewXoshiro256(seed)
		hashes := make([]uint64, n)
		keys := make([]uint64, n)
		st := [][]uint64{make([]uint64, n), make([]uint64, n)}
		for i := 0; i < n; i++ {
			hashes[i] = rng.Next()
			keys[i] = rng.Next()
			st[0][i] = rng.Next()
			st[1][i] = rng.Next()
		}
		w := NewWriter(13, 2)
		i := 0
		for i < n {
			if rng.Intn(2) == 0 {
				w.Append(hashes[i], keys[i], []uint64{st[0][i], st[1][i]})
				i++
			} else {
				blk := 1 + rng.Intn(n-i)
				w.AppendBlock(hashes, keys, st, i, i+blk)
				i += blk
			}
		}
		var b Bucket
		w.SealInto(&b)
		for _, r := range b.Runs {
			if r.Len() > 13 {
				return false
			}
		}
		got := Concat(&b, 2)
		if got.Len() != n {
			return false
		}
		for i := 0; i < n; i++ {
			if got.Hashes[i] != hashes[i] || got.Keys[i] != keys[i] ||
				got.States[0][i] != st[0][i] || got.States[1][i] != st[1][i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRunValidate(t *testing.T) {
	good := &Run{Hashes: []uint64{1}, Keys: []uint64{2}, States: [][]uint64{{3}}}
	if err := good.Validate(1); err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	badHash := &Run{Hashes: []uint64{1, 2}, Keys: []uint64{2}, States: [][]uint64{}}
	if err := badHash.Validate(0); err == nil {
		t.Fatal("expected hash/key mismatch error")
	}
	badWords := &Run{Hashes: []uint64{1}, Keys: []uint64{2}, States: [][]uint64{}}
	if err := badWords.Validate(1); err == nil {
		t.Fatal("expected word count error")
	}
	badCol := &Run{Hashes: []uint64{1}, Keys: []uint64{2}, States: [][]uint64{{3, 4}}}
	if err := badCol.Validate(1); err == nil {
		t.Fatal("expected column length error")
	}
}

func TestBucketRowsAndAdd(t *testing.T) {
	var b Bucket
	b.Add(nil)
	b.Add(&Run{}) // empty, dropped
	b.Add(&Run{Hashes: []uint64{1}, Keys: []uint64{1}, States: [][]uint64{}})
	b.Add(&Run{Hashes: []uint64{1, 2}, Keys: []uint64{1, 2}, States: [][]uint64{}})
	if len(b.Runs) != 2 {
		t.Fatalf("Runs = %d, want 2", len(b.Runs))
	}
	if b.Rows() != 3 {
		t.Fatalf("Rows = %d, want 3", b.Rows())
	}
}

func TestBucketAddAll(t *testing.T) {
	var a, b Bucket
	a.Add(&Run{Hashes: []uint64{1}, Keys: []uint64{1}, States: [][]uint64{}})
	b.Add(&Run{Hashes: []uint64{2}, Keys: []uint64{2}, States: [][]uint64{}})
	a.AddAll(&b)
	if a.Rows() != 2 {
		t.Fatalf("Rows = %d, want 2", a.Rows())
	}
}

func TestBucketAllAggregated(t *testing.T) {
	var b Bucket
	if !b.AllAggregated() {
		t.Fatal("empty bucket should report aggregated")
	}
	b.Add(&Run{Hashes: []uint64{1}, Keys: []uint64{1}, States: [][]uint64{}, Aggregated: true})
	if !b.AllAggregated() {
		t.Fatal("single aggregated run")
	}
	b.Add(&Run{Hashes: []uint64{2}, Keys: []uint64{2}, States: [][]uint64{}})
	if b.AllAggregated() {
		t.Fatal("mixed bucket should not report aggregated")
	}
}

func TestConcatAggregatedFlag(t *testing.T) {
	mk := func(k uint64, aggr bool) *Run {
		return &Run{Hashes: []uint64{k}, Keys: []uint64{k}, States: [][]uint64{}, Aggregated: aggr}
	}
	var one Bucket
	one.Add(mk(1, true))
	if !Concat(&one, 0).Aggregated {
		t.Fatal("single aggregated run should stay aggregated")
	}
	var two Bucket
	two.Add(mk(1, true))
	two.Add(mk(1, true))
	if Concat(&two, 0).Aggregated {
		t.Fatal("two aggregated runs may share keys; concat must not be aggregated")
	}
}

func TestConcatEmpty(t *testing.T) {
	var b Bucket
	r := Concat(&b, 3)
	if r.Len() != 0 {
		t.Fatalf("Len = %d", r.Len())
	}
	if err := r.Validate(3); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAppend(b *testing.B) {
	w := NewWriter(DefaultChunkRows, 1)
	st := []uint64{7}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w.Append(uint64(i), uint64(i), st)
	}
}

func BenchmarkAppendBlock64(b *testing.B) {
	const blk = 64
	hashes := make([]uint64, blk)
	keys := make([]uint64, blk)
	st := [][]uint64{make([]uint64, blk)}
	w := NewWriter(DefaultChunkRows, 1)
	b.SetBytes(blk * 24)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w.AppendBlock(hashes, keys, st, 0, blk)
	}
}

func TestNewWriterDrop(t *testing.T) {
	w := NewWriterFree(4, 1, true, nil)
	w.Append(123, 7, []uint64{9})
	// AppendBlock with a nil hash column must be legal in drop mode.
	w.AppendBlock(nil, []uint64{8, 9}, [][]uint64{{1, 2}}, 0, 2)
	rs := w.Seal()
	total := 0
	for _, r := range rs {
		if r.Hashes != nil {
			t.Fatal("drop writer produced a hash column")
		}
		if err := r.Validate(1); err != nil {
			t.Fatal(err)
		}
		total += r.Len()
	}
	if total != 3 {
		t.Fatalf("rows = %d", total)
	}
}

func TestConcatMixedHashCarry(t *testing.T) {
	// Concatenating a carried and a dropped run must drop hashes (the
	// lowest common denominator) rather than produce ragged columns.
	var b Bucket
	b.Add(&Run{Hashes: []uint64{1}, Keys: []uint64{1}, States: [][]uint64{}})
	b.Add(&Run{Keys: []uint64{2}, States: [][]uint64{}})
	r := Concat(&b, 0)
	if r.Hashes != nil {
		t.Fatal("mixed concat should drop hashes")
	}
	if r.Len() != 2 {
		t.Fatalf("rows = %d", r.Len())
	}
	if err := r.Validate(0); err != nil {
		t.Fatal(err)
	}
}
