package core

import (
	"context"
	"fmt"
	"testing"

	"cacheagg/internal/agg"
	"cacheagg/internal/hashfn"
	"cacheagg/internal/hashtable"
	"cacheagg/internal/memgov"
	"cacheagg/internal/runs"
	"cacheagg/internal/sched"
	"cacheagg/internal/xrand"
)

// leafSpecs hold every state kind: six state words.
var leafSpecs = []agg.Spec{
	{Kind: agg.Count}, {Kind: agg.Sum}, {Kind: agg.Min}, {Kind: agg.Max}, {Kind: agg.Avg},
}

// leafRows returns n rows of a bucket whose hashes share their top shared
// bits: about n/alpha groups (at most the 2^(64-shared) the free bits
// hold) in random order, each row a partial state of one to three raw
// values as a table split or a scatter leaves them.
func leafRows(lay *agg.Layout, n, alpha, shared int, seed uint64) (hashes []uint64, states [][]uint64) {
	rng := xrand.NewXoshiro256(seed)
	prefix := rng.Next()
	low := ^uint64(0) >> shared
	groups := make([]uint64, min((n+alpha-1)/alpha, int(min(low, 1<<30))+1))
	seen := map[uint64]bool{}
	for g := range groups {
		h := prefix&^low | rng.Next()&low
		for seen[h] {
			h = prefix&^low | rng.Next()&low
		}
		seen[h], groups[g] = true, h
	}
	hashes = make([]uint64, n)
	states = make([][]uint64, lay.Words)
	for w := range states {
		states[w] = make([]uint64, n)
	}
	row := make([]uint64, lay.Words)
	for i := range hashes {
		hashes[i] = groups[rng.Next()%uint64(len(groups))]
		if i < len(groups) {
			hashes[i] = groups[i] // every group holds a row
		}
		v := int64(rng.Next()%2001) - 1000
		lay.InitRow(row, func(int) int64 { return v })
		for f := rng.Next() % 3; f > 0; f-- {
			v := int64(rng.Next()%2001) - 1000
			lay.FoldRow(row, func(int) int64 { return v })
		}
		for w := range states {
			states[w][i] = row[w]
		}
	}
	for i := n - 1; i > 0; i-- { // shuffle the group representatives in
		j := int(rng.Next() % uint64(i+1))
		hashes[i], hashes[j] = hashes[j], hashes[i]
		for _, col := range states {
			col[i], col[j] = col[j], col[i]
		}
	}
	return hashes, states
}

// leafRuns cuts rows into runs of 1 to 300 rows.
func leafRuns(hashes []uint64, states [][]uint64, seed uint64) []*runs.Run {
	rng := xrand.NewXoshiro256(seed)
	var rs []*runs.Run
	for lo := 0; lo < len(hashes); {
		hi := min(len(hashes), lo+1+int(rng.Next()%300))
		r := &runs.Run{Keys: hashes[lo:hi], States: make([][]uint64, len(states))}
		for w, col := range states {
			r.States[w] = col[lo:hi]
		}
		rs = append(rs, r)
		lo = hi
	}
	return rs
}

// leafOracle merges the rows into a Go map through agg.Kind's reference
// Merge, spec by spec.
func leafOracle(lay *agg.Layout, hashes []uint64, states [][]uint64) map[uint64][]uint64 {
	want := map[uint64][]uint64{}
	row := make([]uint64, lay.Words)
	for i, h := range hashes {
		for w := range row {
			row[w] = states[w][i]
		}
		acc := want[h]
		if acc == nil {
			want[h] = append([]uint64(nil), row...)
			continue
		}
		for s, sp := range lay.Specs {
			o := lay.Offsets[s]
			sp.Kind.Merge(acc[o:o+sp.Kind.Width()], row[o:o+sp.Kind.Width()])
		}
	}
	return want
}

// checkLeafResult compares a result with the oracle through agg.Kind's
// reference finalization, the exact AVG included, and checks every key
// against its hash.
func checkLeafResult(t *testing.T, label string, lay *agg.Layout, res *Result, want map[uint64][]uint64) {
	t.Helper()
	if res.Groups() != len(want) {
		t.Fatalf("%s: %d groups, want %d", label, res.Groups(), len(want))
	}
	for i, h := range res.Hashes {
		st := want[h]
		if st == nil || hashfn.Murmur2(res.Keys[i]) != h {
			t.Fatalf("%s: row %d: hash %#x, key %d: not a group of the input", label, i, h, res.Keys[i])
		}
		for s, sp := range lay.Specs {
			o := lay.Offsets[s]
			state := st[o : o+sp.Kind.Width()]
			if got, w := res.Aggs[s][i], sp.Kind.FinalizeInt(state); got != w {
				t.Fatalf("%s: hash %#x %v = %d, want %d", label, h, sp, got, w)
			}
			if got, w := res.Float(s, i), sp.Kind.FinalizeFloat(state); got != w {
				t.Fatalf("%s: hash %#x %v = %v, want %v", label, h, sp, got, w)
			}
		}
	}
}

// checkLeafChunk checks that the bucket left one chunk, flagged as hash
// ordered, its hashes strictly ascending.
func checkLeafChunk(t *testing.T, label string, e *exec) {
	t.Helper()
	if len(e.out.chunks) != 1 {
		t.Fatalf("%s: %d chunks, want 1", label, len(e.out.chunks))
	}
	ch := &e.out.chunks[0]
	if !ch.ordered {
		t.Fatalf("%s: the leaf's chunk is not flagged as hash ordered", label)
	}
	for i := 1; i < len(ch.hashes); i++ {
		if ch.hashes[i] <= ch.hashes[i-1] {
			t.Fatalf("%s: chunk rows %d and %d hold hashes %#x, %#x: not strictly ascending",
				label, i-1, i, ch.hashes[i-1], ch.hashes[i])
		}
	}
}

// TestSortLeafMatchesMapOracle finalizes leaf buckets of every α from 1
// to 64, at the leaf threshold and below, on hashes that share the bucket's
// digit or seven digits, and compares each with a Go map folded through
// agg.Kind. A bucket one row above the threshold is checked too: it takes
// the hashing pass instead.
func TestSortLeafMatchesMapOracle(t *testing.T) {
	lay := agg.NewLayout(leafSpecs)
	probe := mkExec(leafSpecs, nil, [][]int64{nil})
	for _, n := range []int{1, 33, 700, probe.finalRows, probe.finalRows + 1} {
		for _, alpha := range []int{1, 2, 3, 7, 16, 64} {
			for _, level := range []int{1, 7} {
				label := fmt.Sprintf("n=%d/alpha=%d/level=%d", n, alpha, level)
				seed := uint64(n*131 + alpha*7 + level)
				hashes, states := leafRows(lay, n, alpha, 8*level, seed)
				e := mkExec(leafSpecs, nil, [][]int64{nil})
				var b runs.Bucket
				for _, r := range leafRuns(hashes, states, seed) {
					b.Add(r)
				}
				prefix := hashes[0] >> (64 - 8*level)
				runBucketTask(e, &b, level, prefix)
				if n <= e.finalRows {
					checkLeafChunk(t, label, e)
				}
				checkLeafResult(t, label, lay, assembled(t, e), leafOracle(lay, hashes, states))
			}
		}
	}
}

// TestSortLeafReadsSpilledRuns finalizes leaf buckets whose runs lie
// partly in spill files of an in-memory spill target and partly in
// memory: the spilled rows are read back into the leaf's scratch. The
// governed run's ledger holds nothing once its accounting is released,
// and every spill file is gone.
func TestSortLeafReadsSpilledRuns(t *testing.T) {
	lay := agg.NewLayout(leafSpecs)
	for _, alpha := range []int{1, 4, 64} {
		for _, spills := range []int{1, 3} {
			label := fmt.Sprintf("alpha=%d/spills=%d", alpha, spills)
			gov := memgov.New(0)
			fs := newMemFS()
			cfg := Config{
				Workers:    1,
				CacheBytes: 32 << 10,
				ChunkRows:  128,
				Governor:   gov,
				Spill:      &Spill{FS: fs, Dir: t.TempDir()},
			}.withDefaults()
			e, err := newExec(context.Background(), cfg, &Input{AggCols: [][]int64{nil}, Specs: leafSpecs})
			if err != nil {
				t.Fatal(err)
			}
			n := e.finalRows
			hashes, states := leafRows(lay, n, alpha, 8, uint64(alpha+spills))
			rs := leafRuns(hashes, states, uint64(alpha))
			ws := &e.workers[0]
			// The bucket's rows are reserved as a scatter reserves them.
			ws.mem.Reserve(int64(n) * e.interRow)
			var b runs.Bucket
			per := (len(rs) + spills) / (spills + 1)
			for i, r := range rs {
				b.Add(r)
				if (i+1)%per == 0 && i < len(rs)-1 && len(b.Spilled) < spills {
					if err := e.spillBucket(ws, &b); err != nil {
						t.Fatal(err)
					}
				}
			}
			if len(b.Spilled) == 0 || len(b.Runs) == 0 {
				t.Fatalf("%s: %d spilled and %d resident runs, want both", label, len(b.Spilled), len(b.Runs))
			}
			runBucketTask(e, &b, 1, hashes[0]>>56)
			checkLeafChunk(t, label, e)
			checkLeafResult(t, label, lay, assembled(t, e), leafOracle(lay, hashes, states))
			e.releaseAccounting()
			e.spill.close()
			if got := gov.Reserved(); got != 0 {
				t.Fatalf("%s: ledger holds %d bytes after the run, want 0", label, got)
			}
			if len(fs.files) != 0 {
				t.Fatalf("%s: %d spill files left", label, len(fs.files))
			}
		}
	}
}

// TestSortLeafScratchIsMachinery: the leaf scratch grows by doubling as
// the leaves demand, its state columns from the first leaf with spilled
// rows on, and the worker's reservation follows what it holds.
func TestSortLeafScratchIsMachinery(t *testing.T) {
	lay := agg.NewLayout(leafSpecs)
	cfg := Config{
		Workers:    1,
		CacheBytes: 32 << 10,
		Governor:   memgov.New(0),
		Spill:      &Spill{FS: newMemFS(), Dir: t.TempDir()},
	}.withDefaults()
	e, err := newExec(context.Background(), cfg, &Input{AggCols: [][]int64{nil}, Specs: leafSpecs})
	if err != nil {
		t.Fatal(err)
	}
	defer e.spill.close()
	ws := &e.workers[0]
	for i, step := range []struct {
		n     int
		spill bool
		rows  int // the scratch's rows afterwards
		state bool
	}{
		{10, false, 256, false},
		{300, false, 512, false},
		{200, true, 512, true},
		{e.finalRows, false, e.finalRows, true},
		{40, false, e.finalRows, true},
	} {
		hashes, states := leafRows(lay, step.n, 2, 8, uint64(i))
		var b runs.Bucket
		for _, r := range leafRuns(hashes, states, uint64(i)) {
			b.Add(r)
		}
		ws.mem.Reserve(int64(step.n) * e.interRow)
		if step.spill {
			if err := e.spillBucket(ws, &b); err != nil {
				t.Fatal(err)
			}
		}
		runBucketTask(e, &b, 1, hashes[0]>>56)
		sc := ws.leaf
		if len(sc.hashes) != step.rows || len(sc.perm) != step.rows || (sc.states != nil) != step.state {
			t.Fatalf("leaf %d of %d rows: scratch of %d rows, state columns %v; want %d, %v",
				i, step.n, len(sc.hashes), sc.states != nil, step.rows, step.state)
		}
		want := 16 * int64(step.rows)
		if step.state {
			want += 8 * int64(e.words*step.rows)
			if len(sc.states[0]) != step.rows {
				t.Fatalf("leaf %d: state columns of %d rows, want %d", i, len(sc.states[0]), step.rows)
			}
		}
		ws.mem.Flush()
		if got := ws.mem.Net(); got != want || e.spill.machinery.Load() != want {
			t.Fatalf("leaf %d: worker reserved %d bytes, machinery %d, want the scratch's %d",
				i, got, e.spill.machinery.Load(), want)
		}
	}
	if ws.final != nil {
		t.Fatal("a leaf allocated a finalization table")
	}
	assembled(t, e)
}

// leafBenchExec is an exec with one worker at the default cache, whose
// leaves hold up to 16,384 rows at either width.
func leafBenchExec(specs []agg.Spec) *exec {
	e, err := newExec(context.Background(), Config{Workers: 1}.withDefaults(), &Input{AggCols: [][]int64{nil}, Specs: specs})
	if err != nil {
		panic(err)
	}
	return e
}

// BenchmarkLeaf finalizes the same level-1 bucket runs two ways: by the
// sort leaf (sort) and by the finalization table the leaf replaced
// (table: absorbRun into an unblocked table of four slots a row, at least
// 256 and at most the cache size, and the emit scan). The bucket has n
// rows over n/alpha groups, as 128-row runs; width 0 is a DISTINCT and
// width 5 is COUNT, SUM, MIN and AVG. ns/row is per bucket row:
//
//	go test -run '^$' -bench Leaf ./internal/core
func BenchmarkLeaf(b *testing.B) {
	for _, width := range []int{0, 5} {
		var specs []agg.Spec
		if width == 5 {
			specs = goldenSpecs
		}
		lay := agg.NewLayout(specs)
		for _, n := range []int{256, 2048, 16384} {
			for _, alpha := range []int{1, 2, 4, 16, 64} {
				hashes, states := leafRows(lay, n, alpha, 8, uint64(n+alpha))
				var bucket runs.Bucket
				for lo := 0; lo < n; lo += 128 {
					r := &runs.Run{Keys: hashes[lo:min(n, lo+128)], States: make([][]uint64, width)}
					for w := range r.States {
						r.States[w] = states[w][lo:min(n, lo+128)]
					}
					bucket.Add(r)
				}
				prefix := hashes[0] >> 56
				var table *hashtable.Table
				paths := []struct {
					name string
					leaf func(e *exec, ctx *sched.Ctx, ws *workerState)
				}{
					{"sort", func(e *exec, ctx *sched.Ctx, ws *workerState) { e.sortLeaf(ctx, ws, &bucket, prefix, 1) }},
					{"table", func(e *exec, ctx *sched.Ctx, ws *workerState) {
						for _, r := range bucket.Runs {
							e.absorbRun(ctx, ws, table, r)
						}
						e.emitTable(ws, table, prefix, 1)
					}},
				}
				for _, p := range paths {
					b.Run(fmt.Sprintf("width=%d/n=%d/alpha=%d/%s", width, n, alpha, p.name), func(b *testing.B) {
						e := leafBenchExec(specs)
						capRows := 256
						for capRows < 4*n && capRows < e.cacheRows {
							capRows <<= 1
						}
						table = hashtable.New(hashtable.Config{CapacityRows: capRows, Blocks: 1, MaxFill: 0.5, Words: width})
						table.SetLevel(1)
						b.ReportAllocs()
						e.pool.Run(func(ctx *sched.Ctx) {
							ws := &e.workers[ctx.Worker]
							leaf := func() {
								p.leaf(e, ctx, ws)
								for _, ch := range e.out.chunks {
									ws.free.Put(ch.hashes)
									ws.free.Put(ch.keys)
									for _, col := range ch.states {
										ws.free.Put(col)
									}
								}
								e.out.chunks, e.out.groups = e.out.chunks[:0], 0
							}
							leaf() // allocates the scratch
							b.ResetTimer()
							for i := 0; i < b.N; i++ {
								leaf()
							}
						})
						b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/row")
					})
				}
			}
		}
	}
}
