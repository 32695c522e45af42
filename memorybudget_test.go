package cacheagg

// Acceptance tests of the public memory budget: a budget below the working
// set degrades to spilling and still produces the exact result within the
// budget plus the documented slack, a transient spill fault mid-degradation
// is absorbed by the retry layer, and a generous budget stays in memory.

import (
	"errors"
	"os"
	"testing"
	"time"

	"cacheagg/internal/faultfs"
	"cacheagg/internal/memgov"
	"cacheagg/internal/runs"
	"cacheagg/internal/testutil"
)

// budgetInput builds a working set of n rows over k distinct groups with
// one value column, large enough to dwarf small byte budgets.
func budgetInput(n, k int) Input {
	keys := make([]uint64, n)
	vals := make([]int64, n)
	for i := range keys {
		keys[i] = uint64(i % k)
		vals[i] = int64(i)
	}
	return Input{
		GroupBy: keys,
		Columns: [][]int64{vals},
		Aggregates: []AggSpec{
			{Func: Count},
			{Func: Sum, Col: 0},
			{Func: Avg, Col: 0},
		},
	}
}

// checkAgainstReference compares a result against an unbudgeted in-memory
// run group-by-group (order-independent: the degraded path re-sorts rows,
// ties between equal hashes may land differently).
func checkAgainstReference(t *testing.T, got, want *Result) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("groups = %d, want %d", got.Len(), want.Len())
	}
	idx := want.Index()
	for i, g := range got.Groups {
		w, ok := idx[g]
		if !ok {
			t.Fatalf("group %d not in the reference", g)
		}
		for a := range got.Aggs {
			if got.Aggs[a][i] != want.Aggs[a][w] {
				t.Fatalf("group %d, agg %d: %d, want %d", g, a, got.Aggs[a][i], want.Aggs[a][w])
			}
			if got.Float(a, i) != want.Float(a, w) {
				t.Fatalf("group %d, agg %d: float %v, want %v", g, a, got.Float(a, i), want.Float(a, w))
			}
		}
	}
}

func TestMemoryBudgetDegradesToExternalAndCompletes(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	in := budgetInput(400000, 300000)
	ref, err := Aggregate(in, opts())
	if err != nil {
		t.Fatal(err)
	}

	const budget = 8 << 20
	o := opts()
	o.MemoryBudgetBytes = budget
	res, err := Aggregate(in, o)
	if err != nil {
		t.Fatalf("budget below the working set must degrade, not fail: %v", err)
	}
	checkAgainstReference(t, res, ref)
	if !res.Stats.DegradedToExternal {
		t.Fatal("400k-row working set fit in 8 MiB? degradation not reported")
	}
	if res.Stats.PeakReservedBytes == 0 {
		t.Fatal("no peak footprint recorded")
	}
	// The budget must hold up to the documented slack: per worker one
	// morsel (16384 rows) of decomposed-width intermediates (width 4 for
	// COUNT, SUM, AVG→(SUM,COUNT): 8+8·4+8 bytes/row) plus one
	// reservation-cache grain, and one chunk's load margin.
	perWorker := int64(16384*(8+8*4+8) + memgov.DefaultCacheGrain)
	allowed := int64(budget) + perWorker*int64(o.Workers) + (1 << 20)
	if res.Stats.PeakReservedBytes > allowed {
		t.Fatalf("peak %d exceeds budget %d plus slack %d",
			res.Stats.PeakReservedBytes, budget, allowed-budget)
	}
	// The degraded result keeps the public contract: hash-ordered rows.
	h := res.Hashes()
	if len(h) != res.Len() {
		t.Fatalf("hashes: %d, groups: %d", len(h), res.Len())
	}
	for i := 1; i < len(h); i++ {
		if h[i] < h[i-1] {
			t.Fatalf("hash order violated at row %d", i)
		}
	}
}

func TestMemoryBudgetGenerousStaysInMemory(t *testing.T) {
	in := budgetInput(50000, 2000)
	ref, err := Aggregate(in, opts())
	if err != nil {
		t.Fatal(err)
	}
	o := opts()
	o.MemoryBudgetBytes = 1 << 30
	res, err := Aggregate(in, o)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstReference(t, res, ref)
	if res.Stats.DegradedToExternal {
		t.Fatal("1 GiB budget degraded to spilling")
	}
	if res.Stats.PeakReservedBytes == 0 {
		t.Fatal("governed run recorded no footprint")
	}
}

func TestMemoryBudgetTransientSpillFaultRetried(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	flaky := faultfs.NewFlaky(faultfs.OS(), faultfs.OpWrite, 30, 2)
	testHookSpillFS = flaky
	testHookSpillRetry = faultfs.RetryPolicy{
		MaxAttempts: 4,
		BaseDelay:   time.Microsecond,
		MaxDelay:    time.Microsecond,
		Sleep:       func(time.Duration) {},
	}
	defer func() {
		testHookSpillFS = nil
		testHookSpillRetry = faultfs.RetryPolicy{}
	}()

	in := budgetInput(400000, 300000)
	ref, err := Aggregate(in, opts())
	if err != nil {
		t.Fatal(err)
	}
	o := opts()
	o.MemoryBudgetBytes = 8 << 20
	res, err := Aggregate(in, o)
	if err != nil {
		t.Fatalf("transient spill fault not absorbed: %v", err)
	}
	if !flaky.Triggered() {
		t.Fatal("flaky fault never fired; the run did not spill through the hook")
	}
	checkAgainstReference(t, res, ref)
	if !res.Stats.DegradedToExternal {
		t.Fatal("degradation not reported")
	}
	if res.Stats.SpillRetries == 0 {
		t.Fatal("retries happened but Stats.SpillRetries = 0")
	}
}

func TestMemoryBudgetImpossiblySmallFailsTyped(t *testing.T) {
	// A budget below even the out-of-core path's floor must fail with the
	// typed error, not hang or OOM.
	o := opts()
	o.MemoryBudgetBytes = 4 << 10
	_, err := Aggregate(budgetInput(100000, 100000), o)
	if err == nil {
		t.Fatal("4 KiB budget succeeded")
	}
	if !errors.Is(err, ErrMemoryBudget) {
		t.Fatalf("err = %v, want ErrMemoryBudget", err)
	}
}

func TestMemoryBudgetNegativeRejected(t *testing.T) {
	o := opts()
	o.MemoryBudgetBytes = -1
	if _, err := Aggregate(budgetInput(10, 5), o); err == nil {
		t.Fatal("negative budget accepted")
	}
	if _, err := AggregateExternal(budgetInput(10, 5), opts(),
		ExternalOptions{MemoryBudgetBytes: -1}); err == nil {
		t.Fatal("negative external budget accepted")
	}
}

func TestExternalOptionsByteBudget(t *testing.T) {
	// The byte budget on the explicit external API: tight budget, exact
	// result, new stats fields populated.
	in := budgetInput(200000, 150000)
	res, err := AggregateExternal(in, opts(), ExternalOptions{
		MemoryBudgetBytes: 6 << 20,
		TempDir:           t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 150000 {
		t.Fatalf("groups = %d, want 150000", res.Len())
	}
	if res.Stats.PeakReservedBytes == 0 {
		t.Fatal("no peak footprint recorded")
	}
	if res.Stats.ResidentPartitions == 0 && res.Stats.EvictedPartitions == 0 {
		t.Fatal("hybrid mode never engaged")
	}
}

// TestAutoDegradesToSortSpillMidRun: a budget smaller than the output
// starts in memory (no estimate of K decides otherwise up front), runs
// over budget mid-run and spills, and the result matches the map oracle.
// The trace shows the in-memory work (table splits) before the first
// spill write.
func TestAutoDegradesToSortSpillMidRun(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	in := budgetInput(400000, 300000)
	// One run's events: its ~65k leaf emits alone fill a 2^16 ring.
	tr := NewTracer(1 << 18)
	o := opts()
	o.MemoryBudgetBytes = 8 << 20 // < 300000 groups · 40-byte output rows
	o.CollectStats = true
	o.Tracer = tr
	res, err := Aggregate(in, o)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.DegradedToExternal {
		t.Fatal("DegradedToExternal = false; want a run that spilled")
	}
	evs := tr.Events()
	if len(evs) == 0 || evs[0].Seq != 0 {
		t.Fatal("event ring wrapped; raise the tracer capacity")
	}
	split, spilled := false, false
	for _, ev := range evs {
		switch ev.Kind {
		case "table-split":
			split = true
		case "spill-write":
			spilled = true
		}
		if spilled {
			break
		}
	}
	if !split || !spilled {
		t.Fatalf("table split before the first spill write = %v, spill write = %v; want both", split, spilled)
	}

	// The map oracle: COUNT, SUM and exact AVG per key.
	type acc struct{ n, sum int64 }
	want := make(map[uint64]acc)
	for i, k := range in.GroupBy {
		a := want[k]
		a.n++
		a.sum += in.Columns[0][i]
		want[k] = a
	}
	if res.Len() != len(want) {
		t.Fatalf("groups = %d, want %d", res.Len(), len(want))
	}
	for i, g := range res.Groups {
		w, ok := want[g]
		if !ok {
			t.Fatalf("phantom group %d", g)
		}
		avg := float64(w.sum) / float64(w.n)
		if res.Aggs[0][i] != w.n || res.Aggs[1][i] != w.sum || res.Float(2, i) != avg {
			t.Fatalf("group %d: count %d sum %d avg %v, want %d %d %v",
				g, res.Aggs[0][i], res.Aggs[1][i], res.Float(2, i), w.n, w.sum, avg)
		}
	}
}

// TestMemoryBudgetNoRerun: a budget overrun late in intake spills and
// carries on instead of throwing the in-memory work away and starting
// over. At one worker the routines see at most 1.2× the rows of the same
// query with no budget.
func TestMemoryBudgetNoRerun(t *testing.T) {
	in := budgetInput(400000, 300000)
	o := opts()
	o.Workers = 1
	o.CollectStats = true
	free, err := Aggregate(in, o)
	if err != nil {
		t.Fatal(err)
	}
	work := free.Stats.HashedRows + free.Stats.PartitionedRows

	// The peak of a run that fits: nine tenths of it is crossed only near
	// the end of intake, when almost every row is materialized.
	o.MemoryBudgetBytes = 1 << 30
	roomy, err := Aggregate(in, o)
	if err != nil {
		t.Fatal(err)
	}
	o.MemoryBudgetBytes = roomy.Stats.PeakReservedBytes * 9 / 10
	res, err := Aggregate(in, o)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.DegradedToExternal {
		t.Fatalf("budget %d below the peak %d did not spill", o.MemoryBudgetBytes, roomy.Stats.PeakReservedBytes)
	}
	checkAgainstReference(t, res, free)
	if got := res.Stats.HashedRows + res.Stats.PartitionedRows; got*10 > work*12 {
		t.Fatalf("spilled run routed %d rows, %.2f× the %d of the run with no budget",
			got, float64(got)/float64(work), work)
	}
}

// corruptingFS flips one byte in the middle of every spill file before it
// is opened for read-back.
type corruptingFS struct{ faultfs.FS }

func (c corruptingFS) Open(name string) (faultfs.File, error) {
	raw, err := os.ReadFile(name)
	if err != nil {
		return nil, err
	}
	raw[len(raw)/2] ^= 0x10
	if err := os.WriteFile(name, raw, 0o600); err != nil {
		return nil, err
	}
	return c.FS.Open(name)
}

// TestMemoryBudgetCorruptSpillTyped: a spill file damaged before its
// read-back fails the budgeted Aggregate with the typed corrupt-spill
// error, not a wrong answer.
func TestMemoryBudgetCorruptSpillTyped(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	testHookSpillFS = corruptingFS{faultfs.OS()}
	defer func() { testHookSpillFS = nil }()
	o := opts()
	o.MemoryBudgetBytes = 8 << 20
	_, err := Aggregate(budgetInput(400000, 300000), o)
	if !errors.Is(err, runs.ErrCorruptSpill) {
		t.Fatalf("err = %v, want ErrCorruptSpill", err)
	}
}
