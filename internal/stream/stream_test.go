package stream

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"cacheagg/internal/agg"
	"cacheagg/internal/faultfs"
	"cacheagg/internal/hashfn"
	"cacheagg/internal/hashtable"
	"cacheagg/internal/memgov"
	"cacheagg/internal/testutil"
	"cacheagg/internal/trace"
)

// ---------------------------------------------------------------------------
// Oracle: a plain map-based reference over the raw input.

type oracleGroup struct {
	key   uint64
	state [][]uint64 // per spec
}

func oracle(specs []agg.Spec, keys []uint64, cols [][]int64) []oracleGroup {
	idx := make(map[uint64]int)
	var groups []oracleGroup
	for r, k := range keys {
		g, ok := idx[k]
		if !ok {
			g = len(groups)
			idx[k] = g
			st := make([][]uint64, len(specs))
			for s := range specs {
				st[s] = make([]uint64, specs[s].Kind.Width())
			}
			groups = append(groups, oracleGroup{key: k, state: st})
		}
		for s, sp := range specs {
			v := int64(0)
			if sp.Kind != agg.Count {
				v = cols[sp.Col][r]
			}
			if ok {
				sp.Kind.Fold(groups[g].state[s], v)
			} else {
				sp.Kind.Init(groups[g].state[s], v)
			}
		}
	}
	sort.Slice(groups, func(a, b int) bool {
		ha, hb := hashfn.Murmur2(groups[a].key), hashfn.Murmur2(groups[b].key)
		if ha != hb {
			return ha < hb
		}
		return groups[a].key < groups[b].key
	})
	return groups
}

// checkResult compares a stream Result against the oracle over the raw
// rows bit-for-bit (integer columns exactly; float columns exactly too,
// since both sides compute the same float64 division).
func checkResult(t *testing.T, specs []agg.Spec, res *Result, keys []uint64, cols [][]int64) {
	t.Helper()
	want := oracle(specs, keys, cols)
	if len(res.Keys) != len(want) {
		t.Fatalf("groups = %d, want %d", len(res.Keys), len(want))
	}
	for i, g := range want {
		if res.Keys[i] != g.key {
			t.Fatalf("key[%d] = %d, want %d", i, res.Keys[i], g.key)
		}
		if res.Hashes[i] != hashfn.Murmur2(g.key) {
			t.Fatalf("hash[%d] mismatch for key %d", i, g.key)
		}
		for s, sp := range specs {
			if got, wantV := res.Aggs[s][i], sp.Kind.FinalizeInt(g.state[s]); got != wantV {
				t.Fatalf("key %d spec %v: got %d, want %d", g.key, sp, got, wantV)
			}
			if got, wantF := res.AggsFloat[s][i], sp.Kind.FinalizeFloat(g.state[s]); got != wantF {
				t.Fatalf("key %d spec %v: got float %v, want %v", g.key, sp, got, wantF)
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Input generators.

func genInput(rng *rand.Rand, pattern string, rows, keySpace int) ([]uint64, [][]int64) {
	keys := make([]uint64, rows)
	switch pattern {
	case "sorted":
		for i := range keys {
			keys[i] = uint64(i * keySpace / rows)
		}
	case "clustered":
		i := 0
		for i < rows {
			k := uint64(rng.Intn(keySpace))
			run := 1 + rng.Intn(16)
			for j := 0; j < run && i < rows; j++ {
				keys[i] = k
				i++
			}
		}
	default: // random
		for i := range keys {
			keys[i] = uint64(rng.Intn(keySpace))
		}
	}
	cols := make([][]int64, 2)
	for c := range cols {
		cols[c] = make([]int64, rows)
		for i := range cols[c] {
			cols[c][i] = int64(rng.Intn(2001) - 1000)
		}
	}
	return keys, cols
}

func pushAll(t *testing.T, a *Aggregator, keys []uint64, cols [][]int64, blockRows int) {
	t.Helper()
	ctx := context.Background()
	for off := 0; off < len(keys); off += blockRows {
		end := off + blockRows
		if end > len(keys) {
			end = len(keys)
		}
		b := Block{Keys: keys[off:end], Cols: [][]int64{cols[0][off:end], cols[1][off:end]}}
		if err := a.Push(ctx, b); err != nil {
			t.Fatalf("Push: %v", err)
		}
	}
}

var allSpecs = []agg.Spec{
	{Kind: agg.Count},
	{Kind: agg.Sum, Col: 0},
	{Kind: agg.Min, Col: 0},
	{Kind: agg.Max, Col: 1},
	{Kind: agg.Avg, Col: 1},
}

// ---------------------------------------------------------------------------
// Differential correctness.

func TestStreamMatchesOracle(t *testing.T) {
	defer testutil.VerifyNoLeaks(t)
	for _, pattern := range []string{"sorted", "clustered", "random"} {
		for _, blockRows := range []int{1, 7, 256} {
			for _, epochRows := range []int64{64, 1 << 20} {
				name := fmt.Sprintf("%s/block%d/epoch%d", pattern, blockRows, epochRows)
				t.Run(name, func(t *testing.T) {
					rng := rand.New(rand.NewSource(42))
					keys, cols := genInput(rng, pattern, 3000, 200)
					a, err := Begin(Options{
						Dir:          t.TempDir(),
						Specs:        allSpecs,
						EpochMaxRows: epochRows,
						NoSync:       true,
					})
					if err != nil {
						t.Fatal(err)
					}
					pushAll(t, a, keys, cols, blockRows)
					res, err := a.Finish(context.Background())
					if err != nil {
						t.Fatal(err)
					}
					checkResult(t, allSpecs, res, keys, cols)
					if g := a.gov.Reserved(); g != 0 {
						t.Fatalf("ledger holds %d bytes after Finish", g)
					}
				})
			}
		}
	}
}

func TestRunDetection(t *testing.T) {
	defer testutil.VerifyNoLeaks(t)
	a, err := Begin(Options{Dir: t.TempDir(), Specs: allSpecs, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	keys, cols := genInput(rng, "sorted", 4096, 64)
	pushAll(t, a, keys, cols, 512)
	res, err := a.Finish(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, allSpecs, res, keys, cols)
	st := a.Stats()
	if st.RunsDetected == 0 || st.RunRows == 0 {
		t.Fatalf("sorted input detected no runs: %+v", st)
	}
}

func TestSnapshotWindow(t *testing.T) {
	defer testutil.VerifyNoLeaks(t)
	specs := []agg.Spec{{Kind: agg.Sum, Col: 0}, {Kind: agg.Count}}
	a, err := Begin(Options{Dir: t.TempDir(), Specs: specs, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// Three sealed epochs of one block each, plus one live block.
	blocks := make([][]uint64, 4)
	vals := make([][]int64, 4)
	for e := 0; e < 4; e++ {
		blocks[e] = []uint64{uint64(e), 100}
		vals[e] = []int64{int64(10 * (e + 1)), 1}
		b := Block{Keys: blocks[e], Cols: [][]int64{vals[e], vals[e]}}
		if err := a.Push(ctx, b); err != nil {
			t.Fatal(err)
		}
		if e < 3 {
			if ep, err := a.Checkpoint(ctx); err != nil || ep != uint64(e+1) {
				t.Fatalf("Checkpoint = (%d, %v), want epoch %d", ep, err, e+1)
			}
		}
	}
	// Window 2 = epochs 2,3 + live block 4.
	res, err := a.Snapshot(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Epochs != 2 {
		t.Fatalf("snapshot covers %d epochs, want 2", res.Epochs)
	}
	var wk []uint64
	var wc [][]int64
	for e := 1; e < 4; e++ {
		wk = append(wk, blocks[e]...)
		if wc == nil {
			wc = [][]int64{nil, nil}
		}
		wc[0] = append(wc[0], vals[e]...)
		wc[1] = append(wc[1], vals[e]...)
	}
	checkResult(t, specs, res, wk, wc)
	// Window 0 = everything.
	res, err = a.Snapshot(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	var ak []uint64
	ac := [][]int64{nil, nil}
	for e := 0; e < 4; e++ {
		ak = append(ak, blocks[e]...)
		ac[0] = append(ac[0], vals[e]...)
		ac[1] = append(ac[1], vals[e]...)
	}
	checkResult(t, specs, res, ak, ac)
	if _, err := a.Finish(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyStream(t *testing.T) {
	defer testutil.VerifyNoLeaks(t)
	dir := t.TempDir()
	a, err := Begin(Options{Dir: dir, Specs: allSpecs, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Finish(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Groups() != 0 {
		t.Fatalf("empty stream produced %d groups", res.Groups())
	}
	// A finished stream refuses Resume with the typed sentinel.
	if _, err := Resume(Options{Dir: dir}); !errors.Is(err, ErrFinished) {
		t.Fatalf("Resume(finished) = %v, want ErrFinished", err)
	}
}

func TestBeginOnExistingStream(t *testing.T) {
	defer testutil.VerifyNoLeaks(t)
	dir := t.TempDir()
	a, err := Begin(Options{Dir: dir, Specs: allSpecs, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Checkpoint(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Seal something so a manifest exists.
	if err := a.Push(context.Background(), Block{Keys: []uint64{1}, Cols: [][]int64{{1}, {1}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Checkpoint(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Begin(Options{Dir: dir, Specs: allSpecs, NoSync: true}); err == nil {
		t.Fatal("Begin on a directory with a manifest succeeded")
	}
}

func TestClosedErrors(t *testing.T) {
	defer testutil.VerifyNoLeaks(t)
	a, err := Begin(Options{Dir: t.TempDir(), Specs: allSpecs, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := a.Push(ctx, Block{Keys: []uint64{1}, Cols: [][]int64{{1}, {1}}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Push after Close = %v, want ErrClosed", err)
	}
	if _, err := a.Snapshot(ctx, 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("Snapshot after Close = %v, want ErrClosed", err)
	}
	if _, err := a.Finish(ctx); !errors.Is(err, ErrClosed) {
		t.Fatalf("Finish after Close = %v, want ErrClosed", err)
	}
}

// ---------------------------------------------------------------------------
// Durability and resume.

func TestResumeContinues(t *testing.T) {
	defer testutil.VerifyNoLeaks(t)
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(11))
	keys, cols := genInput(rng, "random", 2000, 100)
	ctx := context.Background()

	a, err := Begin(Options{Dir: dir, Specs: allSpecs, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	// Push the first half and seal it; push a quarter more that stays
	// buffered and dies with Close.
	half := Block{Keys: keys[:1000], Cols: [][]int64{cols[0][:1000], cols[1][:1000]}}
	if err := a.Push(ctx, half); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	buffered := Block{Keys: keys[1000:1500], Cols: [][]int64{cols[0][1000:1500], cols[1][1000:1500]}}
	if err := a.Push(ctx, buffered); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	// Resume adopts the manifest's specs and reports the durable offset:
	// exactly the sealed half, not the buffered quarter.
	b, err := Resume(Options{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if !specsEqual(b.Specs(), allSpecs) {
		t.Fatalf("Resume specs = %v, want %v", b.Specs(), allSpecs)
	}
	p := b.Progress()
	if p.RowsDurable != 1000 || p.Epoch != 1 {
		t.Fatalf("Progress after resume = %+v, want 1000 rows durable in epoch 1", p)
	}
	st := b.Stats()
	if st.RecoveredEpochs != 1 || st.RecoveredRows != 1000 {
		t.Fatalf("recovery stats = %+v", st)
	}
	// Replay from the durable offset and finish: bit-identical to an
	// uninterrupted run over the full input.
	rest := Block{Keys: keys[1000:], Cols: [][]int64{cols[0][1000:], cols[1][1000:]}}
	if err := b.Push(ctx, rest); err != nil {
		t.Fatal(err)
	}
	res, err := b.Finish(ctx)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, allSpecs, res, keys, cols)
}

func TestResumeSpecMismatch(t *testing.T) {
	defer testutil.VerifyNoLeaks(t)
	dir := t.TempDir()
	a, err := Begin(Options{Dir: dir, Specs: allSpecs, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Push(context.Background(), Block{Keys: []uint64{1}, Cols: [][]int64{{1}, {1}}}); err != nil {
		t.Fatal(err)
	}
	if err := a.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	_, err = Resume(Options{Dir: dir, Specs: []agg.Spec{{Kind: agg.Sum, Col: 1}}, NoSync: true})
	if !errors.Is(err, ErrSpecMismatch) {
		t.Fatalf("Resume with different specs = %v, want ErrSpecMismatch", err)
	}
}

func TestResumeNoCheckpoint(t *testing.T) {
	defer testutil.VerifyNoLeaks(t)
	if _, err := Resume(Options{Dir: t.TempDir(), NoSync: true}); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("Resume(empty dir) = %v, want ErrNoCheckpoint", err)
	}
}

// sealOne seals a single-block epoch and closes the stream, leaving a
// valid one-epoch checkpoint directory behind.
func sealOne(t *testing.T, dir string) {
	t.Helper()
	a, err := Begin(Options{Dir: dir, Specs: allSpecs, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	keys := []uint64{1, 2, 3, 2, 1}
	cols := [][]int64{{5, 6, 7, 8, 9}, {1, 2, 3, 4, 5}}
	if err := a.Push(context.Background(), Block{Keys: keys, Cols: cols}); err != nil {
		t.Fatal(err)
	}
	if err := a.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestResumeRollsBackTornEpoch(t *testing.T) {
	defer testutil.VerifyNoLeaks(t)
	dir := t.TempDir()
	sealOne(t, dir)
	// A crash between epoch-file write and manifest rename leaves an
	// epoch file the manifest never committed. Also leave a stale
	// manifest temp from a crash mid-commit.
	torn := filepath.Join(dir, epochFileName(2))
	if err := os.WriteFile(torn, []byte("partial epoch write"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, manifestName+".tmp"), []byte("half a manifest"), 0o644); err != nil {
		t.Fatal(err)
	}
	a, err := Resume(Options{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	defer a.Close()
	if _, err := os.Stat(torn); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("torn epoch file survived resume: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, manifestName+".tmp")); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("stale manifest temp survived resume")
	}
	if st := a.Stats(); st.TornEpochsRolledBack != 1 {
		t.Fatalf("TornEpochsRolledBack = %d, want 1", st.TornEpochsRolledBack)
	}
	if p := a.Progress(); p.Epoch != 1 || p.RowsDurable != 5 {
		t.Fatalf("rollback landed on %+v, want epoch 1 / 5 rows", p)
	}
}

func TestResumeRejectsCorruptEpoch(t *testing.T) {
	defer testutil.VerifyNoLeaks(t)
	dir := t.TempDir()
	sealOne(t, dir)
	path := filepath.Join(dir, epochFileName(1))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Resume(Options{Dir: dir, NoSync: true}); !errors.Is(err, ErrCorruptCheckpoint) {
		t.Fatalf("Resume(corrupt epoch) = %v, want ErrCorruptCheckpoint", err)
	}
}

func TestResumeRejectsMissingEpoch(t *testing.T) {
	defer testutil.VerifyNoLeaks(t)
	dir := t.TempDir()
	sealOne(t, dir)
	if err := os.Remove(filepath.Join(dir, epochFileName(1))); err != nil {
		t.Fatal(err)
	}
	if _, err := Resume(Options{Dir: dir, NoSync: true}); !errors.Is(err, ErrCorruptCheckpoint) {
		t.Fatalf("Resume(missing epoch) = %v, want ErrCorruptCheckpoint", err)
	}
}

func TestResumeRejectsCorruptManifest(t *testing.T) {
	defer testutil.VerifyNoLeaks(t)
	dir := t.TempDir()
	sealOne(t, dir)
	path := filepath.Join(dir, manifestName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, mut := range [][]byte{
		raw[:len(raw)-3],          // torn tail
		append([]byte{0}, raw...), // shifted
		flipByte(raw, 6),          // interior bit flip
	} {
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Resume(Options{Dir: dir, NoSync: true}); !errors.Is(err, ErrCorruptCheckpoint) {
			t.Fatalf("Resume(corrupt manifest) = %v, want ErrCorruptCheckpoint", err)
		}
	}
}

func flipByte(b []byte, i int) []byte {
	c := append([]byte(nil), b...)
	c[i] ^= 0xff
	return c
}

// ---------------------------------------------------------------------------
// Fault injection at every checkpoint I/O site.

func TestSealFaultInjection(t *testing.T) {
	defer testutil.VerifyNoLeaks(t)
	rng := rand.New(rand.NewSource(23))
	keys, cols := genInput(rng, "random", 600, 50)
	ctx := context.Background()

	// Persistent faults: each (op, n) plan must fail the checkpoint with
	// an error, keep the previous durable state intact, and leave a
	// directory Resume accepts.
	plans := []struct {
		op faultfs.Op
		n  int
	}{
		{faultfs.OpCreate, 1}, // epoch file create
		{faultfs.OpWrite, 1},  // epoch header
		{faultfs.OpWrite, 2},  // manifest temp write
		{faultfs.OpSync, 1},   // epoch fsync
		{faultfs.OpCreate, 2}, // manifest temp create
		{faultfs.OpSync, 2},   // manifest fsync
		{faultfs.OpRename, 1}, // manifest commit rename
		{faultfs.OpClose, 1},  // epoch close
	}
	for _, plan := range plans {
		t.Run(fmt.Sprintf("%v-%d", plan.op, plan.n), func(t *testing.T) {
			dir := t.TempDir()
			inj := faultfs.NewInjector(faultfs.OS(), plan.op, plan.n)
			a, err := Begin(Options{
				Dir: dir, Specs: allSpecs, FS: inj,
				Retry:  faultfs.RetryPolicy{MaxAttempts: 1},
				NoSync: false,
			})
			if err != nil {
				t.Fatal(err)
			}
			b := Block{Keys: keys, Cols: [][]int64{cols[0], cols[1]}}
			if err := a.Push(ctx, b); err != nil {
				t.Fatal(err)
			}
			if _, err := a.Checkpoint(ctx); err == nil {
				t.Fatalf("checkpoint under %v fault succeeded", plan.op)
			}
			if !inj.Triggered() {
				t.Fatalf("planned fault %v #%d never fired", plan.op, plan.n)
			}
			// The stream is sticky-failed; its ledger must still drain.
			if err := a.Close(); err != nil {
				t.Fatal(err)
			}
			if g := a.gov.Reserved(); g != 0 {
				t.Fatalf("ledger holds %d bytes after failed seal", g)
			}
			// Nothing was committed: no manifest, so no checkpoint — and
			// no orphan epoch files left behind either.
			if _, err := Resume(Options{Dir: dir, NoSync: true}); !errors.Is(err, ErrNoCheckpoint) {
				t.Fatalf("Resume after failed first seal = %v, want ErrNoCheckpoint", err)
			}
			ents, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range ents {
				t.Fatalf("failed seal leaked file %s", e.Name())
			}
		})
	}

	// Transient faults: the retry layer absorbs a streak and the seal
	// succeeds, including on the new Sync and Rename paths.
	for _, op := range []faultfs.Op{faultfs.OpWrite, faultfs.OpSync, faultfs.OpRename} {
		t.Run(fmt.Sprintf("transient-%v", op), func(t *testing.T) {
			dir := t.TempDir()
			inj := faultfs.NewFlaky(faultfs.OS(), op, 1, 2)
			a, err := Begin(Options{
				Dir: dir, Specs: allSpecs, FS: inj,
				Retry: faultfs.RetryPolicy{MaxAttempts: 4, BaseDelay: time.Microsecond},
			})
			if err != nil {
				t.Fatal(err)
			}
			b := Block{Keys: keys, Cols: [][]int64{cols[0], cols[1]}}
			if err := a.Push(ctx, b); err != nil {
				t.Fatal(err)
			}
			if _, err := a.Checkpoint(ctx); err != nil {
				t.Fatalf("transient %v fault not absorbed: %v", op, err)
			}
			res, err := a.Finish(ctx)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, allSpecs, res, keys, cols)
		})
	}
}

// ---------------------------------------------------------------------------
// Backpressure.

// gateFS delegates to the real filesystem but blocks Create until the
// gate opens, pinning the consumer inside a seal; entered, when set, is
// closed as the first Create blocks.
type gateFS struct {
	faultfs.FS
	gate    <-chan struct{}
	entered chan struct{}
	once    sync.Once
}

func (g *gateFS) Create(name string) (faultfs.File, error) {
	if g.entered != nil {
		g.once.Do(func() { close(g.entered) })
	}
	<-g.gate
	return g.FS.Create(name)
}

func TestTryPushQueueBackpressure(t *testing.T) {
	defer testutil.VerifyNoLeaks(t)
	gate := make(chan struct{})
	fs := &gateFS{FS: faultfs.OS(), gate: gate}
	a, err := Begin(Options{
		Dir: t.TempDir(), Specs: allSpecs, FS: fs,
		QueueDepth:   2,
		EpochMaxRows: 1, // every block seals; the gate pins the first seal
		RetryHint:    5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	one := func(k uint64) Block {
		return Block{Keys: []uint64{k}, Cols: [][]int64{{1}, {1}}}
	}
	// First block: folded, consumer blocks inside seal behind the gate.
	if err := a.Push(ctx, one(1)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return a.Stats().BlocksIngested == 1 })
	// Fill the queue, then one more must refuse with the typed error.
	for k := uint64(2); k <= 3; k++ {
		if err := a.Push(ctx, one(k)); err != nil {
			t.Fatal(err)
		}
	}
	err = a.TryPush(one(4))
	var bp *BackpressureError
	if !errors.As(err, &bp) || !errors.Is(err, ErrBackpressure) {
		t.Fatalf("TryPush on full queue = %v, want *BackpressureError", err)
	}
	if bp.Reason != "queue" || bp.RetryAfter != 5*time.Millisecond {
		t.Fatalf("backpressure = %+v, want queue / 5ms", bp)
	}
	// A blocking Push honors its context while the queue stays full.
	cctx, cancel := context.WithTimeout(ctx, 10*time.Millisecond)
	defer cancel()
	if err := a.Push(cctx, one(5)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Push on full queue = %v, want DeadlineExceeded", err)
	}
	close(gate)
	res, err := a.Finish(ctx)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, allSpecs, res, []uint64{1, 2, 3}, [][]int64{{1, 1, 1}, {1, 1, 1}})
	if a.Stats().Backpressure < 2 {
		t.Fatalf("backpressure events = %d, want >= 2", a.Stats().Backpressure)
	}
}

func TestTryPushBudgetBackpressure(t *testing.T) {
	defer testutil.VerifyNoLeaks(t)
	gate := make(chan struct{})
	fs := &gateFS{FS: faultfs.OS(), gate: gate}
	blk := Block{Keys: []uint64{1, 2, 3, 4}, Cols: [][]int64{{1, 2, 3, 4}, {1, 2, 3, 4}}}
	bytes := blockBytes(blk)
	a, err := Begin(Options{
		Dir: t.TempDir(), Specs: allSpecs, FS: fs,
		// Room for the block and the smallest accumulator table, which
		// holds its four groups, but not for a second queued block while
		// the table is held.
		MemoryBudgetBytes: int64(hashtable.MinBlockRows*hashtable.SlotBytes(6)) + bytes/2,
		EpochMaxRows:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := a.Push(ctx, blk); err != nil {
		t.Fatal(err)
	}
	// Wait until the block is folded: its queue reservation is released
	// but the accumulator now holds group memory and the consumer is
	// pinned sealing behind the gate.
	waitFor(t, func() bool { return a.Stats().BlocksIngested == 1 })
	err = a.TryPush(blk)
	var bp *BackpressureError
	if !errors.As(err, &bp) {
		t.Fatalf("TryPush over budget = %v, want *BackpressureError", err)
	}
	if bp.Reason != "budget" {
		t.Fatalf("reason = %q, want budget", bp.Reason)
	}
	// A block bigger than the whole budget is a budget error, not
	// backpressure: waiting cannot help.
	huge := make([]uint64, 4096)
	hugeCols := [][]int64{make([]int64, 4096), make([]int64, 4096)}
	if err := a.Push(ctx, Block{Keys: huge, Cols: hugeCols}); !errors.Is(err, memgov.ErrBudget) {
		t.Fatalf("oversized Push = %v, want ErrBudget", err)
	}
	close(gate)
	// The pressure-seal releases the accumulator; the same push now
	// succeeds once the budget frees up.
	if err := a.Push(ctx, blk); err != nil {
		t.Fatalf("Push after seal released budget: %v", err)
	}
	if _, err := a.Finish(ctx); err != nil {
		t.Fatal(err)
	}
	if g := a.gov.Reserved(); g != 0 {
		t.Fatalf("ledger holds %d bytes after Finish", g)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(time.Millisecond)
	}
}

// ---------------------------------------------------------------------------
// Pressure seals: a starved budget degrades to smaller epochs.

func TestPressureSeal(t *testing.T) {
	defer testutil.VerifyNoLeaks(t)
	rng := rand.New(rand.NewSource(5))
	keys, cols := genInput(rng, "random", 5000, 2000)
	a, err := Begin(Options{
		Dir: t.TempDir(), Specs: allSpecs,
		MemoryBudgetBytes: 64 << 10,
		EpochMaxRows:      1 << 30, // only pressure can seal
		NoSync:            true,
	})
	if err != nil {
		t.Fatal(err)
	}
	pushAll(t, a, keys, cols, 100)
	res, err := a.Finish(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, allSpecs, res, keys, cols)
	st := a.Stats()
	if st.EarlySeals == 0 {
		t.Fatalf("starved budget never pressure-sealed: %+v", st)
	}
	if g := a.gov.Reserved(); g != 0 {
		t.Fatalf("ledger holds %d bytes after Finish", g)
	}
}

// TestPushFindsAFullQueueAndAFullBudget: a Push that finds the budget
// full while the queue is full must still get its pressure seal. The
// consumer is held inside a seal while a second block fills the queue
// and another reservation fills the ledger, and a third Push then waits
// for the budget. Folding the queued block leaves the ledger at the
// budget, not over it, so only the waiting pusher's request can seal.
func TestPushFindsAFullQueueAndAFullBudget(t *testing.T) {
	defer testutil.VerifyNoLeaks(t)
	const rows, budget = 256, 4 << 20
	rng := rand.New(rand.NewSource(11))
	keys, cols := genInput(rng, "random", rows, 1<<30)
	blk := Block{Keys: keys, Cols: cols}
	gov := memgov.New(budget)
	gate := make(chan struct{})
	fs := &gateFS{FS: faultfs.OS(), gate: gate, entered: make(chan struct{})}
	a, err := Begin(Options{
		Dir: t.TempDir(), Specs: allSpecs, QueueDepth: 1,
		EpochMaxRows: 1 << 30, Governor: gov, FS: fs, NoSync: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// One block folded: the Snapshot round trip waits for its fold.
	if err := a.Push(ctx, blk); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Snapshot(ctx, 0); err != nil {
		t.Fatal(err)
	}
	acc, need := gov.Reserved(), blockBytes(blk)+foldBytes(rows, a.layout.Words)
	if need > acc {
		t.Fatalf("a block needs %d bytes, more than the %d its fold holds: the seal would not admit the third push", need, acc)
	}
	// The consumer seals the block and is held in the epoch file's Create.
	sealed := make(chan error, 1)
	go func() {
		_, err := a.Checkpoint(ctx)
		sealed <- err
	}()
	<-fs.entered
	// A second block fills the queue, and the rest of the budget but the
	// accumulator's share goes to another tenant.
	if err := a.Push(ctx, blk); err != nil {
		t.Fatal(err)
	}
	gov.Reserve(budget - acc)
	pushed := make(chan error, 1)
	go func() { pushed <- a.Push(ctx, blk) }()
	for deadline := time.Now().Add(10 * time.Second); gov.Waiting() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the third Push never waited for the budget")
		}
	}
	close(gate)
	if err := <-sealed; err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-pushed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("Push still waits for the budget with the ledger at %d of %d bytes and no seal requested", gov.Reserved(), budget)
	}
	gov.Release(budget - acc)
	res, err := a.Finish(ctx)
	if err != nil {
		t.Fatal(err)
	}
	all := Block{Keys: append(append(slices.Clone(keys), keys...), keys...)}
	for _, col := range cols {
		all.Cols = append(all.Cols, append(append(slices.Clone(col), col...), col...))
	}
	checkResult(t, allSpecs, res, all.Keys, all.Cols)
	if g := gov.Reserved(); g != 0 {
		t.Fatalf("ledger holds %d bytes after Finish", g)
	}
}

// TestIdleConsumerSealsForARefusedPush: a Push or TryPush that the budget
// refuses while the consumer is idle, the queue empty and the accumulator
// holding rows, wakes the consumer to seal: the waiting Push returns, and
// a TryPush retried after the seal is admitted.
func TestIdleConsumerSealsForARefusedPush(t *testing.T) {
	for _, wait := range []bool{true, false} {
		t.Run(fmt.Sprintf("wait=%v", wait), func(t *testing.T) {
			defer testutil.VerifyNoLeaks(t)
			const rows, budget = 256, 4 << 20
			rng := rand.New(rand.NewSource(12))
			keys, cols := genInput(rng, "random", rows, 1<<30)
			blk := Block{Keys: keys, Cols: cols}
			gov := memgov.New(budget)
			a, err := Begin(Options{
				Dir: t.TempDir(), Specs: allSpecs, EpochMaxRows: 1 << 30, Governor: gov, NoSync: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			if err := a.Push(ctx, blk); err != nil {
				t.Fatal(err)
			}
			if _, err := a.Snapshot(ctx, 0); err != nil { // the fold is done
				t.Fatal(err)
			}
			acc := gov.Reserved()
			if need := blockBytes(blk) + foldBytes(rows, a.layout.Words); need > acc {
				t.Fatalf("a block needs %d bytes, more than the %d its fold holds", need, acc)
			}
			gov.Reserve(budget - acc) // the ledger at the budget, not over it
			if wait {
				pushed := make(chan error, 1)
				go func() { pushed <- a.Push(ctx, blk) }()
				select {
				case err := <-pushed:
					if err != nil {
						t.Fatal(err)
					}
				case <-time.After(10 * time.Second):
					t.Fatal("Push still waits for the budget beside an idle consumer")
				}
			} else {
				if err := a.TryPush(blk); !errors.Is(err, ErrBackpressure) {
					t.Fatalf("TryPush on a full budget = %v, want backpressure", err)
				}
				waitFor(t, func() bool { return a.Stats().EpochsSealed == 1 })
				if err := a.TryPush(blk); err != nil {
					t.Fatalf("TryPush after the pressure seal = %v", err)
				}
			}
			if got := a.Stats().EarlySeals; got != 1 {
				t.Fatalf("%d pressure seals, want 1", got)
			}
			gov.Release(budget - acc)
			res, err := a.Finish(ctx)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, allSpecs, res, append(slices.Clone(keys), keys...),
				[][]int64{append(slices.Clone(cols[0]), cols[0]...), append(slices.Clone(cols[1]), cols[1]...)})
			if g := gov.Reserved(); g != 0 {
				t.Fatalf("ledger holds %d bytes after Finish", g)
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Tracing.

func TestTraceEvents(t *testing.T) {
	defer testutil.VerifyNoLeaks(t)
	rec := trace.NewRecorder(1 << 12)
	dir := t.TempDir()
	a, err := Begin(Options{Dir: dir, Specs: allSpecs, Tracer: rec, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := a.Push(ctx, Block{Keys: []uint64{1, 2}, Cols: [][]int64{{1, 2}, {3, 4}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	snap := rec.Snapshot()
	if snap.Counts[trace.KindEpochSeal] != 1 {
		t.Fatalf("epoch-seal events = %d, want 1", snap.Counts[trace.KindEpochSeal])
	}
	// One checkpoint-write for the epoch file, one for the manifest.
	if snap.Counts[trace.KindCheckpointWrite] != 2 {
		t.Fatalf("checkpoint-write events = %d, want 2", snap.Counts[trace.KindCheckpointWrite])
	}

	rec2 := trace.NewRecorder(1 << 12)
	b, err := Resume(Options{Dir: dir, Tracer: rec2, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if got := rec2.Snapshot().Counts[trace.KindRecover]; got != 1 {
		t.Fatalf("recover events = %d, want 1", got)
	}
}

// ---------------------------------------------------------------------------
// Randomized crash drill: inject a fault at a random checkpoint I/O site,
// resume, replay from the durable offset, and demand bit-identical
// results against the oracle — across many seeds.

func TestCrashRecoveryDrill(t *testing.T) {
	defer testutil.VerifyNoLeaks(t)
	seeds := 12
	if testing.Short() {
		seeds = 4
	}
	ops := []faultfs.Op{
		faultfs.OpCreate, faultfs.OpWrite, faultfs.OpSync,
		faultfs.OpRename, faultfs.OpClose,
	}
	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(seed)))
			keys, cols := genInput(rng, []string{"sorted", "clustered", "random"}[seed%3], 2000, 150)
			dir := t.TempDir()
			blockRows := 50 + rng.Intn(200)

			// Split the input into blocks up front so replay can restart
			// cleanly at any block boundary.
			var blocks []Block
			for off := 0; off < len(keys); off += blockRows {
				end := off + blockRows
				if end > len(keys) {
					end = len(keys)
				}
				blocks = append(blocks, Block{
					Keys: keys[off:end],
					Cols: [][]int64{cols[0][off:end], cols[1][off:end]},
				})
			}

			op := ops[rng.Intn(len(ops))]
			n := 1 + rng.Intn(20)
			inj := faultfs.NewInjector(faultfs.OS(), op, n)
			a, err := Begin(Options{
				Dir: dir, Specs: allSpecs, FS: inj,
				EpochMaxRows: int64(1 + rng.Intn(400)),
				Retry:        faultfs.RetryPolicy{MaxAttempts: 1},
				NoSync:       true,
			})
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			crashed := false
			for _, b := range blocks {
				if err := a.Push(ctx, b); err != nil {
					crashed = true
					break
				}
			}
			if _, err := a.Checkpoint(ctx); err != nil {
				crashed = true
			}
			if err := a.Close(); err != nil {
				t.Fatal(err)
			}
			if g := a.gov.Reserved(); g != 0 {
				t.Fatalf("ledger holds %d bytes after crash", g)
			}

			var res *Result
			if crashed || inj.Triggered() {
				b2, err := Resume(Options{Dir: dir, NoSync: true})
				if errors.Is(err, ErrNoCheckpoint) {
					// Crashed before the first commit: replay everything
					// on a fresh stream.
					os.RemoveAll(dir)
					b2, err = Begin(Options{Dir: dir, Specs: allSpecs, NoSync: true})
					if err != nil {
						t.Fatal(err)
					}
				} else if err != nil {
					t.Fatalf("Resume after injected %v crash: %v", op, err)
				}
				// Replay every raw row past the durable offset. Epochs
				// seal only at block boundaries, so RowsDurable is one.
				durable := b2.Progress().RowsDurable
				if durable%1 != 0 { // always true; documents the invariant
					t.Fatalf("durable offset %d not a block boundary", durable)
				}
				var off uint64
				for _, b := range blocks {
					if off >= durable {
						if err := b2.Push(ctx, b); err != nil {
							t.Fatalf("replay push: %v", err)
						}
					} else if off+uint64(b.Rows()) > durable {
						t.Fatalf("durable offset %d splits a block at %d", durable, off)
					}
					off += uint64(b.Rows())
				}
				res, err = b2.Finish(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if g := b2.gov.Reserved(); g != 0 {
					t.Fatalf("ledger holds %d bytes after recovery run", g)
				}
			} else {
				// The fault never fired (n beyond the op count): the run
				// completed; reopen and finish normally.
				b2, err := Resume(Options{Dir: dir, NoSync: true})
				if err != nil {
					t.Fatal(err)
				}
				res, err = b2.Finish(ctx)
				if err != nil {
					t.Fatal(err)
				}
			}
			checkResult(t, allSpecs, res, keys, cols)
		})
	}
}

// ---------------------------------------------------------------------------
// Manifest codec.

func TestManifestRoundTrip(t *testing.T) {
	m := manifest{
		Finished: false,
		Specs:    allSpecs,
		Epochs: []epochEntry{
			{Seq: 1, Records: 10, Bytes: 512},
			{Seq: 2, Records: 20, Bytes: 1024},
			{Seq: 7, Records: 1, Bytes: 48},
		},
		RowsDurable:   31,
		BlocksDurable: 4,
	}
	got, err := decodeManifest(m.encode())
	if err != nil {
		t.Fatal(err)
	}
	if !specsEqual(got.Specs, m.Specs) || len(got.Epochs) != 3 ||
		got.RowsDurable != 31 || got.BlocksDurable != 4 || got.Finished {
		t.Fatalf("round trip mangled manifest: %+v", got)
	}
	for i := range m.Epochs {
		if got.Epochs[i] != m.Epochs[i] {
			t.Fatalf("epoch %d = %+v, want %+v", i, got.Epochs[i], m.Epochs[i])
		}
	}

	m.Finished = true
	got, err = decodeManifest(m.encode())
	if err != nil || !got.Finished {
		t.Fatalf("finished flag lost: %+v, %v", got, err)
	}
}

func TestManifestDecodeRejects(t *testing.T) {
	valid := manifest{
		Specs:       []agg.Spec{{Kind: agg.Sum, Col: 0}},
		Epochs:      []epochEntry{{Seq: 1, Records: 5, Bytes: 100}},
		RowsDurable: 5,
	}.encode()
	cases := map[string][]byte{
		"empty":          {},
		"short":          valid[:10],
		"torn-tail":      valid[:len(valid)-2],
		"flipped-magic":  flipByte(valid, 0),
		"flipped-count":  flipByte(valid, 11),
		"flipped-crc":    flipByte(valid, len(valid)-6),
		"flipped-middle": flipByte(valid, len(valid)/2),
	}
	for name, b := range cases {
		if _, err := decodeManifest(b); !errors.Is(err, ErrCorruptCheckpoint) {
			t.Fatalf("%s: decode = %v, want ErrCorruptCheckpoint", name, err)
		}
	}
}

// FuzzCheckpointManifest is the torn-write trust boundary fuzz: arbitrary
// bytes must produce either a valid manifest or a typed error — never a
// panic, never an unchecked acceptance.
func FuzzCheckpointManifest(f *testing.F) {
	f.Add([]byte{})
	f.Add(manifest{Specs: []agg.Spec{{Kind: agg.Count}}}.encode())
	full := manifest{
		Specs:         allSpecs,
		Epochs:        []epochEntry{{Seq: 1, Records: 3, Bytes: 64}, {Seq: 2, Records: 9, Bytes: 256}},
		RowsDurable:   12,
		BlocksDurable: 2,
		Finished:      true,
	}.encode()
	f.Add(full)
	f.Add(full[:len(full)-5])
	f.Add(flipByte(full, 8))
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := decodeManifest(b)
		if err != nil {
			if !errors.Is(err, ErrCorruptCheckpoint) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		// Anything accepted must survive a round trip bit-identically:
		// decode(encode(decode(b))) is the fixed point.
		re := m.encode()
		m2, err := decodeManifest(re)
		if err != nil {
			t.Fatalf("re-decode of accepted manifest failed: %v", err)
		}
		if len(m2.Epochs) != len(m.Epochs) || m2.RowsDurable != m.RowsDurable ||
			m2.BlocksDurable != m.BlocksDurable || m2.Finished != m.Finished ||
			!specsEqual(m2.Specs, m.Specs) {
			t.Fatalf("round trip diverged: %+v vs %+v", m, m2)
		}
	})
}
