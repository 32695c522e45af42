package stream

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"cacheagg/internal/agg"
)

// The checkpoint format is pinned by golden files: one epoch file, its
// manifest and the finalized result of goldenInput, committed under
// testdata/golden. A change to the fold, the seal, the block codec or the
// finalization that alters a byte of them fails here. Regenerate them only
// for an intended format change, with
//
//	go test ./internal/stream -run Golden -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden from goldenInput")

const goldenDir = "testdata/golden"

var goldenSpecs = []agg.Spec{
	{Kind: agg.Count},
	{Kind: agg.Sum, Col: 0},
	{Kind: agg.Min, Col: 1},
	{Kind: agg.Max, Col: 0},
	{Kind: agg.Avg, Col: 1},
}

// goldenInput is 600 rows over 37 keys, with runs of equal adjacent keys
// (so the pre-folded segment path runs), negative values and averages
// that do not divide evenly.
func goldenInput() ([]uint64, [][]int64) {
	const rows = 600
	keys := make([]uint64, rows)
	cols := [][]int64{make([]int64, rows), make([]int64, rows)}
	for i := range keys {
		k := uint64(i*7%37) * 1_000_003
		if i%50 < 10 {
			k = 42 // a run of ten equal keys every 50 rows
		}
		keys[i] = k
		cols[0][i] = int64(i*31%201) - 100
		cols[1][i] = int64(i*i%97) - 48
	}
	return keys, cols
}

// formatResult renders a result one group per line: key, hash, then each
// spec's integer value and the bits of its float value.
func formatResult(res *Result) []byte {
	var b bytes.Buffer
	for i, k := range res.Keys {
		fmt.Fprintf(&b, "%d %#x", k, res.Hashes[i])
		for s := range res.Aggs {
			fmt.Fprintf(&b, " %d/%s", res.Aggs[s][i], strconv.FormatFloat(res.AggsFloat[s][i], 'g', -1, 64))
		}
		b.WriteByte('\n')
	}
	return b.Bytes()
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join(goldenDir, name)
	if *updateGolden {
		if err := os.MkdirAll(goldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: %d bytes differ from the golden %d bytes", name, len(got), len(want))
	}
}

// TestCheckpointGoldenBytes writes goldenInput as one sealed epoch and
// checks the epoch file, the manifest and the snapshot against the golden
// files byte for byte.
func TestCheckpointGoldenBytes(t *testing.T) {
	dir := t.TempDir()
	a, err := Begin(Options{Dir: dir, Specs: goldenSpecs, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	keys, cols := goldenInput()
	pushAll(t, a, keys, cols, 64)
	ctx := context.Background()
	if seq, err := a.Checkpoint(ctx); err != nil || seq != 1 {
		t.Fatalf("Checkpoint = %d, %v; want epoch 1", seq, err)
	}
	res, err := a.Snapshot(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, goldenSpecs, res, keys, cols)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{manifestName, epochFileName(1)} {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, name, got)
	}
	checkGolden(t, "result.txt", formatResult(res))
}

// TestCheckpointGoldenResume resumes from a copy of the golden files and
// finishes: the result is the golden one.
func TestCheckpointGoldenResume(t *testing.T) {
	if *updateGolden {
		t.Skip("golden files are being rewritten")
	}
	dir := t.TempDir()
	for _, name := range []string{manifestName, epochFileName(1)} {
		b, err := os.ReadFile(filepath.Join(goldenDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	a, err := Resume(Options{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	res, err := a.Finish(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	keys, cols := goldenInput()
	checkResult(t, goldenSpecs, res, keys, cols)
	checkGolden(t, "result.txt", formatResult(res))
}
