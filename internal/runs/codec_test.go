package runs

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"cacheagg/internal/faultfs"
)

// TestBlockReaderStreamsRuns writes runs of uneven lengths with AppendRun
// and reads them back block by block: every block is full but the last,
// the rows come back in order, and the footer check ends the file with
// io.EOF. Writer and reader are reused for a second file.
func TestBlockReaderStreamsRuns(t *testing.T) {
	dir := t.TempDir()
	var w BlockWriter
	var br BlockReader
	for _, n := range []int{1300, 7} {
		path := filepath.Join(dir, "runs.spill")
		if err := w.Create(faultfs.OS(), path, "spill", 2); err != nil {
			t.Fatal(err)
		}
		keys := make([]uint64, n)
		cols := [][]uint64{make([]uint64, n), make([]uint64, n)}
		for i := range keys {
			keys[i], cols[0][i], cols[1][i] = uint64(i), uint64(2*i), uint64(3*i)
		}
		for lo := 0; lo < n; lo += 300 {
			hi := min(lo+300, n)
			if err := w.AppendRun(keys[lo:hi], [][]uint64{cols[0][lo:hi], cols[1][lo:hi]}); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Finish(false); err != nil {
			t.Fatal(err)
		}
		if err := br.Open(faultfs.OS(), path, "spill", 2); err != nil {
			t.Fatal(err)
		}
		bk := make([]uint64, BlockRows)
		bc := [][]uint64{make([]uint64, BlockRows), make([]uint64, BlockRows)}
		got := 0
		for {
			m, err := br.Next(bk, bc)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if m != min(BlockRows, n-got) {
				t.Fatalf("n=%d: block of %d rows after %d", n, m, got)
			}
			for i := 0; i < m; i++ {
				r := uint64(got + i)
				if bk[i] != r || bc[0][i] != 2*r || bc[1][i] != 3*r {
					t.Fatalf("n=%d: row %d reads %d %d %d", n, r, bk[i], bc[0][i], bc[1][i])
				}
			}
			got += m
		}
		if err := br.Close(); err != nil {
			t.Fatal(err)
		}
		if got != n {
			t.Fatalf("read %d rows, wrote %d", got, n)
		}
	}
}

// TestBlockReaderFooterChecked: a file whose footer lies about its record
// count yields every intact block and then ErrCorruptSpill, not io.EOF.
func TestBlockReaderFooterChecked(t *testing.T) {
	path := filepath.Join(t.TempDir(), "lie.spill")
	w, err := NewBlockWriter(faultfs.OS(), path, "spill", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendRun([]uint64{1, 2, 3}, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Finish(false); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-spillFooterSize] ^= 1 // the footer's record count
	if err := os.WriteFile(path, raw, 0o600); err != nil {
		t.Fatal(err)
	}
	var br BlockReader
	if err := br.Open(faultfs.OS(), path, "spill", 0); err != nil {
		t.Fatal(err)
	}
	defer br.Close()
	keys := make([]uint64, BlockRows)
	if n, err := br.Next(keys, nil); n != 3 || err != nil {
		t.Fatalf("first block: %d rows, %v", n, err)
	}
	if _, err := br.Next(keys, nil); !errors.Is(err, ErrCorruptSpill) {
		t.Fatalf("after the last block: %v, want ErrCorruptSpill", err)
	}
}
