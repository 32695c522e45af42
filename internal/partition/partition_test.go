package partition

import (
	"testing"
	"testing/quick"

	"cacheagg/internal/hashfn"
	"cacheagg/internal/runs"
	"cacheagg/internal/xrand"
)

// genRows builds n random rows with the given number of state words.
func genRows(seed uint64, n, words int) (hashes, keys []uint64, states [][]uint64) {
	rng := xrand.NewXoshiro256(seed)
	hashes = make([]uint64, n)
	keys = make([]uint64, n)
	states = make([][]uint64, words)
	for w := range states {
		states[w] = make([]uint64, n)
	}
	for i := 0; i < n; i++ {
		keys[i] = rng.Next() % 1000
		hashes[i] = hashfn.Murmur2(keys[i])
		for w := 0; w < words; w++ {
			states[w][i] = rng.Next()
		}
	}
	return
}

type rowID struct {
	h, k, s0 uint64
}

func collect(t *testing.T, byDigit [][]*runs.Run, level, words int) (map[rowID]int, int) {
	t.Helper()
	seen := map[rowID]int{}
	total := 0
	for digit, rs := range byDigit {
		for _, r := range rs {
			if err := r.Validate(words); err != nil {
				t.Fatal(err)
			}
			for i, k := range r.Keys {
				h := hashfn.Murmur2(k) // runs hold keys; the hash is recomputed
				if got := hashfn.Digit(h, level); got != digit {
					t.Fatalf("row with digit %d landed in partition %d", got, digit)
				}
				id := rowID{h: h, k: k}
				if words > 0 {
					id.s0 = r.States[0][i]
				}
				seen[id]++
				total++
			}
		}
	}
	return seen, total
}

func TestScatterPreservesMultiset(t *testing.T) {
	const n = 5000
	hashes, keys, states := genRows(1, n, 2)
	s := New(Config{Level: 0, Words: 2, BufRows: 8, ChunkRows: 64})
	s.Scatter(hashes, keys, states)
	if s.Rows() != n {
		t.Fatalf("Rows = %d, want %d", s.Rows(), n)
	}
	got, total := collect(t, s.Seal(), 0, 2)
	if total != n {
		t.Fatalf("scattered %d rows, want %d", total, n)
	}
	want := map[rowID]int{}
	for i := 0; i < n; i++ {
		want[rowID{hashes[i], keys[i], states[0][i]}]++
	}
	for id, c := range want {
		if got[id] != c {
			t.Fatalf("row %+v count %d, want %d", id, got[id], c)
		}
	}
}

func TestScatterOrderStableWithinPartition(t *testing.T) {
	// Rows of the same partition must arrive in input order (stability
	// keeps the mapping between grouping and aggregate columns aligned).
	const n = 2000
	hashes := make([]uint64, n)
	keys := make([]uint64, n)
	for i := 0; i < n; i++ {
		hashes[i] = uint64(i%4) << 56 // 4 partitions, round robin
		keys[i] = uint64(i)           // input sequence number
	}
	s := New(Config{Level: 0, Words: 0, BufRows: 16, ChunkRows: 32})
	s.Scatter(hashes, keys, nil)
	byDigit := s.Seal()
	for digit, rs := range byDigit {
		last := int64(-1)
		for _, r := range rs {
			for _, k := range r.Keys {
				if int64(k) <= last {
					t.Fatalf("partition %d: key %d after %d — order broken", digit, k, last)
				}
				last = int64(k)
			}
		}
	}
}

func TestScatterLevelSelectsDigit(t *testing.T) {
	const n = 1000
	hashes, keys, _ := genRows(2, n, 0)
	for level := 0; level < 3; level++ {
		s := New(Config{Level: level})
		s.Scatter(hashes, keys, nil)
		_, total := collect(t, s.Seal(), level, 0)
		if total != n {
			t.Fatalf("level %d: %d rows, want %d", level, total, n)
		}
	}
}

func TestSealIntoBuckets(t *testing.T) {
	hashes, keys, _ := genRows(4, 3000, 0)
	s := New(Config{Level: 0})
	s.Scatter(hashes, keys, nil)
	buckets := make([]*runs.Bucket, hashfn.Fanout)
	for i := range buckets {
		buckets[i] = &runs.Bucket{}
	}
	s.SealInto(buckets)
	total := 0
	for _, b := range buckets {
		total += b.Rows()
	}
	if total != 3000 {
		t.Fatalf("buckets hold %d rows, want 3000", total)
	}
}

func TestSealIntoWrongLengthPanics(t *testing.T) {
	s := New(Config{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.SealInto(make([]*runs.Bucket, 3))
}

func TestScatterMismatchedColumnsPanics(t *testing.T) {
	s := New(Config{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Scatter(make([]uint64, 3), make([]uint64, 4), nil)
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	for i, cfg := range []Config{{Level: -1}, {Level: hashfn.MaxLevels}, {Words: -1}, {BufRows: MaxBufRows + 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			New(cfg)
		}()
	}
}

// TestNaiveMatchesTuned: the tuned SWC scatterer and the naive per-row
// scatter must produce identical partition contents (the Figure 3 variants
// differ only in speed, never in output).
func TestNaiveMatchesTuned(t *testing.T) {
	f := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw)%3000 + 1
		hashes, keys, states := genRows(seed, n, 1)
		s := New(Config{Level: 0, Words: 1, BufRows: 8})
		s.Scatter(hashes, keys, states)
		tuned := s.Seal()
		naive := NaiveScatter(0, 1, hashes, keys, states)
		for p := 0; p < hashfn.Fanout; p++ {
			var tu, na []rowID
			for _, r := range tuned[p] {
				for i := range r.Keys {
					tu = append(tu, rowID{k: r.Keys[i], s0: r.States[0][i]})
				}
			}
			for _, r := range naive[p] {
				for i := range r.Keys {
					na = append(na, rowID{k: r.Keys[i], s0: r.States[0][i]})
				}
			}
			if len(tu) != len(na) {
				return false
			}
			for i := range tu {
				if tu[i] != na[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyScatter(t *testing.T) {
	s := New(Config{Level: 0, Words: 0})
	s.Scatter(nil, nil, nil)
	for p, rs := range s.Seal() {
		if len(rs) != 0 {
			t.Fatalf("partition %d has %d runs from empty input", p, len(rs))
		}
	}
}

// TestResetRecyclesAcrossTasks drives one scatterer the way a worker does:
// scatter, seal, consume and recycle the runs, Reset to the next level,
// scatter again. Every task must see exactly its own rows.
func TestResetRecyclesAcrossTasks(t *testing.T) {
	free := &runs.Free{}
	s := New(Config{Level: 0, Words: 1, ChunkRows: 256, Free: free})
	for level := 0; level < 3; level++ {
		hashes, keys, states := genRows(uint64(20+level), 3000, 1)
		if level > 0 {
			s.Reset(level)
		}
		s.Scatter(hashes, keys, states)
		byDigit := s.Seal()
		got, total := collect(t, byDigit, level, 1)
		if total != len(keys) {
			t.Fatalf("level %d: scattered %d rows, want %d", level, total, len(keys))
		}
		for i := range keys {
			id := rowID{hashes[i], keys[i], states[0][i]}
			if got[id] == 0 {
				t.Fatalf("level %d: row %+v missing", level, id)
			}
			got[id]--
		}
		for _, rs := range byDigit {
			for _, r := range rs {
				free.Recycle(r)
			}
		}
	}
}
