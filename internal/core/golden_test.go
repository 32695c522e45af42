package core

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"cacheagg/internal/agg"
	"cacheagg/internal/datagen"
	"cacheagg/internal/faultfs"
)

// The operator's output is pinned bit for bit by one SHA-256 digest per
// case, committed under testdata/golden: hashes, keys, every spec's
// integer value and the bits of its float value, in emitted order, for
// every datagen family at three group counts, with and without an
// in-memory spill target, at the default and at a 64 KiB cache (the small
// cache forces recursion past level 1). The specs are the benchmark's
// shape, five state words. A change to the tables, the runs, the strategy
// or the finalization that moves one bit of one result fails here; so does
// a change of a table's slot count, which reorders the groups within a
// bucket. Regenerate only for an intended change of the output, with
//
//	go test ./internal/core -run ResultGoldenDigest -update-result-golden
var updateResultGolden = flag.Bool("update-result-golden", false, "rewrite testdata/golden/result_digests.txt")

const resultGoldenFile = "testdata/golden/result_digests.txt"

// goldenCase is one pinned configuration.
type goldenCase struct {
	dist  datagen.Dist
	k     uint64
	spill bool
	cache int // CacheBytes; 0 is the default
}

func (c goldenCase) String() string {
	s := fmt.Sprintf("%s/K=%d", c.dist, c.k)
	if c.cache > 0 {
		s += fmt.Sprintf("/cache=%d", c.cache)
	}
	if c.spill {
		s += "/spill"
	}
	return s
}

func goldenCases() []goldenCase {
	var cs []goldenCase
	for _, d := range datagen.Dists() {
		for _, k := range []uint64{1 << 6, 1 << 12, 1 << 16} {
			for _, cache := range []int{0, 64 << 10} {
				for _, spill := range []bool{false, true} {
					cs = append(cs, goldenCase{dist: d, k: k, spill: spill, cache: cache})
				}
			}
		}
	}
	return cs
}

// resultDigest hashes a result in emitted order: per row the hash, the
// key, then each spec's integer value and float bits, little-endian.
func resultDigest(res *Result) string {
	h := sha256.New()
	var w [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(w[:], v)
		h.Write(w[:])
	}
	for i := range res.Keys {
		put(res.Hashes[i])
		put(res.Keys[i])
		for a := range res.Aggs {
			put(uint64(res.Aggs[a][i]))
			put(math.Float64bits(res.Float(a, i)))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenSpecs are COUNT, SUM, MIN and AVG of one column: five state words.
var goldenSpecs = []agg.Spec{
	{Kind: agg.Count}, {Kind: agg.Sum, Col: 0}, {Kind: agg.Min, Col: 0}, {Kind: agg.Avg, Col: 0},
}

// checkGolden compares a result of goldenSpecs with the map oracle.
func checkGolden(t *testing.T, label string, res *Result, want map[uint64]*spillAcc) {
	t.Helper()
	if res.Groups() != len(want) {
		t.Fatalf("%s: %d groups, want %d", label, res.Groups(), len(want))
	}
	for r, k := range res.Keys {
		a := want[k]
		if a == nil {
			t.Fatalf("%s: phantom key %d", label, k)
		}
		got := [3]int64{res.Aggs[0][r], res.Aggs[1][r], res.Aggs[2][r]}
		if got != [3]int64{a.n, a.sum, a.lo} || res.Float(3, r) != float64(a.sum)/float64(a.n) {
			t.Fatalf("%s: key %d: %v avg %v, want %v avg %v", label, k, got, res.Float(3, r),
				[3]int64{a.n, a.sum, a.lo}, float64(a.sum)/float64(a.n))
		}
	}
}

func TestResultGoldenDigest(t *testing.T) {
	got := map[string]string{}
	var order []string
	for _, c := range goldenCases() {
		in := spillInput(c.dist, 1<<15, c.k)
		in.Specs = goldenSpecs
		cfg := Config{Workers: 1, CacheBytes: c.cache}
		if c.spill {
			cfg.Spill = &Spill{Dir: t.TempDir(), FS: newMemFS()}
		}
		res, err := Aggregate(cfg, in)
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		checkGolden(t, c.String(), res, spillOracle(in))
		if c.spill && res.Spill.Buckets == 0 {
			t.Fatalf("%v: nothing spilled", c)
		}
		got[c.String()] = resultDigest(res)
		order = append(order, c.String())
	}
	if *updateResultGolden {
		var b bytes.Buffer
		for _, name := range order {
			fmt.Fprintf(&b, "%s %s\n", name, got[name])
		}
		if err := os.MkdirAll(filepath.Dir(resultGoldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(resultGoldenFile, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(resultGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, digest, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("malformed golden line %q", sc.Text())
		}
		want[name] = digest
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden file has %d cases, the test runs %d", len(want), len(got))
	}
	for _, name := range order {
		if want[name] != got[name] {
			t.Errorf("%s: digest %s, golden %s", name, got[name], want[name])
		}
	}
}

// memFS is an in-memory faultfs.FS: the spill target of the golden cases,
// so they touch no disk.
type memFS struct {
	mu    sync.Mutex
	files map[string][]byte
}

func newMemFS() *memFS { return &memFS{files: map[string][]byte{}} }

func (m *memFS) Create(name string) (faultfs.File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.files[name] = nil
	return &memFile{fs: m, name: name}, nil
}

func (m *memFS) Open(name string) (faultfs.File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.files[name]
	if !ok {
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
	}
	return &memFile{fs: m, name: name, r: bytes.NewReader(data)}, nil
}

func (m *memFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.files, name)
	return nil
}

func (m *memFS) Rename(oldname, newname string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.files[newname] = m.files[oldname]
	delete(m.files, oldname)
	return nil
}

// memFile writes by appending to its file's bytes and reads from the
// snapshot taken at Open.
type memFile struct {
	fs   *memFS
	name string
	r    *bytes.Reader
}

func (f *memFile) Read(p []byte) (int, error) {
	if f.r == nil {
		return 0, io.EOF
	}
	return f.r.Read(p)
}

func (f *memFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	f.fs.files[f.name] = append(f.fs.files[f.name], p...)
	return len(p), nil
}

func (f *memFile) Close() error { return nil }
func (f *memFile) Sync() error  { return nil }

func (f *memFile) Stat() (os.FileInfo, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	return memInfo{name: f.name, size: int64(len(f.fs.files[f.name]))}, nil
}

type memInfo struct {
	name string
	size int64
}

func (i memInfo) Name() string       { return filepath.Base(i.name) }
func (i memInfo) Size() int64        { return i.size }
func (i memInfo) Mode() fs.FileMode  { return 0o644 }
func (i memInfo) ModTime() time.Time { return time.Time{} }
func (i memInfo) IsDir() bool        { return false }
func (i memInfo) Sys() any           { return nil }
