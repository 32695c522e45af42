// Package baselines reimplements the five state-of-the-art in-memory
// aggregation algorithms the paper compares against in Section 6.4, from
// Cieslewicz & Ross ("Adaptive aggregation on chip multiprocessors") and
// Ye et al. ("Scalable aggregation on multicore processors"):
//
//	ATOMIC                  (1 pass)  — one shared table, atomic instructions
//	INDEPENDENT             (2 passes) — private tables, parallel merge
//	HYBRID                  (1 pass)  — private cache tables with eviction
//	                                    into a shared ATOMIC-style table
//	PARTITION-AND-AGGREGATE (2 passes) — partition all input, merge partitions
//	PLAT                    (2 passes) — private table + overflow partitions
//
// The paper tunes the originals before comparing (Section 6.4); the same
// tuning is applied here: minimum table sizes of the L3 cache, no padding,
// MurmurHash2 instead of multiplicative hashing, and lock-free atomics
// instead of system mutexes.
//
// All baselines compute a COUNT(*) GROUP BY over a key column — the
// DISTINCT-style query of the paper's comparison (Figure 8) with the count
// kept so tests can verify full correctness, not just group sets.
//
// Every algorithm has a fixed number of passes and sizes its data
// structures from an optimizer-style cardinality estimate — precisely the
// two limitations (a K ceiling, and dependence on a prediction) that the
// paper's recursive, run-based operator removes.
package baselines

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"cacheagg/internal/hashfn"
)

// Config configures a baseline run.
type Config struct {
	// Workers is the thread count; 0 selects GOMAXPROCS, as for the
	// operator (core.Config).
	Workers int
	// CacheBytes models the per-thread L3 share; it sizes private tables.
	// 0 selects 4 MiB.
	CacheBytes int
	// EstimatedGroups is the optimizer's output-cardinality estimate all
	// of these algorithms depend on. 0 selects 1024. (The paper: the
	// competitors "rely on a prediction of the optimizer"; the adaptive
	// operator needs none.)
	EstimatedGroups int
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.CacheBytes <= 0 {
		c.CacheBytes = 4 << 20
	}
	if c.EstimatedGroups <= 0 {
		c.EstimatedGroups = 1024
	}
	return c
}

// Result is a COUNT(*) GROUP BY result. Row order is unspecified.
type Result struct {
	Keys   []uint64
	Counts []int64
}

// Groups returns the number of groups.
func (r *Result) Groups() int { return len(r.Keys) }

// Algorithm is one baseline.
type Algorithm interface {
	Name() string
	Run(keys []uint64, cfg Config) *Result
}

// All returns the five baselines in the paper's Figure 8 legend order.
func All() []Algorithm {
	return []Algorithm{Hybrid{}, AtomicAlg{}, Independent{}, PartitionAndAggregate{}, PLAT{}}
}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// chunkBounds splits n rows into w near-equal chunks.
func chunkBounds(n, w int) []int {
	b := make([]int, w+1)
	for i := 0; i <= w; i++ {
		b[i] = n * i / w
	}
	return b
}

// ---------------------------------------------------------------------------
// openTable: a single-threaded open-addressing COUNT table that grows by
// doubling. Used for private tables and merge phases. Key 0 is supported
// via key+1 storage.

type openTable struct {
	keys   []uint64 // key+1; 0 = empty
	counts []int64
	rows   int
	limit  int // grow threshold (half full)
}

func newOpenTable(slots int) *openTable {
	if slots < 16 {
		slots = 16
	}
	slots = nextPow2(slots)
	return &openTable{
		keys:   make([]uint64, slots),
		counts: make([]int64, slots),
		limit:  slots / 2,
	}
}

func (t *openTable) add(key uint64, count int64) {
	if t.rows >= t.limit {
		t.grow()
	}
	mask := uint64(len(t.keys) - 1)
	s := hashfn.Murmur2(key) & mask
	for {
		switch t.keys[s] {
		case 0:
			t.keys[s] = key + 1
			t.counts[s] = count
			t.rows++
			return
		case key + 1:
			t.counts[s] += count
			return
		}
		s = (s + 1) & mask
	}
}

// tryAdd inserts without growing; it returns false when the key is new and
// the table is at its fill limit (the caller overflows the row elsewhere).
func (t *openTable) tryAdd(key uint64, count int64) bool {
	mask := uint64(len(t.keys) - 1)
	s := hashfn.Murmur2(key) & mask
	for {
		switch t.keys[s] {
		case 0:
			if t.rows >= t.limit {
				return false
			}
			t.keys[s] = key + 1
			t.counts[s] = count
			t.rows++
			return true
		case key + 1:
			t.counts[s] += count
			return true
		}
		s = (s + 1) & mask
	}
}

func (t *openTable) grow() {
	old := *t
	slots := len(t.keys) * 2
	t.keys = make([]uint64, slots)
	t.counts = make([]int64, slots)
	t.rows = 0
	t.limit = slots / 2
	for s, k := range old.keys {
		if k != 0 {
			t.add(k-1, old.counts[s])
		}
	}
}

func (t *openTable) each(fn func(key uint64, count int64)) {
	for s, k := range t.keys {
		if k != 0 {
			fn(k-1, t.counts[s])
		}
	}
}

// ---------------------------------------------------------------------------
// ATOMIC (1 pass): all threads share one open-addressing table; slots are
// claimed with compare-and-swap and counts updated with atomic adds. Cache
// efficient exactly while the shared table fits the combined cache (the
// ΣL3 mark in Figure 8) — which is why it beats the share-nothing designs
// in that one region — and a cache miss per row beyond it.

// AtomicAlg is the ATOMIC baseline.
type AtomicAlg struct{}

// Name implements Algorithm.
func (AtomicAlg) Name() string { return "ATOMIC" }

// Run implements Algorithm.
func (AtomicAlg) Run(keys []uint64, cfg Config) *Result {
	cfg = cfg.withDefaults()
	slots := nextPow2(max(4*cfg.EstimatedGroups, cfg.CacheBytes/16))
	tkeys := make([]uint64, slots)
	tcounts := make([]int64, slots)
	mask := uint64(slots - 1)

	var wg sync.WaitGroup
	bounds := chunkBounds(len(keys), cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				k := keys[i]
				s := hashfn.Murmur2(k) & mask
				for probes := 0; ; probes++ {
					if probes > slots {
						panic("baselines: ATOMIC table overflow — cardinality estimate too low")
					}
					cur := atomic.LoadUint64(&tkeys[s])
					if cur == 0 {
						if atomic.CompareAndSwapUint64(&tkeys[s], 0, k+1) {
							atomic.AddInt64(&tcounts[s], 1)
							break
						}
						cur = atomic.LoadUint64(&tkeys[s])
					}
					if cur == k+1 {
						atomic.AddInt64(&tcounts[s], 1)
						break
					}
					s = (s + 1) & mask
				}
			}
		}(bounds[w], bounds[w+1])
	}
	wg.Wait()

	res := &Result{}
	for s, k := range tkeys {
		if k != 0 {
			res.Keys = append(res.Keys, k-1)
			res.Counts = append(res.Counts, tcounts[s])
		}
	}
	return res
}

// ---------------------------------------------------------------------------
// INDEPENDENT (2 passes): pass 1 builds one private table per thread over
// its input chunk; pass 2 splits the hash space into one range per thread
// and merges each range from all private tables in parallel. Both passes
// trigger close to a miss per row once the private tables exceed each
// thread's cache share.

// Independent is the INDEPENDENT baseline.
type Independent struct{}

// Name implements Algorithm.
func (Independent) Name() string { return "INDEPENDENT" }

// Run implements Algorithm.
func (Independent) Run(keys []uint64, cfg Config) *Result {
	cfg = cfg.withDefaults()
	priv := make([]*openTable, cfg.Workers)
	bounds := chunkBounds(len(keys), cfg.Workers)

	// Pass 1: private aggregation.
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			t := newOpenTable(min(4*cfg.EstimatedGroups, 2*(hi-lo)))
			for i := lo; i < hi; i++ {
				t.add(keys[i], 1)
			}
			priv[w] = t
		}(w, bounds[w], bounds[w+1])
	}
	wg.Wait()

	// Pass 2: split the hash space into Workers ranges (multiply-shift of
	// the top hash bits, exact for any worker count); merge in parallel.
	merged := make([]*openTable, cfg.Workers)
	rangeOf := func(k uint64) int {
		return int(hashfn.Murmur2(k) >> 32 * uint64(cfg.Workers) >> 32)
	}
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			m := newOpenTable(4 * cfg.EstimatedGroups / cfg.Workers)
			for _, t := range priv {
				t.each(func(k uint64, c int64) {
					if rangeOf(k) == w {
						m.add(k, c)
					}
				})
			}
			merged[w] = m
		}(w)
	}
	wg.Wait()

	res := &Result{}
	for _, m := range merged {
		m.each(func(k uint64, c int64) {
			res.Keys = append(res.Keys, k)
			res.Counts = append(res.Counts, c)
		})
	}
	return res
}

// ---------------------------------------------------------------------------
// HYBRID (1 pass): each thread aggregates into a private table fixed to its
// share of the cache; when an insert cannot proceed, an existing entry is
// evicted into a global ATOMIC-style table (LRU-like "sampling" of hot
// groups). Adapts to locality but becomes ATOMIC-with-overhead once most of
// the output exceeds the private tables.

// Hybrid is the HYBRID baseline.
type Hybrid struct{}

// Name implements Algorithm.
func (Hybrid) Name() string { return "HYBRID" }

// Run implements Algorithm.
func (Hybrid) Run(keys []uint64, cfg Config) *Result {
	cfg = cfg.withDefaults()
	gslots := nextPow2(max(4*cfg.EstimatedGroups, cfg.CacheBytes/16))
	gkeys := make([]uint64, gslots)
	gcounts := make([]int64, gslots)
	gmask := uint64(gslots - 1)

	globalAdd := func(k uint64, c int64) {
		s := hashfn.Murmur2(k) & gmask
		for probes := 0; ; probes++ {
			if probes > gslots {
				panic("baselines: HYBRID global table overflow — cardinality estimate too low")
			}
			cur := atomic.LoadUint64(&gkeys[s])
			if cur == 0 {
				if atomic.CompareAndSwapUint64(&gkeys[s], 0, k+1) {
					atomic.AddInt64(&gcounts[s], c)
					return
				}
				cur = atomic.LoadUint64(&gkeys[s])
			}
			if cur == k+1 {
				atomic.AddInt64(&gcounts[s], c)
				return
			}
			s = (s + 1) & gmask
		}
	}

	privSlots := nextPow2(max(1024, cfg.CacheBytes/(16*cfg.Workers)))
	bounds := chunkBounds(len(keys), cfg.Workers)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			pkeys := make([]uint64, privSlots)
			pcounts := make([]int64, privSlots)
			pmask := uint64(privSlots - 1)
			const maxProbe = 8
			for i := lo; i < hi; i++ {
				k := keys[i]
				home := hashfn.Murmur2(k) & pmask
				s := home
				placed := false
				for p := 0; p < maxProbe; p++ {
					if pkeys[s] == 0 {
						pkeys[s] = k + 1
						pcounts[s] = 1
						placed = true
						break
					}
					if pkeys[s] == k+1 {
						pcounts[s]++
						placed = true
						break
					}
					s = (s + 1) & pmask
				}
				if !placed {
					// Evict the home-slot occupant to the global table and
					// take its place (the hot set adapts, LRU-style).
					globalAdd(pkeys[home]-1, pcounts[home])
					pkeys[home] = k + 1
					pcounts[home] = 1
				}
			}
			// Drain the private table.
			for s := range pkeys {
				if pkeys[s] != 0 {
					globalAdd(pkeys[s]-1, pcounts[s])
				}
			}
		}(bounds[w], bounds[w+1])
	}
	wg.Wait()

	res := &Result{}
	for s, k := range gkeys {
		if k != 0 {
			res.Keys = append(res.Keys, k-1)
			res.Counts = append(res.Counts, gcounts[s])
		}
	}
	return res
}

// ---------------------------------------------------------------------------
// PARTITION-AND-AGGREGATE (2 passes): pass 1 partitions the entire input by
// hash value into 256 partitions (naive scatter — the paper notes this
// baseline's partitioning "uses the naive implementation" without software
// write-combining); pass 2 aggregates each partition into a private table,
// parallel over partitions.

// PartitionAndAggregate is the PARTITION-AND-AGGREGATE baseline.
type PartitionAndAggregate struct{}

// Name implements Algorithm.
func (PartitionAndAggregate) Name() string { return "PARTITION-AND-AGGREGATE" }

// Run implements Algorithm.
func (PartitionAndAggregate) Run(keys []uint64, cfg Config) *Result {
	cfg = cfg.withDefaults()
	const fanout = hashfn.Fanout
	bounds := chunkBounds(len(keys), cfg.Workers)

	// Pass 1: per-thread naive partitioning.
	parts := make([][][]uint64, cfg.Workers) // [worker][partition][]keys
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			p := make([][]uint64, fanout)
			for i := lo; i < hi; i++ {
				d := hashfn.Digit(hashfn.Murmur2(keys[i]), 0)
				p[d] = append(p[d], keys[i])
			}
			parts[w] = p
		}(w, bounds[w], bounds[w+1])
	}
	wg.Wait()

	// Pass 2: aggregate each partition (parallel over partitions).
	tables := make([]*openTable, fanout)
	next := int64(-1)
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				d := int(atomic.AddInt64(&next, 1))
				if d >= fanout {
					return
				}
				t := newOpenTable(4 * cfg.EstimatedGroups / fanout)
				for w := range parts {
					for _, k := range parts[w][d] {
						t.add(k, 1)
					}
				}
				tables[d] = t
			}
		}()
	}
	wg.Wait()

	res := &Result{}
	for _, t := range tables {
		t.each(func(k uint64, c int64) {
			res.Keys = append(res.Keys, k)
			res.Counts = append(res.Counts, c)
		})
	}
	return res
}

// ---------------------------------------------------------------------------
// PLAT — Partition with Local Aggregation Table (2 passes): each thread
// aggregates into a private cache-sized table; rows whose group does not
// fit any more overflow into hash partitions, merged in a second pass. The
// private tables exploit locality like HYBRID, but overflow goes to
// partitions rather than a shared table.

// PLAT is the PLAT baseline.
type PLAT struct{}

// Name implements Algorithm.
func (PLAT) Name() string { return "PLAT" }

// Run implements Algorithm.
func (PLAT) Run(keys []uint64, cfg Config) *Result {
	cfg = cfg.withDefaults()
	const fanout = hashfn.Fanout
	bounds := chunkBounds(len(keys), cfg.Workers)

	type kv struct {
		k uint64
		c int64
	}
	// parts[worker][digit] collects overflowed rows (count 1) and, at the
	// end of pass 1, the drained private-table entries (with counts).
	parts := make([][][]kv, cfg.Workers)
	privSlots := max(1024, cfg.CacheBytes/(16*cfg.Workers))

	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			t := newOpenTable(privSlots)
			p := make([][]kv, fanout)
			for i := lo; i < hi; i++ {
				k := keys[i]
				if !t.tryAdd(k, 1) {
					d := hashfn.Digit(hashfn.Murmur2(k), 0)
					p[d] = append(p[d], kv{k, 1})
				}
			}
			// Drain the private "hot" table into its partitions so pass 2
			// only ever touches one partition's data.
			t.each(func(k uint64, c int64) {
				d := hashfn.Digit(hashfn.Murmur2(k), 0)
				p[d] = append(p[d], kv{k, c})
			})
			parts[w] = p
		}(w, bounds[w], bounds[w+1])
	}
	wg.Wait()

	// Pass 2: merge each partition across threads, parallel over
	// partitions.
	tables := make([]*openTable, fanout)
	next := int64(-1)
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				d := int(atomic.AddInt64(&next, 1))
				if d >= fanout {
					return
				}
				m := newOpenTable(4 * cfg.EstimatedGroups / fanout)
				for w := range parts {
					for _, e := range parts[w][d] {
						m.add(e.k, e.c)
					}
				}
				tables[d] = m
			}
		}()
	}
	wg.Wait()

	res := &Result{}
	for _, t := range tables {
		t.each(func(k uint64, c int64) {
			res.Keys = append(res.Keys, k)
			res.Counts = append(res.Counts, c)
		})
	}
	return res
}

// Lookup finds an algorithm by name.
func Lookup(name string) (Algorithm, error) {
	for _, a := range All() {
		if a.Name() == name {
			return a, nil
		}
	}
	return nil, fmt.Errorf("baselines: unknown algorithm %q", name)
}
