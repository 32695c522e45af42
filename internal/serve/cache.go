package serve

// The result cache: repeated queries are the common case of a multi-tenant
// service ("the same dashboard refreshing for a thousand users"), and the
// operator's determinism — identical input and aggregates yield a result
// equal as a set of rows regardless of budgets, workers or spill behaviour
// (docs/ALGORITHM.md, "The output contract": the order of rows inside a
// chunk follows the schedule) — makes the cached body a body a fresh
// execution could produce: the same rows, perhaps in another order.
//
// Two layers keep hits nearly free and misses cheap:
//
//   - a byte-bounded LRU holding pre-marshaled response bodies;
//   - singleflight dedup: identical queries arriving while one is already
//     executing wait for that leader instead of burning budget on N
//     identical executions. Followers share only success — a failed
//     leader's waiters retry admission themselves, because the leader's
//     failure (its deadline, its cancellation) is not theirs.

import (
	"container/list"
	"sync"
)

// cacheEntry is one cached result body.
type cacheEntry struct {
	key    string // full canonical query key (collision guard)
	body   []byte // pre-marshaled row+trailer JSONL
	groups int
	elem   *list.Element
}

// resultCache is the byte-bounded LRU with singleflight dedup.
// A nil *resultCache disables caching (every lookup misses, Do always
// executes).
type resultCache struct {
	maxBytes int64

	mu      sync.Mutex
	entries map[uint64]*cacheEntry // by 64-bit key hash
	order   *list.List             // front = most recent
	bytes   int64

	flights map[uint64]*flight

	metrics *Metrics
}

// flight is one in-progress execution of a query, shared by followers.
type flight struct {
	done   chan struct{}
	body   []byte
	groups int
	ok     bool
}

func newResultCache(maxBytes int64, m *Metrics) *resultCache {
	if maxBytes <= 0 {
		return nil
	}
	return &resultCache{
		maxBytes: maxBytes,
		entries:  make(map[uint64]*cacheEntry),
		order:    list.New(),
		flights:  make(map[uint64]*flight),
		metrics:  m,
	}
}

// fnv1a is the canonical key hash (64-bit FNV-1a, inlined to avoid the
// hash.Hash allocation on the hit path).
func fnv1a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// get returns the cached body for the canonical key, or ok=false.
func (c *resultCache) get(key string) (body []byte, groups int, ok bool) {
	if c == nil {
		return nil, 0, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[fnv1a(key)]
	if !ok || e.key != key {
		return nil, 0, false
	}
	c.order.MoveToFront(e.elem)
	return e.body, e.groups, true
}

// put inserts a result body, evicting least-recently-used entries to stay
// under the byte bound. Bodies larger than the whole cache are not stored.
func (c *resultCache) put(key string, body []byte, groups int) {
	if c == nil || int64(len(body)) > c.maxBytes {
		return
	}
	h := fnv1a(key)
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.entries[h]; ok {
		// Same hash: refresh (same key) or replace (collision — rare
		// enough that keeping the newcomer is fine).
		c.bytes -= int64(len(old.body))
		c.order.Remove(old.elem)
		delete(c.entries, h)
	}
	e := &cacheEntry{key: key, body: body, groups: groups}
	e.elem = c.order.PushFront(e)
	c.entries[h] = e
	c.bytes += int64(len(body))
	for c.bytes > c.maxBytes {
		back := c.order.Back()
		if back == nil {
			break
		}
		ev := back.Value.(*cacheEntry)
		c.order.Remove(back)
		delete(c.entries, fnv1a(ev.key))
		c.bytes -= int64(len(ev.body))
	}
	if c.metrics != nil {
		c.metrics.CacheEntries.Store(int64(len(c.entries)))
		c.metrics.CacheBytes.Store(c.bytes)
	}
}

// join registers interest in an in-flight execution of key. It returns
// either an existing flight to wait on (lead=false) or a fresh one the
// caller must complete via finish (lead=true). A nil cache always leads
// with a nil flight.
func (c *resultCache) join(key string) (f *flight, lead bool) {
	if c == nil {
		return nil, true
	}
	h := fnv1a(key)
	c.mu.Lock()
	defer c.mu.Unlock()
	if f, ok := c.flights[h]; ok {
		return f, false
	}
	f = &flight{done: make(chan struct{})}
	c.flights[h] = f
	return f, true
}

// finish completes a leader's flight: on ok the body is published to
// followers and the cache; either way the flight is deregistered and
// followers are released.
func (c *resultCache) finish(key string, f *flight, body []byte, groups int, ok bool) {
	if c == nil {
		return
	}
	h := fnv1a(key)
	f.body, f.groups, f.ok = body, groups, ok
	c.mu.Lock()
	delete(c.flights, h)
	c.mu.Unlock()
	close(f.done)
	if ok {
		c.put(key, body, groups)
	}
}
