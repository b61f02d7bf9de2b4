// Package cache implements a PCR-aware record cache. The paper observes
// that PCRs "can reduce cache pressure since a subset of the data is used
// for training" (§5): a record cached at scan group g occupies only the
// prefix bytes of group g, and — because every quality level is a prefix of
// the same byte stream — a later request for a higher group can be served
// by fetching only the missing delta bytes and appending them to the cached
// prefix. Conventional record formats can do neither: their cache entries
// are all-or-nothing.
//
// The cache is an lru.Cache of record prefixes: byte-budget eviction, and
// a record being fetched pinned against it, so a delta upgrade always
// extends the prefix it started from and moves only the delta.
//
// A Cache built by New keeps every prefix it returns; the memory tier of a
// Stack lends its prefixes instead (see Stack).
package cache

import (
	"fmt"
	"sync"

	"repro/internal/lru"
)

// Fetcher reads a byte range of a record from backing storage. It is the
// integration point for both real files (os.File.ReadAt) and the iosim
// virtual-clock devices.
type Fetcher func(record int, offset, length int64) ([]byte, error)

// Stats counts cache activity.
type Stats struct {
	// Hits are requests fully served from cache.
	Hits int64
	// UpgradeHits are requests served by a delta read: the cached prefix
	// plus only the missing bytes.
	UpgradeHits int64
	// Misses are requests with no usable cached prefix.
	Misses int64
	// BytesFetched counts bytes read from backing storage.
	BytesFetched int64
	// BytesServed counts bytes returned to callers.
	BytesServed int64
	// Evictions counts evicted entries.
	Evictions int64
}

type entry struct {
	prefix []byte
	// leases counts the reads holding prefix; a Get's is never handed back.
	// dropped marks an entry evicted or replaced by its upgrade: its prefix
	// goes to the free list once leases is zero.
	leases  int
	dropped bool
}

// Cache is a byte-budgeted LRU of PCR record prefixes, an lru.Cache keyed
// by record. Backing-store fetches run outside its mutex, so concurrent
// Gets for different records overlap their I/O while duplicate Gets for the
// same record coalesce into one fetch.
type Cache struct {
	mu    sync.Mutex
	lru   *lru.Cache[int, *entry]
	fetch fetchInto
	stats Stats
	// A Stack's memory tier lends its prefixes: fills take their buffers
	// from free and dropped prefixes go back to it, and lent finds the
	// entry of a window by the last byte of its prefix's array (lastByte).
	// Both are nil in a Cache built by New.
	free *buffers
	lent map[*byte]*entry
}

// fetchInto is a Fetcher that reads into dst when it has room, the way
// core.ReadRangeInto does.
type fetchInto func(dst []byte, record int, offset, length int64) ([]byte, error)

// New builds a cache with the given byte capacity over the fetcher.
func New(capacity int64, fetch Fetcher) (*Cache, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("cache: non-positive capacity %d", capacity)
	}
	if fetch == nil {
		return nil, fmt.Errorf("cache: nil fetcher")
	}
	return newCache(capacity, func(_ []byte, record int, offset, length int64) ([]byte, error) {
		return fetch(record, offset, length)
	}, nil), nil
}

// newCache builds a cache over fetch; with a free list it is a Stack's
// memory tier, which lends its prefixes.
func newCache(capacity int64, fetch fetchInto, free *buffers) *Cache {
	c := &Cache{fetch: fetch, free: free}
	c.lru = lru.New(&c.mu, "cache", capacity, func(_ int, e *entry, evicted bool) {
		if evicted {
			c.stats.Evictions++
		}
		// No longer cached: the prefix is recycled once no read holds it,
		// an upgrade's before the evictions that follow it.
		if e.dropped = true; e.leases == 0 {
			c.recycleLocked(e)
		}
	})
	if free != nil {
		c.lent = make(map[*byte]*entry)
	}
	return c
}

// Get returns the first prefixLen bytes of the record, reading from the
// backing store only the bytes the cache does not already hold. The
// returned slice must not be modified; the cache never reuses it.
func (c *Cache) Get(record int, prefixLen int64) ([]byte, error) {
	b, err := c.lend(record, 0, prefixLen) // never handed back
	return b[:len(b):len(b)], err
}

// lend returns [off, end) of the record's prefix, leased until release is
// handed it, filling the prefix first when the tier holds less of it.
func (c *Cache) lend(record int, off, end int64) ([]byte, error) {
	if end < 0 {
		return nil, fmt.Errorf("cache: negative prefix length")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var e *entry
	var err error
	for ok := false; !ok; {
		if e, _, ok = c.lru.Get(record, end); ok {
			c.stats.Hits++
		} else if e, ok, err = c.fillLocked(record, end); err != nil {
			return nil, err
		}
	}
	c.stats.BytesServed += end
	b := e.prefix[off:end]
	if cap(b) > 0 {
		e.leases++
	}
	return b, nil
}

// release hands back a window lend returned and reports true, or reports
// false for a buffer that is no prefix of the tier.
func (c *Cache) release(b []byte) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.lent[lastByte(b)]
	if !ok {
		return false
	}
	if e.leases--; e.leases == 0 && e.dropped {
		c.recycleLocked(e)
	}
	return true
}

// lastByte keys a buffer by the last byte of its array, which every window
// of it that reaches that far shares; b must have capacity.
func lastByte(b []byte) *byte { return &b[:cap(b)][cap(b)-1] }

// fillLocked fills the record's prefix to prefixLen bytes and reports
// true, or reports false when it waited on another read's fill instead.
// The fetch runs with the record pinned and c.mu dropped (lru.Cache.Fill):
// it reads the bytes past the cached prefix (all of them on a miss) behind
// that prefix, into a buffer from the free list of a lending tier, the
// fetcher's buffer on a miss, or a new one. Caller holds c.mu.
func (c *Cache) fillLocked(record int, prefixLen int64) (*entry, bool, error) {
	var old *entry
	var have int64
	e, filled, err := c.lru.Fill(record, func(cached *entry, size int64) (*entry, int64, error) {
		old, have = cached, size
		var buf []byte
		switch {
		case c.free != nil:
			buf = c.free.take(prefixLen, 2*prefixLen)
		case old != nil:
			buf = make([]byte, prefixLen)
		}
		if old != nil {
			copy(buf, old.prefix)
		}
		delta, err := c.fetch(buf[have:], record, have, prefixLen-have)
		if err != nil {
			return nil, 0, err
		}
		if int64(len(delta)) != prefixLen-have {
			return nil, 0, fmt.Errorf("cache: fetcher returned %d bytes, want %d", len(delta), prefixLen-have)
		}
		if buf == nil {
			buf = delta
		} else if len(delta) > 0 && &delta[0] != &buf[have] {
			copy(buf[have:], delta)
		}
		return &entry{prefix: buf}, prefixLen, nil
	})
	if !filled {
		return nil, false, err
	}
	if old == nil {
		c.stats.Misses++
	} else {
		c.stats.UpgradeHits++
	}
	c.stats.BytesFetched += prefixLen - have
	if c.lent != nil && cap(e.prefix) > 0 {
		c.lent[lastByte(e.prefix)] = e
	}
	return e, true, nil
}

// recycleLocked hands a dropped, unleased entry's prefix to the free list
// of a lending tier. Caller holds c.mu.
func (c *Cache) recycleLocked(e *entry) {
	if c.lent == nil || cap(e.prefix) == 0 {
		return
	}
	delete(c.lent, lastByte(e.prefix))
	c.free.give(e.prefix)
}

// Contains reports whether the cache holds at least prefixLen bytes of the
// record (without touching recency).
func (c *Cache) Contains(record int, prefixLen int64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, have, ok := c.lru.Peek(record)
	return ok && have >= prefixLen
}

// UsedBytes returns the bytes currently cached.
func (c *Cache) UsedBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Used()
}

// Len returns the number of cached records.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}
