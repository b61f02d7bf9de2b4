// Package cache implements a PCR-aware record cache. The paper observes
// that PCRs "can reduce cache pressure since a subset of the data is used
// for training" (§5): a record cached at scan group g occupies only the
// prefix bytes of group g, and — because every quality level is a prefix of
// the same byte stream — a later request for a higher group can be served
// by fetching only the missing delta bytes and appending them to the cached
// prefix. Conventional record formats can do neither: their cache entries
// are all-or-nothing.
//
// The cache is an LRU over record prefixes with byte-budget eviction. A
// record being fetched is pinned against eviction, so a delta upgrade
// always extends the prefix it started from and moves only the delta.
//
// A Cache built by New keeps every prefix it returns. The memory tier of a
// Stack instead lends its prefixes: each read holds its window until
// Stack.Release, and a prefix the tier has dropped — evicted, or replaced by
// its upgrade — goes back to the stack's free list once no read holds it,
// for the next fill, upgrade or gather to reuse.
package cache

import (
	"container/list"
	"fmt"
	"sync"
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
	record int
	prefix []byte
	elem   *list.Element
	// leases counts the reads holding prefix; a Get's is never handed back.
	// dropped marks an entry evicted or replaced by its upgrade: its prefix
	// goes to the free list once leases is zero.
	leases  int
	dropped bool
}

// Cache is a byte-budgeted LRU of PCR record prefixes. The global mutex
// guards only in-memory state; backing-store fetches run outside it, so
// concurrent Gets for different records overlap their I/O while duplicate
// Gets for the same record coalesce into one fetch.
//
// Eviction skips the records in flight until their fetches are accounted,
// so used may exceed the capacity by those entries, one per concurrent Get.
// Once none is in flight it is back under the capacity, unless the last
// entry fetched alone is bigger (kept until the next fetch evicts it).
type Cache struct {
	mu       sync.Mutex
	capacity int64
	used     int64
	entries  map[int]*entry
	lru      *list.List // front = most recent; values are record ids
	fetch    fetchInto
	stats    Stats
	// inflight marks the records being fetched. It is the singleflight —
	// a Get that finds its record marked waits for the channel to close —
	// and the pin evictLocked honours.
	inflight map[int]chan struct{}
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
	c := &Cache{
		capacity: capacity,
		entries:  make(map[int]*entry),
		lru:      list.New(),
		fetch:    fetch,
		inflight: make(map[int]chan struct{}),
		free:     free,
	}
	if free != nil {
		c.lent = make(map[*byte]*entry)
	}
	return c
}

// Get returns the first prefixLen bytes of the record, reading from the
// backing store only the bytes the cache does not already hold. The
// returned slice must not be modified; the cache never reuses it.
func (c *Cache) Get(record int, prefixLen int64) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, err := c.getLocked(record, prefixLen)
	if err != nil {
		return nil, err
	}
	e.leases++ // never handed back
	return e.prefix[:prefixLen:prefixLen], nil
}

// lend is Get for a Stack: it returns [off, end) of the record's prefix,
// leased until release is handed it.
func (c *Cache) lend(record int, off, end int64) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, err := c.getLocked(record, end)
	if err != nil {
		return nil, err
	}
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

// getLocked returns the record's entry holding at least prefixLen bytes,
// served and accounted, filling it first when it holds fewer. Caller holds
// c.mu, which is dropped while a fill fetches or another Get's fill of the
// record is awaited.
func (c *Cache) getLocked(record int, prefixLen int64) (*entry, error) {
	if prefixLen < 0 {
		return nil, fmt.Errorf("cache: negative prefix length")
	}
	for {
		if e, ok := c.entries[record]; ok && int64(len(e.prefix)) >= prefixLen {
			c.stats.Hits++
			c.serveLocked(e, prefixLen)
			return e, nil
		}
		done, busy := c.inflight[record]
		if !busy {
			break
		}
		// Another Get is fetching this record; it may cover us.
		c.mu.Unlock()
		<-done
		c.mu.Lock()
	}
	done := make(chan struct{})
	c.inflight[record] = done
	e, err := c.fillLocked(record, prefixLen)
	c.evictLocked()
	delete(c.inflight, record)
	close(done)
	return e, err
}

// serveLocked accounts a request served from the entry's prefix. Caller
// holds c.mu.
func (c *Cache) serveLocked(e *entry, prefixLen int64) {
	c.lru.MoveToFront(e.elem)
	c.stats.BytesServed += prefixLen
}

// fillLocked fetches the bytes of the record past its cached prefix —
// from offset zero on a miss — into the tail of a buffer that holds the
// cached prefix at its head, and caches that buffer in the old prefix's
// place. A lending tier takes the buffer from its free list and drops the
// old prefix; otherwise a miss keeps the fetcher's buffer and an upgrade
// allocates. The record is pinned, so the prefix it extends is still
// cached when the fetch returns. Caller holds c.mu, which is dropped for
// the fetch.
func (c *Cache) fillLocked(record int, prefixLen int64) (*entry, error) {
	old := c.entries[record]
	var have int64
	if old != nil {
		have = int64(len(old.prefix))
	}
	c.mu.Unlock()
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
	c.mu.Lock()
	if err != nil {
		return nil, err
	}
	if int64(len(delta)) != prefixLen-have {
		return nil, fmt.Errorf("cache: fetcher returned %d bytes, want %d", len(delta), prefixLen-have)
	}
	if buf == nil {
		buf = delta
	} else if len(delta) > 0 && &delta[0] != &buf[have] {
		copy(buf[have:], delta)
	}
	c.stats.BytesFetched += int64(len(delta))
	c.used += int64(len(delta))
	e := &entry{record: record, prefix: buf}
	if old == nil {
		c.stats.Misses++
		e.elem = c.lru.PushFront(record)
	} else {
		c.stats.UpgradeHits++
		e.elem = old.elem
		c.dropLocked(old)
	}
	c.entries[record] = e
	if c.lent != nil && cap(buf) > 0 {
		c.lent[lastByte(buf)] = e
	}
	c.serveLocked(e, prefixLen)
	return e, nil
}

// evictLocked drops least-recently-used entries until the budget holds,
// skipping the pinned records (those in flight). Caller holds c.mu.
func (c *Cache) evictLocked() {
	for el := c.lru.Back(); el != nil && c.used > c.capacity; {
		rec := el.Value.(int)
		back := el
		el = el.Prev()
		if _, pinned := c.inflight[rec]; pinned {
			continue
		}
		e := c.entries[rec]
		c.used -= int64(len(e.prefix))
		delete(c.entries, rec)
		c.lru.Remove(back)
		c.dropLocked(e)
		c.stats.Evictions++
	}
}

// dropLocked marks an entry no longer cached and recycles its prefix if no
// read holds it. Caller holds c.mu.
func (c *Cache) dropLocked(e *entry) {
	e.dropped = true
	if e.leases == 0 {
		c.recycleLocked(e)
	}
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
	e, ok := c.entries[record]
	return ok && int64(len(e.prefix)) >= prefixLen
}

// UsedBytes returns the bytes currently cached.
func (c *Cache) UsedBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.used
}

// Len returns the number of cached records.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}
