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
	fetch    Fetcher
	stats    Stats
	// inflight marks the records being fetched. It is the singleflight —
	// a Get that finds its record marked waits for the channel to close —
	// and the pin evictLocked honours.
	inflight map[int]chan struct{}
}

// New builds a cache with the given byte capacity over the fetcher.
func New(capacity int64, fetch Fetcher) (*Cache, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("cache: non-positive capacity %d", capacity)
	}
	if fetch == nil {
		return nil, fmt.Errorf("cache: nil fetcher")
	}
	return &Cache{
		capacity: capacity,
		entries:  make(map[int]*entry),
		lru:      list.New(),
		fetch:    fetch,
		inflight: make(map[int]chan struct{}),
	}, nil
}

// serveLocked accounts a request served from the entry's prefix. Caller
// holds c.mu.
func (c *Cache) serveLocked(e *entry, prefixLen int64) []byte {
	c.lru.MoveToFront(e.elem)
	c.stats.BytesServed += prefixLen
	return e.prefix[:prefixLen:prefixLen]
}

// Get returns the first prefixLen bytes of the record, reading from the
// backing store only the bytes the cache does not already hold. The
// returned slice must not be modified.
func (c *Cache) Get(record int, prefixLen int64) ([]byte, error) {
	if prefixLen < 0 {
		return nil, fmt.Errorf("cache: negative prefix length")
	}
	c.mu.Lock()
	for {
		if e, ok := c.entries[record]; ok && int64(len(e.prefix)) >= prefixLen {
			c.stats.Hits++
			p := c.serveLocked(e, prefixLen)
			c.mu.Unlock()
			return p, nil
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
	p, err := c.fillLocked(record, prefixLen)
	c.evictLocked()
	delete(c.inflight, record)
	close(done)
	c.mu.Unlock()
	return p, err
}

// fillLocked fetches the bytes of the record past its cached prefix —
// from offset zero on a miss — and appends them. The record is pinned, so
// the prefix it extends is still cached when the fetch returns. Caller
// holds c.mu, which is dropped for the fetch.
func (c *Cache) fillLocked(record int, prefixLen int64) ([]byte, error) {
	e := c.entries[record]
	var have int64
	if e != nil {
		have = int64(len(e.prefix))
	}
	c.mu.Unlock()
	delta, err := c.fetch(record, have, prefixLen-have)
	c.mu.Lock()
	if err != nil {
		return nil, err
	}
	if int64(len(delta)) != prefixLen-have {
		return nil, fmt.Errorf("cache: fetcher returned %d bytes, want %d", len(delta), prefixLen-have)
	}
	c.stats.BytesFetched += int64(len(delta))
	c.used += int64(len(delta))
	if e == nil {
		c.stats.Misses++
		e = &entry{record: record, prefix: delta}
		e.elem = c.lru.PushFront(record)
		c.entries[record] = e
	} else {
		c.stats.UpgradeHits++
		e.prefix = append(e.prefix, delta...)
	}
	return c.serveLocked(e, prefixLen), nil
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
		c.used -= int64(len(c.entries[rec].prefix))
		delete(c.entries, rec)
		c.lru.Remove(back)
		c.stats.Evictions++
	}
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
