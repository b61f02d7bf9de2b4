// Package lru is the pinned LRU under both record cache tiers: the paper's
// §5 cache economy, a byte-budgeted LRU of record prefixes whose record in
// flight is pinned, so that an upgrade extends the prefix it started from
// and moves only the delta. The memory tier (internal/cache) keeps its
// prefixes in it, the persistent tier (internal/diskcache) its data files.
package lru

import (
	"fmt"
	"sync"
)

// Cache is a byte-budgeted least-recently-used set of values keyed by K,
// each counting its size against the capacity.
//
// It has no lock of its own: the tier's mutex, given to New, guards it, and
// every method is called with that mutex held. Fill is the one place that
// drops it, around a fill, and it takes it back in one deferred step, so a
// fill that fails, comes up short or panics leaves the cache as it found it.
//
// A key being filled is in flight. The in-flight set is the singleflight —
// a second Fill of the key waits for the first, then its caller looks
// again — and the eviction pin: eviction skips a key in flight, so its
// value is still cached when its fill returns. The budget therefore holds
// up to the entries in flight and, once none is, up to the one filled last
// when it alone is bigger than the capacity.
type Cache[K, V comparable] struct {
	mu       *sync.Mutex
	name     string
	capacity int64
	used     int64
	nodes    map[K]*node[K, V]
	root     node[K, V] // root.next is the most recent entry, root.prev the least
	inflight map[K]chan struct{}
	dropped  func(k K, v V, evicted bool)
}

type node[K, V comparable] struct {
	key        K
	val        V
	size       int64
	prev, next *node[K, V]
}

// New builds an empty cache of the given capacity guarded by mu. name
// prefixes the errors it makes, and dropped is called, with mu held, for
// each value the cache lets go but by Remove: evicted, or replaced by Put
// with another value.
func New[K, V comparable](mu *sync.Mutex, name string, capacity int64, dropped func(k K, v V, evicted bool)) *Cache[K, V] {
	c := &Cache[K, V]{mu: mu, name: name, capacity: capacity, dropped: dropped,
		nodes: make(map[K]*node[K, V]), inflight: make(map[K]chan struct{})}
	c.root.prev, c.root.next = &c.root, &c.root
	return c
}

// Get returns k's value and size, and makes it the most recent, when it
// holds at least need bytes.
func (c *Cache[K, V]) Get(k K, need int64) (v V, size int64, ok bool) {
	if n, ok := c.nodes[k]; ok && n.size >= need {
		c.unlink(n)
		c.pushFront(n)
		return n.val, n.size, true
	}
	return v, 0, false
}

// Peek returns k's value and size, leaving its recency alone.
func (c *Cache[K, V]) Peek(k K) (v V, size int64, ok bool) {
	if n, ok := c.nodes[k]; ok {
		return n.val, n.size, true
	}
	return v, 0, false
}

// Remove drops k, without calling dropped, and reports whether it was
// cached. A fill of k in flight still caches what it returns.
func (c *Cache[K, V]) Remove(k K) bool {
	n, ok := c.nodes[k]
	if ok {
		c.drop(n)
	}
	return ok
}

// Fill replaces k's value by fill's and reports true. If another fill of k
// is in flight it waits for that one instead and reports false, filling
// nothing: the caller looks again, and finds k as that fill left it.
// Otherwise it pins k, drops the mutex and calls fill, which may take it
// but must let it go, with k's value and size (V's zero value and 0 when k
// is not cached). One deferred step takes the mutex back, caches what fill
// returned unless it failed, evicts, and unpins k, waking the callers that
// waited. A panic in fill comes back as an error naming its value, to this
// caller only.
func (c *Cache[K, V]) Fill(k K, fill func(old V, size int64) (V, int64, error)) (v V, filled bool, err error) {
	if done := c.inflight[k]; done != nil {
		c.mu.Unlock()
		<-done
		c.mu.Lock()
		return v, false, nil
	}
	done := make(chan struct{})
	c.inflight[k] = done
	old, size, _ := c.Peek(k)
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		if r := recover(); r != nil {
			err = fmt.Errorf("%s: fill of %v panicked: %v", c.name, k, r)
		}
		if err == nil {
			c.Put(k, v, size)
		} else {
			c.evict()
		}
		delete(c.inflight, k)
		close(done)
	}()
	v, size, err = fill(old, size)
	return v, err == nil, err
}

// Len returns the number of cached entries.
func (c *Cache[K, V]) Len() int { return len(c.nodes) }

// Used returns the sum of the cached entries' sizes.
func (c *Cache[K, V]) Used() int64 { return c.used }

// Put caches v, of size bytes, as k's value and the most recent, then
// evicts down to the capacity.
func (c *Cache[K, V]) Put(k K, v V, size int64) {
	n, ok := c.nodes[k]
	if ok {
		c.unlink(n)
		if n.val != v {
			c.dropped(k, n.val, false)
		}
	} else {
		n = &node[K, V]{key: k}
		c.nodes[k] = n
	}
	c.used += size - n.size
	n.val, n.size = v, size
	c.pushFront(n)
	c.evict()
}

// evict drops least-recently-used entries until the budget holds, skipping
// the keys in flight.
func (c *Cache[K, V]) evict() {
	for n := c.root.prev; n != &c.root && c.used > c.capacity; n = n.prev {
		if _, pinned := c.inflight[n.key]; !pinned {
			c.drop(n)
			c.dropped(n.key, n.val, true)
		}
	}
}

// drop unlinks n, whose prev stays set for evict's walk.
func (c *Cache[K, V]) drop(n *node[K, V]) {
	c.unlink(n)
	delete(c.nodes, n.key)
	c.used -= n.size
}

func (c *Cache[K, V]) unlink(n *node[K, V]) { n.prev.next, n.next.prev = n.next, n.prev }

func (c *Cache[K, V]) pushFront(n *node[K, V]) {
	n.prev, n.next = &c.root, c.root.next
	n.prev.next, n.next.prev = n, n
}
