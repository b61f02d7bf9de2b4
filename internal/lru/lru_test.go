package lru

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// tier is the smallest tier over a Cache: a mutex, and the values evicted
// and replaced.
type tier struct {
	mu       sync.Mutex
	c        *Cache[string, int]
	evicted  []string
	replaced []int
}

func newTier(capacity int64) *tier {
	t := &tier{}
	t.c = New(&t.mu, "tier", capacity, func(k string, v int, evicted bool) {
		if evicted {
			t.evicted = append(t.evicted, k)
		} else {
			t.replaced = append(t.replaced, v)
		}
	})
	return t
}

// order lists the keys from the most recent to the least.
func (c *Cache[K, V]) order() []K {
	var ks []K
	for n := c.root.next; n != &c.root; n = n.next {
		ks = append(ks, n.key)
	}
	return ks
}

// fill locks the tier and fills k with fn.
func (t *tier) fill(k string, fn func(old int, size int64) (int, int64, error)) (int, bool, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.c.Fill(k, fn)
}

func (t *tier) snapshot() (int, int64, []string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.c.Len(), t.c.Used(), t.c.order()
}

func TestPutGetPeekRemove(t *testing.T) {
	tr := newTier(100)
	c := tr.c
	if _, _, ok := c.Get("a", 0); ok {
		t.Fatal("empty cache hit")
	}
	if _, _, ok := c.Peek("a"); ok {
		t.Fatal("empty cache peeked a value")
	}
	c.Put("a", 1, 30)
	c.Put("b", 2, 30)
	c.Put("c", 3, 30)
	if v, size, ok := c.Peek("a"); !ok || v != 1 || size != 30 {
		t.Fatalf("Peek(a) = %d, %d, %v", v, size, ok)
	}
	if got := c.order(); !slices.Equal(got, []string{"c", "b", "a"}) {
		t.Fatalf("Peek moved a: order %v", got)
	}
	if _, _, ok := c.Get("a", 31); ok || !slices.Equal(c.order(), []string{"c", "b", "a"}) {
		t.Fatalf("Get of more than a holds hit (%v) or moved it: order %v", ok, c.order())
	}
	if v, size, ok := c.Get("a", 30); !ok || v != 1 || size != 30 {
		t.Fatalf("Get(a) = %d, %d, %v", v, size, ok)
	}
	if got := c.order(); !slices.Equal(got, []string{"a", "c", "b"}) {
		t.Fatalf("Get left a behind: order %v", got)
	}
	c.Put("c", 4, 50) // replaced in place, grown: b, the least recent, goes
	if v, _, _ := c.Peek("c"); v != 4 || c.Len() != 2 || c.Used() != 80 || !slices.Equal(tr.evicted, []string{"b"}) || !slices.Equal(tr.replaced, []int{3}) {
		t.Fatalf("after growing c: value %d, len %d, used %d, evicted %v, replaced %v", v, c.Len(), c.Used(), tr.evicted, tr.replaced)
	}
	c.Put("c", 4, 50) // the same value: nothing replaced
	if len(tr.replaced) != 1 {
		t.Fatalf("putting c's own value again replaced %v", tr.replaced)
	}
	if !c.Remove("a") || c.Remove("a") {
		t.Fatal("Remove reports wrongly")
	}
	if c.Len() != 1 || c.Used() != 50 || len(tr.evicted) != 1 {
		t.Fatalf("after removing a: len %d, used %d, evicted %v", c.Len(), c.Used(), tr.evicted)
	}
}

// TestOversizedEntryKept: an entry bigger than the capacity stays while it
// is in flight and goes at the next eviction.
func TestOversizedEntryKept(t *testing.T) {
	tr := newTier(10)
	if _, filled, err := tr.fill("big", func(int, int64) (int, int64, error) { return 1, 50, nil }); !filled || err != nil {
		t.Fatalf("Fill reports %v, %v", filled, err)
	}
	if n, used, _ := tr.snapshot(); n != 1 || used != 50 {
		t.Fatalf("the filled oversized entry went: len %d, used %d", n, used)
	}
	tr.mu.Lock()
	tr.c.Put("small", 2, 5)
	tr.mu.Unlock()
	if n, used, order := tr.snapshot(); n != 1 || used != 5 || order[0] != "small" {
		t.Fatalf("after the next put: len %d, used %d, order %v", n, used, order)
	}
}

// TestFillPinsAgainstEviction: puts that overflow the budget while a key is
// in flight evict around it, and the fill extends the value it was given.
func TestFillPinsAgainstEviction(t *testing.T) {
	tr := newTier(100)
	tr.mu.Lock()
	tr.c.Put("a", 1, 40)
	tr.mu.Unlock()
	entered, release := make(chan struct{}), make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, _, err := tr.fill("a", func(old int, size int64) (int, int64, error) {
			close(entered)
			<-release
			if old != 1 || size != 40 {
				return 0, 0, fmt.Errorf("fill given %d, %d, want 1, 40", old, size)
			}
			return 2, 60, nil
		})
		done <- err
	}()
	<-entered
	tr.mu.Lock()
	tr.c.Put("b", 3, 50)
	tr.c.Put("c", 4, 50) // over budget: a is pinned, so b goes
	tr.mu.Unlock()
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	n, used, order := tr.snapshot()
	if !slices.Equal(tr.evicted, []string{"b", "c"}) || !slices.Equal(tr.replaced, []int{1}) || n != 1 || used != 60 || order[0] != "a" {
		t.Fatalf("evicted %v, replaced %v, len %d, used %d, order %v; want b then c evicted, 1 replaced and a at 60", tr.evicted, tr.replaced, n, used, order)
	}
}

// parked waits until a goroutine is blocked in Fill on another's fill.
func parked(t *testing.T) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); runtime.Gosched() {
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if lines := strings.SplitN(g, "\n", 3); len(lines) > 1 && strings.Contains(lines[0], "[chan receive") &&
				strings.HasPrefix(lines[1], "repro/internal/lru.(*Cache[...]).Fill(") {
				return
			}
		}
	}
	t.Fatal("no Fill waited")
}

// TestFailedFillLeavesCacheAsFound: a fill that errs or panics caches
// nothing and changes no entry; only its own caller gets the error (a
// panic's names its value). A Fill that waited on it reports false and
// fills nothing, and the Fill its caller makes next runs its own fill on
// the entry as it was.
func TestFailedFillLeavesCacheAsFound(t *testing.T) {
	for _, fault := range []string{"error", "panic"} {
		t.Run(fault, func(t *testing.T) {
			tr := newTier(100)
			tr.mu.Lock()
			tr.c.Put("a", 1, 40)
			tr.c.Put("b", 2, 40)
			tr.mu.Unlock()
			n0, used0, order0 := tr.snapshot()
			entered, release := make(chan struct{}), make(chan struct{})
			failed := make(chan error, 1)
			go func() {
				_, _, err := tr.fill("a", func(int, int64) (int, int64, error) {
					close(entered)
					<-release
					if fault == "panic" {
						panic("store fault")
					}
					return 9, 99, errors.New("store fault")
				})
				failed <- err
			}()
			<-entered
			waited := make(chan error, 1)
			go func() {
				fn := func(old int, size int64) (int, int64, error) {
					if old != 1 || size != 40 {
						return 0, 0, fmt.Errorf("waiter's fill given %d, %d, want the entry as it was", old, size)
					}
					return old, size, nil
				}
				if v, filled, err := tr.fill("a", fn); v != 0 || filled || err != nil {
					waited <- fmt.Errorf("a Fill that waited returned %d, %v, %v; want nothing", v, filled, err)
					return
				}
				v, filled, err := tr.fill("a", fn)
				if err == nil && (v != 1 || !filled) {
					err = fmt.Errorf("waiter's next Fill returned %d, %v", v, filled)
				}
				waited <- err
			}()
			parked(t)
			close(release)
			err := <-failed
			if want := map[string]string{"error": "store fault", "panic": "tier: fill of a panicked: store fault"}[fault]; err == nil || err.Error() != want {
				t.Fatalf("filler's error %v, want %q", err, want)
			}
			if err := <-waited; err != nil {
				t.Fatal(err)
			}
			n, used, order := tr.snapshot()
			if n != n0 || used != used0 || len(tr.evicted)+len(tr.replaced) != 0 || !slices.Equal(order, []string{"a", "b"}) || !slices.Equal(order0, []string{"b", "a"}) {
				t.Fatalf("after the failed fill: len %d, used %d, evicted %v, order %v; want %d, %d, none, [a b] (the waiter's fill touched a)", n, used, tr.evicted, order, n0, used0)
			}
			if len(tr.c.inflight) != 0 {
				t.Fatal("a fill left a key in flight")
			}
		})
	}
}
