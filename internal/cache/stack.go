package cache

import (
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/diskcache"
)

// Stack is the one read path of a dataset's record bytes, the pcr reader's
// and the server's: the memory LRU over the persistent disk tier over the
// dataset's backend, either tier optional. A read at one quality is a byte
// prefix of the read at the next, so each tier fills with exactly the delta
// of an upgrade.
//
// Every buffer Read and Gather return is a lease, which the caller hands
// back with Release whichever tier answered. A window of the memory tier's
// prefix stays the prefix's bytes until then; the prefix goes to the
// stack's free list once the tier has dropped it and no lease holds it.
// Any other buffer goes to the free list at Release. A memory-tier miss or
// upgrade takes its buffer from that list, as do a gather and a read
// beneath no memory tier; a prefix the tier keeps takes one at most twice
// its length, so its prefixes occupy at most twice the bytes it counts.
type Stack struct {
	ds   *core.Dataset
	mem  *Cache
	disk *diskcache.Backend
	// pull, when set, is tried first for every read beneath the memory
	// tier; on an error the read goes to the dataset's backend instead.
	pull      Fetcher
	bytesRead atomic.Int64
	free      Buffers
}

// freeBuffers is how many buffers the free list keeps: as many as a pcr
// reader reads ahead (four records). The list drops its oldest when full,
// so the small prefixes upgrades drop cannot crowd out the large ones
// evictions return.
const freeBuffers = 4

// NewStack builds the tiers over ds: a disk tier of diskBytes at diskDir
// unless it is empty, keyed by the fingerprint of ds's index and closed by
// ds.Close, under a memory tier of memBytes unless it is zero. pull, when
// non-nil, is the backing fetch tried before the dataset's backend.
func NewStack(ds *core.Dataset, memBytes int64, diskDir string, diskBytes int64, pull Fetcher) (*Stack, error) {
	s := &Stack{ds: ds, pull: pull, free: Buffers{max: freeBuffers}}
	if diskDir != "" {
		gen, err := core.IndexFingerprint(ds.Index())
		if err != nil {
			return nil, err
		}
		if s.disk, err = diskcache.Wrap(ds.Backend(), diskDir, diskBytes, gen); err != nil {
			return nil, err
		}
		ds.SetBackend(s.disk)
	}
	if memBytes > 0 {
		s.mem = newCache(memBytes, s.read, &s.free)
	}
	return s, nil
}

// read reads [off, off+n) of record rec beneath the memory tier, into dst
// when it has room (core.ReadRangeInto); a pulled read is the puller's
// buffer.
func (s *Stack) read(dst []byte, rec int, off, n int64) ([]byte, error) {
	if s.pull != nil {
		if b, err := s.pull(rec, off, n); err == nil {
			return b, nil
		}
	}
	b, err := s.ds.ReadRecordRangeInto(dst, rec, off, n)
	s.bytesRead.Add(int64(len(b)))
	return b, err
}

// Read returns [off, off+n) of record rec; a prefix is the window at zero.
// The memory tier caches the prefix through off+n, which serves any later
// read at the same or a lower quality and costs a longer one the delta.
func (s *Stack) Read(rec int, off, n int64) ([]byte, error) {
	if s.mem != nil {
		return s.mem.lend(rec, off, off+n)
	}
	return s.read(s.free.Take(n, math.MaxInt64), rec, off, n)
}

// Release hands back a buffer Read or Gather returned; the caller must not
// touch it again.
func (s *Stack) Release(b []byte) {
	if cap(b) > 0 && (s.mem == nil || !s.mem.release(b)) {
		s.free.Give(b)
	}
}

// Gather returns the bytes of the ranges of record rec that hold the scan
// group 1..group slices of the samples sel selects
// (core.RecordInfo.SampleRanges), concatenated in order. Beneath the memory
// tier, when the backend takes the selection (core.SampleReader), that is
// one pushdown request, into a buffer from the free list when it also reads
// into one (core.SampleReaderInto). Otherwise Gather slices by the ranges —
// the caller's, or when nil its own: through the memory tier one prefix
// read up to the last range's end, which warms the prefix, and a gather
// from it, beneath it a read per range.
func (s *Stack) Gather(rec, group int, sel []bool, ranges []core.ByteRange) ([]byte, error) {
	if sr, ok := s.ds.Backend().(core.SampleReader); ok && s.mem == nil {
		name, err := s.ds.RecordName(rec)
		if err != nil {
			return nil, err
		}
		var body []byte
		if into, ok := sr.(core.SampleReaderInto); ok {
			var n int64
			if n, err = s.ds.SampleBytes(rec, group, sel); err != nil {
				return nil, err
			}
			body, err = into.ReadSamplesInto(s.free.Take(n, math.MaxInt64), name, group, sel)
		} else {
			body, err = sr.ReadSamples(name, group, sel)
		}
		s.bytesRead.Add(int64(len(body)))
		return body, err
	}
	if ranges == nil {
		var err error
		if ranges, err = s.ds.SampleRanges(rec, group, sel); err != nil {
			return nil, err
		}
	}
	if len(ranges) == 0 {
		return nil, nil
	}
	if s.mem != nil {
		last := ranges[len(ranges)-1]
		prefix, err := s.mem.lend(rec, 0, last.Offset+last.Length)
		if err != nil {
			return nil, err
		}
		defer s.Release(prefix)
		return core.GatherRanges(s.free.Take(core.RangesTotal(ranges), math.MaxInt64), prefix, ranges)
	}
	body := s.free.Take(core.RangesTotal(ranges), math.MaxInt64)[:0]
	for _, rg := range ranges {
		part, err := s.read(body[len(body):], rec, rg.Offset, rg.Length)
		if err != nil {
			return nil, err
		}
		body = append(body, part...)
	}
	return body, nil
}

// Cached reports whether a tier is mounted.
func (s *Stack) Cached() bool { return s.mem != nil || s.disk != nil }

// MemStats snapshots the memory tier's counters; ok is false without one.
func (s *Stack) MemStats() (st Stats, ok bool) {
	if s.mem != nil {
		st, ok = s.mem.Stats(), true
	}
	return st, ok
}

// DiskStats snapshots the disk tier's counters; ok is false without one.
func (s *Stack) DiskStats() (st diskcache.Stats, ok bool) {
	if s.disk != nil {
		st, ok = s.disk.Stats(), true
	}
	return st, ok
}

// BytesRead counts the bytes read beneath the memory tier from the
// dataset's backend, of which the disk tier fetched BytesFetched.
func (s *Stack) BytesRead() int64 { return s.bytesRead.Load() }

// Free returns the buffers on the free list, oldest first, leaving it as it
// was; tests use it to see a buffer reused.
func (s *Stack) Free() [][]byte { return s.free.Free() }

// Close empties the free list and closes the dataset, the disk tier with it.
func (s *Stack) Close() error {
	s.free.mu.Lock()
	s.free.bufs = nil
	s.free.mu.Unlock()
	return s.ds.Close()
}

// Buffers is a free list of byte buffers whose holders are done with them,
// for the next read that fits one to reuse: a Stack's, for its reads and
// fills, and the pcr Loader's, for its spliced streams. A take gets the
// smallest buffer that fits, so a list of mixed sizes keeps the ones too
// small for the read at hand for the reads they fit. It keeps the newest
// and drops the oldest once full.
type Buffers struct {
	mu   sync.Mutex
	bufs [][]byte // oldest first
	max  int
	made atomic.Int64
}

// NewBuffers returns an empty list that keeps up to max buffers.
func NewBuffers(max int) *Buffers { return &Buffers{max: max} }

// Take returns a buffer of length n: the smallest on the list whose
// capacity is between n and most, else a new one with an eighth to spare,
// so that a slightly longer read can reuse it later.
func (f *Buffers) Take(n, most int64) []byte {
	f.mu.Lock()
	best := -1
	for i, b := range f.bufs {
		c := int64(cap(b))
		if c >= n && c <= most && (best < 0 || c < int64(cap(f.bufs[best]))) {
			best = i
		}
	}
	if best < 0 {
		f.mu.Unlock()
		f.made.Add(1)
		return make([]byte, n, n+n/8)
	}
	b := f.bufs[best]
	f.bufs = append(f.bufs[:best], f.bufs[best+1:]...)
	f.mu.Unlock()
	return b[:n]
}

// Give puts b on the list, dropping the oldest buffer if it is full.
func (f *Buffers) Give(b []byte) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.bufs) == f.max {
		f.bufs = append(f.bufs[:0], f.bufs[1:]...)
	}
	f.bufs = append(f.bufs, b)
}

// Made counts the buffers Take has made rather than reused; tests use it
// to see a list that keeps what its reads need.
func (f *Buffers) Made() int64 { return f.made.Load() }

// Free returns the buffers on the list, oldest first, leaving it as it
// was; tests use it to see a buffer reused.
func (f *Buffers) Free() [][]byte {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([][]byte(nil), f.bufs...)
}

// FreeList holds things whose holder is done with them — frames the pcr
// Loader's consumer handed back — for the next decode to reuse. It holds
// as many as its capacity and drops the rest; neither Take nor Give ever
// blocks. A nil list holds none.
type FreeList[T any] chan T

// Take returns a thing from the list, or T's zero value when it is empty.
func (f FreeList[T]) Take() T {
	select {
	case v := <-f:
		return v
	default:
		var zero T
		return zero
	}
}

// Give puts v on the list if it has room.
func (f FreeList[T]) Give(v T) {
	select {
	case f <- v:
	default:
	}
}
