package cache

import (
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/diskcache"
)

// Stack is the one read path of a dataset's record bytes, the pcr reader's
// and the server's: the memory LRU over the persistent disk tier over the
// dataset's backend, either tier optional. A read at one quality is a byte
// prefix of the read at the next, so each tier fills with exactly the delta
// of an upgrade. A read beneath the memory tier reads into a buffer from
// the stack's free list, and the caller hands the result back with
// Release; Release leaves a memory tier's prefix alone.
type Stack struct {
	ds   *core.Dataset
	mem  *Cache
	disk *diskcache.Backend
	// pull, when set, is tried first for every read beneath the memory
	// tier; on an error the read goes to the dataset's backend instead.
	pull      Fetcher
	bytesRead atomic.Int64
	free      FreeList[[]byte] // as many as a reader reads ahead (pcr: four records)
}

// NewStack builds the tiers over ds: a disk tier of diskBytes at diskDir
// unless it is empty, keyed by the fingerprint of ds's index and closed by
// ds.Close, under a memory tier of memBytes unless it is zero. pull, when
// non-nil, is the backing fetch tried before the dataset's backend.
func NewStack(ds *core.Dataset, memBytes int64, diskDir string, diskBytes int64, pull Fetcher) (*Stack, error) {
	s := &Stack{ds: ds, pull: pull, free: make(FreeList[[]byte], 4)}
	var err error
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
		s.mem, err = New(memBytes, func(rec int, off, n int64) ([]byte, error) { return s.read(nil, rec, off, n) })
	}
	return s, err
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
	if s.mem == nil {
		return s.read(s.free.Take(), rec, off, n)
	}
	p, err := s.mem.Get(rec, off+n)
	if err != nil {
		return nil, err
	}
	return p[off:], nil
}

// Release hands back a buffer Read returned, for a later read to reuse.
func (s *Stack) Release(b []byte) {
	if s.mem == nil && cap(b) > 0 {
		s.free.Give(b)
	}
}

// Gather returns the bytes of ranges, ascending ranges of record rec that
// hold the scan-group-group slices of the samples sel selects, concatenated
// in order; the caller owns them. Through the memory tier that is one
// prefix read up to the last range's end, which warms the prefix, and a
// gather from it. Beneath it, it is one pushdown request when the backend
// takes the selection (core.SampleReader) and a read per range otherwise.
func (s *Stack) Gather(rec, group int, sel []bool, ranges []core.ByteRange) ([]byte, error) {
	if len(ranges) == 0 {
		return nil, nil
	}
	if s.mem != nil {
		last := ranges[len(ranges)-1]
		prefix, err := s.mem.Get(rec, last.Offset+last.Length)
		if err != nil {
			return nil, err
		}
		return core.GatherRanges(prefix, ranges)
	}
	if sr, ok := s.ds.Backend().(core.SampleReader); ok {
		name, err := s.ds.RecordName(rec)
		if err != nil {
			return nil, err
		}
		body, err := sr.ReadSamples(name, group, sel)
		s.bytesRead.Add(int64(len(body)))
		return body, err
	}
	body := make([]byte, 0, core.RangesTotal(ranges))
	for _, rg := range ranges {
		part, err := s.read(nil, rec, rg.Offset, rg.Length)
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

// Free returns the buffers on the free list, leaving it as it was; tests
// use it to see a buffer reused.
func (s *Stack) Free() [][]byte {
	bufs := make([][]byte, len(s.free))
	for i := range bufs {
		bufs[i] = s.free.Take()
		s.free.Give(bufs[i])
	}
	return bufs
}

// Close empties the free list and closes the dataset, the disk tier with it.
func (s *Stack) Close() error {
	for len(s.free) > 0 {
		s.free.Take()
	}
	return s.ds.Close()
}

// FreeList holds things whose holder is done with them — buffers a read
// beneath the memory tier returned, frames the pcr Loader's consumer handed
// back — for the next read or decode to reuse. It holds as many as its
// capacity and drops the rest; neither Take nor Give ever blocks. A nil
// list holds none.
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
