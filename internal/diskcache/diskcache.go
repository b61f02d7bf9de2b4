// Package diskcache is the persistent tier of the paper's §5 cache
// hierarchy: a crash-safe, delta-aware prefix cache on local disk, layered
// as a core.Backend decorator so it composes under every format and over
// both local directories and the remote prefix server.
//
// The paper's economy is that a record read at quality q is a strict byte
// prefix of the same record at quality q+1, so a fidelity upgrade is priced
// at the delta bytes only. The in-memory LRU (internal/cache) realizes that
// economy inside one process; this package extends it across process
// restarts, epochs, and co-located workers on disaggregated storage: a
// restarted training worker's second epoch reads from warm local files
// instead of the network.
//
// # Layout
//
// A cache directory holds one prefix file per cached object,
// obj-<sha256(name)>.p, and nothing else but the lock file. The file is the
// entry: a fixed header of headerSize bytes, then bytes [0,extent) of the
// upstream object. The header holds a magic, a hash of the generation, the
// extent, the CRC32 (IEEE) of [0,extent), a fill sequence number and a
// CRC32 of the file's name and the header, so a header is only intact in
// the file it was written to.
//
// Growing a cached prefix writes only the new bytes, at their place behind
// the header (never rewriting the cached prefix), then rewrites the header
// in place: two positioned writes, neither synced. The delta is fetched into
// the buffer the read returns, behind the window's cached part, so the bytes
// written are the bytes served. The CRC is maintained incrementally, so an
// upgrade does not re-read the prefix. Eviction is one unlink.
//
// # Crash safety
//
// Correctness after a crash rests on two checks, not on write order: the
// size check at open and the CRC on each recovered entry's first read. No
// write is synced, so a machine crash may persist a header without the data
// it describes; those checks then discard the entry. A crash between a
// fill's data write and its header write leaves the old header, which still
// describes the old prefix, intact behind it. A crash costs warmth, never a
// wrong byte.
//
// Open reads each data file's header and stats the file. A torn header or a
// file shorter than header + extent is removed and counted Discarded; data
// beyond the extent (a delta whose header never landed) is truncated away.
// Open writes nothing else.
//
// Open reads no cached byte, so reopening a terabyte cache costs one small
// read and one stat per entry. The CRC runs on each recovered entry's first
// read instead, under the object's in-flight mark and before any byte of it
// is served or extended: one pass over the extent checks the CRC and, when
// the requested window lies inside the extent, copies it out, so the bytes
// served are the bytes verified. A mismatch — a flipped byte, or a delta
// the crash lost while the file kept its length — quarantines the entry and
// the read restarts cold from upstream: no corrupt byte is ever served.
//
// # Concurrency
//
// A read the cached prefix cannot serve marks its object in flight: later
// readers of the object wait on the mark, so N readers cost one upstream
// fetch, and eviction skips it, so a fill always appends to the prefix it
// started from. The byte budget therefore holds up to the entries in
// flight, and once none is, up to one entry that alone is bigger than the
// capacity. The one way an entry in flight can still go is external damage
// to its data file, found by the fill itself or by a concurrent read; the
// fill then runs again from offset zero.
//
// # Coherence
//
// The cache is keyed by a caller-supplied generation string — in the pcr
// facade, a fingerprint of the dataset's record index (its ETag role). Open
// removes every data file whose header names another generation: entries
// never outlive the dataset build they were fetched from.
//
// A cache directory belongs to exactly one process at a time (each training
// worker mounts its own directory); Wrap takes an advisory lock and fails
// fast on a second opener where the platform supports it, and Close waits
// for the writes already started before it lets the lock go.
package diskcache

import (
	"cmp"
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"

	"repro/internal/core"
)

// Stats counts cache activity over the Backend's lifetime.
type Stats struct {
	// Hits are ReadRange calls served entirely from the cached prefix.
	Hits int64 `json:"hits"`
	// DeltaHits are calls served by extending a cached prefix: only the
	// missing suffix moved from upstream (the §5 delta-pricing property).
	DeltaHits int64 `json:"delta_hits"`
	// Misses are calls with no cached prefix to build on.
	Misses int64 `json:"misses"`
	// BytesServed counts bytes returned to callers.
	BytesServed int64 `json:"bytes_served"`
	// BytesFetched counts bytes read from the upstream Backend.
	BytesFetched int64 `json:"bytes_fetched"`
	// DeltaBytes is the subset of BytesFetched that extended an existing
	// prefix (upgrade traffic, as opposed to cold misses).
	DeltaBytes int64 `json:"delta_bytes"`
	// Evictions counts entries evicted to hold the byte budget.
	Evictions int64 `json:"evictions"`
	// Recovered counts data files Wrap kept: an intact header of this
	// generation on a file that holds the header's extent. Their CRCs are
	// checked on first read; an entry that fails moves from Recovered to
	// Discarded, so once every entry has been read the pair is what a full
	// CRC pass at open would report.
	Recovered int64 `json:"recovered"`
	// Discarded counts data files removed at open for a torn header or for
	// holding less than their header's extent, and recovered entries
	// quarantined by their first-read CRC check. Files of another
	// generation are removed without being counted.
	Discarded int64 `json:"discarded"`
}

type entry struct {
	length int64  // validated prefix extent on disk
	crc    uint32 // crc32(IEEE) of the first length bytes
	elem   *list.Element
	// verified is false for a recovered entry whose CRC has not been
	// checked yet; the first ReadRange touching it checks it (and
	// quarantines it on mismatch) before serving.
	verified bool
}

// Backend is a persistent prefix cache over an inner core.Backend. ReadRange
// serves byte windows out of local prefix files, fetching only missing
// suffix bytes from the inner backend; Open and List delegate.
// All methods are safe for concurrent use.
type Backend struct {
	inner core.Backend
	dir   string
	cap   int64
	gen   [16]byte // the first 16 bytes of sha256(generation)

	mu      sync.Mutex
	entries map[string]*entry // by data file name (fileKey)
	lru     *list.List        // front = most recent; values are file names
	used    int64
	seq     uint64 // the last fill sequence number written
	stats   Stats
	closed  bool
	lock    *dirLock
	// writes counts the fills writing a data file; Close waits for them.
	writes sync.WaitGroup
	// inflight marks the objects a read is checking or filling. It is the
	// singleflight — N concurrent readers of one prefix cost one upstream
	// fetch, the others wait for the channel to close — and the pin
	// evictLocked honours.
	inflight map[string]chan struct{}
}

var errClosed = errors.New("diskcache: closed")

// Wrap opens (or creates) the persistent cache at dir over the inner
// backend, with the given byte capacity and dataset generation. Data files
// a previous process left are reused when their header names this
// generation, each CRC-checked on its first read; files of another
// generation are removed. The returned Backend owns inner and closes it
// with Close.
func Wrap(inner core.Backend, dir string, capacity int64, generation string) (*Backend, error) {
	if inner == nil {
		return nil, fmt.Errorf("diskcache: nil inner backend")
	}
	if capacity <= 0 {
		return nil, fmt.Errorf("diskcache: non-positive capacity %d", capacity)
	}
	if dir == "" {
		return nil, fmt.Errorf("diskcache: empty cache directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("diskcache: %w", err)
	}
	lock, err := lockDir(dir)
	if err != nil {
		return nil, err
	}
	gen := sha256.Sum256([]byte(generation))
	b := &Backend{
		inner:    inner,
		dir:      dir,
		cap:      capacity,
		gen:      [16]byte(gen[:]),
		entries:  make(map[string]*entry),
		lru:      list.New(),
		lock:     lock,
		inflight: make(map[string]chan struct{}),
	}
	if err := b.recover(); err != nil {
		lock.unlock()
		return nil, err
	}
	return b, nil
}

// fileKey names an object's data file. Names are hashed because they may
// contain separators; the file's header, not its name, says which extent of
// the object it holds.
func fileKey(name string) string {
	sum := sha256.Sum256([]byte(name))
	return "obj-" + hex.EncodeToString(sum[:16]) + ".p"
}

func (b *Backend) path(key string) string { return filepath.Join(b.dir, key) }

// headerSize is the size of the header every data file starts with:
//
//	[0,4)   magic "PCRc"
//	[4,20)  the first 16 bytes of sha256(generation)
//	[20,28) extent, little-endian
//	[28,32) crc32(IEEE) of the object's bytes [0,extent)
//	[32,40) fill sequence number, little-endian: a later fill writes a
//	        larger one, so open reseeds the LRU in fill order
//	[40,44) crc32(IEEE) of the data file's name, then of [0,40)
//
// The last CRC covers the name because the data CRC alone would let a
// file copied to another object's name serve that object wrong bytes.
const headerSize = 44

const magic = "PCRc"

type header struct {
	gen    [16]byte
	extent int64
	crc    uint32
	seq    uint64
}

// marshal encodes h as the header of the data file named key.
func (h header) marshal(key string) []byte {
	raw := make([]byte, headerSize)
	copy(raw, magic)
	copy(raw[4:20], h.gen[:])
	binary.LittleEndian.PutUint64(raw[20:], uint64(h.extent))
	binary.LittleEndian.PutUint32(raw[28:], h.crc)
	binary.LittleEndian.PutUint64(raw[32:], h.seq)
	binary.LittleEndian.PutUint32(raw[40:], headerCRC(key, raw))
	return raw
}

func headerCRC(key string, raw []byte) uint32 {
	return crc32.Update(crc32.ChecksumIEEE([]byte(key)), crc32.IEEETable, raw[:40])
}

// parseHeader decodes the header of the data file named key, refusing a
// torn or foreign one: a wrong magic, a header CRC that does not match, or
// an extent that is not positive (a fill never writes an empty entry).
func parseHeader(key string, raw []byte) (header, bool) {
	if len(raw) < headerSize || string(raw[:4]) != magic ||
		binary.LittleEndian.Uint32(raw[40:]) != headerCRC(key, raw) {
		return header{}, false
	}
	h := header{
		extent: int64(binary.LittleEndian.Uint64(raw[20:])),
		crc:    binary.LittleEndian.Uint32(raw[28:]),
		seq:    binary.LittleEndian.Uint64(raw[32:]),
	}
	copy(h.gen[:], raw[4:20])
	return h, h.extent > 0
}

// readHeader reads the header of the data file at path, and the file's size.
func readHeader(path string) (header, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return header{}, 0, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return header{}, 0, err
	}
	raw := make([]byte, headerSize)
	if _, err := io.ReadFull(f, raw); err != nil {
		return header{}, 0, err
	}
	h, ok := parseHeader(filepath.Base(path), raw)
	if !ok {
		return header{}, 0, fmt.Errorf("diskcache: %s has a torn header", path)
	}
	return h, fi.Size(), nil
}

// recover makes an entry of every data file in the directory whose header
// is intact, names this generation and whose file holds the extent, and
// removes every other data file; data past an entry's extent is truncated.
// It reads no cached byte (each entry's CRC is checked on its first read)
// and writes nothing else.
func (b *Backend) recover() error {
	des, err := os.ReadDir(b.dir)
	if err != nil {
		return fmt.Errorf("diskcache: %w", err)
	}
	type found struct {
		key string
		header
	}
	var kept []found
	for _, de := range des {
		key := de.Name()
		if !strings.HasPrefix(key, "obj-") || !strings.HasSuffix(key, ".p") {
			continue
		}
		path := b.path(key)
		h, size, err := readHeader(path)
		switch {
		case err == nil && h.gen != b.gen:
			// Another dataset build's entry: removed, not counted.
		case err != nil || size-headerSize < h.extent:
			b.stats.Discarded++
		case size-headerSize > h.extent && os.Truncate(path, headerSize+h.extent) != nil:
			b.stats.Discarded++
		default:
			kept = append(kept, found{key, h})
			continue
		}
		if err := os.Remove(path); err != nil {
			return fmt.Errorf("diskcache: %w", err)
		}
	}
	slices.SortStableFunc(kept, func(x, y found) int { return cmp.Compare(x.seq, y.seq) })
	for _, f := range kept {
		e := &entry{length: f.extent, crc: f.crc}
		e.elem = b.lru.PushFront(f.key)
		b.entries[f.key] = e
		b.used += f.extent
		b.seq = max(b.seq, f.seq)
	}
	b.stats.Recovered = int64(len(kept))
	// Enforce the budget against whatever survived (capacity may have
	// shrunk since the last run).
	b.evictLocked()
	return nil
}

// openForRead opens an object's data file for reading. Tests replace it to
// count opens.
var openForRead = os.Open

// checkPrefix is a recovered entry's first-touch verification: one pass over
// the data file's extent [0,length) that checks its CRC against want and
// copies the window [offset,offset+n), which must lie inside the extent (n
// is zero for none), out of the same read, into dst when it has room
// (core.BufferFor). It allocates one buffer of at most 32 KiB, never the
// extent.
func checkPrefix(dst []byte, path string, length int64, want uint32, offset, n int64) ([]byte, error) {
	f, err := openForRead(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := io.NewSectionReader(f, headerSize, length)
	out := core.BufferFor(dst, n)
	buf := make([]byte, min(length, 32<<10))
	var crc uint32
	for pos := int64(0); pos < length; {
		chunk := buf[:min(int64(len(buf)), length-pos)]
		if _, err := io.ReadFull(r, chunk); err != nil {
			return nil, err
		}
		crc = crc32.Update(crc, crc32.IEEETable, chunk)
		if lo, hi := max(pos, offset), min(pos+int64(len(chunk)), offset+n); lo < hi {
			copy(out[lo-offset:], chunk[lo-pos:hi-pos])
		}
		pos += int64(len(chunk))
	}
	if crc != want {
		return nil, fmt.Errorf("diskcache: %s fails its header's CRC", path)
	}
	return out, nil
}

// readWindow reads [offset, offset+length) of the object whose data file is
// path, into dst when it has room.
func readWindow(dst []byte, path string, offset, length int64) ([]byte, error) {
	f, err := openForRead(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	buf := core.BufferFor(dst, length)
	if _, err := f.ReadAt(buf, headerSize+offset); err != nil {
		return nil, err
	}
	return buf, nil
}

// hitLocked serves [offset, offset+length) from the object's data file when
// a verified entry covers it, counting a hit. It drops b.mu for the file
// read; a file that vanished or shrank underfoot (external damage, or an
// eviction between the check and the read) drops the entry — even one in
// flight, whose fill then rebuilds it from zero — and the caller fetches
// upstream instead of failing. Caller holds b.mu.
func (b *Backend) hitLocked(dst []byte, key string, offset, length int64) ([]byte, bool) {
	e, ok := b.entries[key]
	if !ok || !e.verified || e.length < offset+length {
		return nil, false
	}
	b.lru.MoveToFront(e.elem)
	b.mu.Unlock()
	buf, err := readWindow(dst, b.path(key), offset, length)
	b.mu.Lock()
	if err != nil {
		b.invalidateLocked(key)
		return nil, false
	}
	b.stats.Hits++
	b.stats.BytesServed += length
	return buf, true
}

// ReadRange reads [offset, offset+length) of the named object into a new
// buffer (see ReadRangeInto).
func (b *Backend) ReadRange(name string, offset, length int64) ([]byte, error) {
	return b.ReadRangeInto(nil, name, offset, length)
}

var _ core.RangeReaderInto = (*Backend)(nil)

// ReadRangeInto reads [offset, offset+length) of the named object into dst
// when it has room (core.RangeReaderInto), fetching from the inner backend
// only the bytes past the cached prefix extent — offset zero on a cold
// miss, the cached length on an upgrade, nothing at all on a warm restart.
// The tier only ever writes the window into dst and keeps no reference to
// it.
func (b *Backend) ReadRangeInto(dst []byte, name string, offset, length int64) ([]byte, error) {
	if length < 0 {
		return nil, fmt.Errorf("diskcache: negative range length %d for %s", length, name)
	}
	if offset < 0 {
		return nil, fmt.Errorf("diskcache: negative range offset %d for %s", offset, name)
	}
	if length == 0 {
		return dst[:0], nil
	}

	key := fileKey(name)
	b.mu.Lock()
	for {
		if b.closed {
			b.mu.Unlock()
			return nil, errClosed
		}
		// Fast path: the window is inside a verified cached prefix.
		if buf, ok := b.hitLocked(dst, key, offset, length); ok {
			b.mu.Unlock()
			return buf, nil
		}
		done, busy := b.inflight[key]
		if !busy {
			break
		}
		// Another read is checking or filling this object; it may cover us.
		b.mu.Unlock()
		<-done
		b.mu.Lock()
	}
	done := make(chan struct{})
	b.inflight[key] = done
	out, err := b.fillLocked(dst, name, key, offset, length)
	b.evictLocked()
	delete(b.inflight, key)
	close(done)
	b.mu.Unlock()
	return out, err
}

// fillLocked serves a read the fast path could not: it checks a recovered
// entry's CRC on first touch, then extends the prefix to the window's end
// by one fetch → write sequence, from offset zero when nothing is cached.
// The window's cached part is read from the data file first and the delta
// is fetched behind it into the same buffer, which is the one written to
// the file and returned; only a window that starts past the cached extent
// takes the delta into a buffer of its own. The object is pinned, so the
// prefix a fill extends stays cached; only external damage can drop it, and
// the fill then runs again from zero. A fill that finds the tier closed
// when its fetch returns writes nothing. Caller holds b.mu, which is
// dropped for file and upstream I/O.
func (b *Backend) fillLocked(dst []byte, name, key string, offset, length int64) ([]byte, error) {
	need := offset + length
	path := b.path(key)
	// First touch of a recovered entry: check its CRC now, before any byte
	// of it is served or extended, and serve the window from the same pass
	// when it lies inside the extent. A mismatch quarantines the entry and
	// the fill below starts cold.
	if e, ok := b.entries[key]; ok && !e.verified {
		extent, crc, window := e.length, e.crc, length
		if need > extent {
			window = 0 // an upgrade: check the extent, then extend it below
		}
		b.mu.Unlock()
		out, err := checkPrefix(dst, path, extent, crc, offset, window)
		b.mu.Lock()
		if err != nil {
			b.invalidateLocked(key)
			b.stats.Recovered--
			b.stats.Discarded++
		} else {
			e.verified = true
			b.lru.MoveToFront(e.elem)
			if window > 0 {
				b.stats.Hits++
				b.stats.BytesServed += length
				return out, nil
			}
		}
	}
	for {
		e := b.entries[key]
		var have int64
		var crc uint32
		if e != nil {
			have, crc = e.length, e.crc
		}
		b.mu.Unlock()
		var out, delta []byte
		if offset <= have {
			out = core.BufferFor(dst, length)
			delta = out[have-offset:]
		} else {
			delta = make([]byte, need-have)
		}
		if offset < have {
			if _, err := readWindow(out, path, offset, have-offset); err != nil {
				// The data file was damaged underfoot: rebuild from zero.
				b.mu.Lock()
				b.invalidateLocked(key)
				continue
			}
		}
		got, err := core.ReadRangeInto(b.inner, delta, name, have, need-have)
		if err == nil && int64(len(got)) != need-have {
			err = fmt.Errorf("diskcache: upstream returned %d bytes of %s, want %d", len(got), name, need-have)
		}
		if err != nil {
			b.mu.Lock()
			return nil, err
		}
		crc = crc32.Update(crc, crc32.IEEETable, delta)
		b.mu.Lock()
		if b.closed {
			return nil, errClosed
		}
		b.seq++
		h := header{gen: b.gen, extent: need, crc: crc, seq: b.seq}
		b.writes.Add(1)
		b.mu.Unlock()
		ferr := writeEntry(path, h, delta, have, e == nil)
		b.mu.Lock()
		b.writes.Done()
		if e != nil && (ferr != nil || b.entries[key] != e) {
			// The data file was damaged underfoot: a fast-path read found
			// it and dropped the entry, or this fill could not write to
			// it. The delta is no prefix on its own; rebuild from zero.
			b.stats.BytesFetched += int64(len(delta))
			b.invalidateLocked(key)
			continue
		}
		if ferr != nil {
			return nil, ferr
		}
		b.stats.BytesFetched += int64(len(delta))
		b.stats.BytesServed += length
		b.used += int64(len(delta))
		if e == nil {
			b.stats.Misses++
			e = &entry{verified: true}
			e.elem = b.lru.PushFront(key)
			b.entries[key] = e
		} else {
			b.stats.DeltaHits++
			b.stats.DeltaBytes += int64(len(delta))
			b.lru.MoveToFront(e.elem)
		}
		e.length, e.crc = need, crc
		if out == nil {
			out = core.BufferFor(dst, length)
			copy(out, delta[offset-have:])
		}
		return out, nil
	}
}

// writeEntry writes a fill to the data file at path: the delta at its place
// behind the header, at object offset have, then the header h describing
// the grown extent, each one positioned write and neither synced. A crash
// between the two leaves the old header, which still describes the old
// prefix; a header that outlives its data is found by open's size check or
// the entry's first-read CRC. A fresh file is created (or emptied);
// otherwise the file must already exist, so a data file removed underfoot
// is reported rather than recreated holding only the delta.
func writeEntry(path string, h header, delta []byte, have int64, fresh bool) error {
	flag := os.O_WRONLY
	if fresh {
		flag |= os.O_CREATE | os.O_TRUNC
	}
	f, err := os.OpenFile(path, flag, 0o644)
	if err != nil {
		return fmt.Errorf("diskcache: %w", err)
	}
	if _, err = f.WriteAt(delta, headerSize+have); err == nil {
		_, err = f.WriteAt(h.marshal(filepath.Base(path)), 0)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("diskcache: writing %s: %w", path, err)
	}
	return nil
}

// invalidateLocked drops one entry whose data file was found damaged
// underfoot, and removes the file unless the tier is closed (the directory
// may belong to another process by then).
func (b *Backend) invalidateLocked(key string) {
	if e, ok := b.entries[key]; ok {
		b.used -= e.length
		delete(b.entries, key)
		b.lru.Remove(e.elem)
		if !b.closed {
			os.Remove(b.path(key))
		}
	}
}

// evictLocked drops least-recently-used entries (whole objects: partial
// prefixes are never trimmed) until the budget holds, skipping the pinned
// objects (those in flight). Eviction is one unlink. A closed Backend
// evicts nothing: the directory may belong to another process by then.
// Caller holds b.mu.
func (b *Backend) evictLocked() {
	for el := b.lru.Back(); el != nil && b.used > b.cap && !b.closed; {
		key := el.Value.(string)
		back := el
		el = el.Prev()
		if _, pinned := b.inflight[key]; pinned {
			continue
		}
		b.used -= b.entries[key].length
		delete(b.entries, key)
		b.lru.Remove(back)
		os.Remove(b.path(key))
		b.stats.Evictions++
	}
}

// Open streams the whole named object from the inner backend. Whole-object
// streams bypass the cache (the prefix economy lives on ReadRange, which is
// the only path PCR record reads use).
func (b *Backend) Open(name string) (io.ReadCloser, error) { return b.inner.Open(name) }

// List delegates to the inner backend.
func (b *Backend) List() ([]string, error) { return b.inner.List() }

// Contains reports whether the cache holds at least prefixLen bytes of the
// named object (without touching recency).
func (b *Backend) Contains(name string, prefixLen int64) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	e, ok := b.entries[fileKey(name)]
	return ok && e.length >= prefixLen
}

// UsedBytes returns the bytes currently cached on disk.
func (b *Backend) UsedBytes() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.used
}

// Len returns the number of cached objects.
func (b *Backend) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.entries)
}

// Stats returns a snapshot of the counters.
func (b *Backend) Stats() Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stats
}

// Close waits for the data-file writes already started, releases the
// directory lock, and closes the inner backend. A fill still fetching
// writes nothing once Close has begun. The cached files remain for the next
// process.
func (b *Backend) Close() error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil
	}
	b.closed = true
	b.mu.Unlock()
	b.writes.Wait()
	if b.lock != nil {
		b.lock.unlock()
	}
	return b.inner.Close()
}
