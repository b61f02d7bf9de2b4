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
// The entries are an lru.Cache of data files, which pins an object being
// filled. External damage to its data file still drops it; the fill then
// runs again from offset zero.
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
	"repro/internal/lru"
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

// entry is a cached prefix; its extent on disk is its size in the LRU.
type entry struct {
	crc uint32 // crc32(IEEE) of the extent
	// unchecked marks a recovered entry whose CRC has not been checked yet;
	// the first read touching it checks it (and quarantines it on mismatch)
	// before serving.
	unchecked bool
}

// Backend is a persistent prefix cache over an inner core.Backend. ReadRange
// serves byte windows out of local prefix files, fetching only missing
// suffix bytes from the inner backend; Open and List delegate.
// All methods are safe for concurrent use.
type Backend struct {
	inner core.Backend
	dir   string
	gen   [16]byte // the first 16 bytes of sha256(generation)

	mu      sync.Mutex
	entries *lru.Cache[string, entry] // by data file name (fileKey)
	seq     uint64                    // the last fill sequence number written
	stats   Stats
	closed  bool
	lock    *dirLock
	// writes counts the fills writing a data file; Close waits for them.
	writes sync.WaitGroup
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
	b := &Backend{inner: inner, dir: dir, gen: [16]byte(gen[:]), lock: lock}
	// Eviction is one unlink, and none once closed: the directory may
	// belong to another process by then.
	b.entries = lru.New(&b.mu, "diskcache", capacity, func(key string, _ entry, evicted bool) {
		if evicted && !b.closed {
			b.stats.Evictions++
			os.Remove(b.path(key))
		}
	})
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
	b.stats.Recovered = int64(len(kept))
	// Each Put enforces the budget (capacity may have shrunk since the last
	// run), so the oldest fills go first.
	slices.SortStableFunc(kept, func(x, y found) int { return cmp.Compare(x.seq, y.seq) })
	for _, f := range kept {
		b.entries.Put(f.key, entry{crc: f.crc, unchecked: true}, f.extent)
		b.seq = max(b.seq, f.seq)
	}
	return nil
}

// openForRead opens an object's data file for reading. Tests replace it to
// count opens.
var openForRead = os.Open

// checkPrefix is a recovered entry's first-touch verification: one pass over
// the data file's extent [0,length) that checks its CRC against want and
// copies the window [offset,offset+n), which must lie inside the extent (n
// is zero for none), out of the same read into dst, which holds n bytes. It
// allocates one buffer of at most 32 KiB, never the extent.
func checkPrefix(dst []byte, path string, length int64, want uint32, offset, n int64) error {
	f, err := openForRead(path)
	if err != nil {
		return err
	}
	defer f.Close()
	r := io.NewSectionReader(f, headerSize, length)
	buf := make([]byte, min(length, 32<<10))
	var crc uint32
	for pos := int64(0); pos < length; {
		chunk := buf[:min(int64(len(buf)), length-pos)]
		if _, err := io.ReadFull(r, chunk); err != nil {
			return err
		}
		crc = crc32.Update(crc, crc32.IEEETable, chunk)
		if lo, hi := max(pos, offset), min(pos+int64(len(chunk)), offset+n); lo < hi {
			copy(dst[lo-offset:], chunk[lo-pos:hi-pos])
		}
		pos += int64(len(chunk))
	}
	if crc != want {
		return fmt.Errorf("diskcache: %s fails its header's CRC", path)
	}
	return nil
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

	key, need := fileKey(name), offset+length
	b.mu.Lock()
	defer b.mu.Unlock()
	for {
		// Checked again after every wait on another read's fill, so a read
		// parked across Close reads nothing.
		if b.closed {
			return nil, errClosed
		}
		// Fast path: the window is inside a checked cached prefix. A data
		// file that vanished or shrank underfoot (external damage, or an
		// eviction between the check and the read) drops the entry — even
		// one in flight, whose fill then rebuilds it from zero — and the
		// read fills instead.
		if e, _, ok := b.entries.Get(key, need); ok && !e.unchecked {
			b.mu.Unlock()
			buf, err := readWindow(dst, b.path(key), offset, length)
			b.mu.Lock()
			if err == nil {
				b.stats.Hits++
				b.stats.BytesServed += length
				return buf, nil
			}
			b.invalidateLocked(key)
		}
		var out []byte
		_, filled, err := b.entries.Fill(key, func(e entry, have int64) (entry, int64, error) {
			var err error
			out, e, have, err = b.fill(dst, name, key, offset, length, e, have)
			return e, have, err
		})
		if filled || err != nil {
			return out, err
		}
	}
}

// fill serves a read the fast path could not, with the object pinned and
// b.mu dropped (lru.Cache.Fill); e and have are its cached entry and
// extent. The window's cached part is read from the data file and the
// delta is fetched behind it into the same buffer, which is the one written
// to the file and returned; only a window that starts past the extent takes
// the delta into a buffer of its own. A recovered entry's first touch reads
// its whole extent instead, checking the CRC in the same pass, before any
// byte of it is served or extended; when the extent holds the window, that
// pass is the read, a hit. A mismatch quarantines the entry, and a data
// file damaged underfoot drops it; either way the fill runs again from
// zero. A fill that finds the tier closed when its fetch returns writes
// nothing. It returns the window and the entry and extent to cache.
func (b *Backend) fill(dst []byte, name, key string, offset, length int64, e entry, have int64) ([]byte, entry, int64, error) {
	need, path := offset+length, b.path(key)
	for ; ; e, have = (entry{}), 0 { // a pass after the first rebuilds from zero
		var out, delta []byte
		if offset <= have {
			out = core.BufferFor(dst, length)
			delta = out[min(have, need)-offset:]
		} else {
			delta = make([]byte, need-have)
		}
		var err error
		if cached := max(min(have, need)-offset, 0); e.unchecked {
			err = checkPrefix(out, path, have, e.crc, offset, cached)
		} else if cached > 0 {
			_, err = readWindow(out, path, offset, cached)
		}
		if err != nil || len(delta) == 0 {
			b.mu.Lock()
			if err == nil { // a first touch that held the window
				b.stats.Hits++
				b.stats.BytesServed += length
				b.mu.Unlock()
				return out, entry{crc: e.crc}, have, nil
			}
			if e.unchecked {
				b.stats.Recovered--
				b.stats.Discarded++
			}
			b.invalidateLocked(key)
			b.mu.Unlock()
			continue
		}
		got, err := core.ReadRangeInto(b.inner, delta, name, have, need-have)
		if err == nil && int64(len(got)) != need-have {
			err = fmt.Errorf("diskcache: upstream returned %d bytes of %s, want %d", len(got), name, need-have)
		}
		if err != nil {
			return nil, e, have, err
		}
		crc := crc32.Update(e.crc, crc32.IEEETable, delta)
		b.mu.Lock()
		if b.closed {
			b.mu.Unlock()
			return nil, e, have, errClosed
		}
		b.seq++
		h := header{gen: b.gen, extent: need, crc: crc, seq: b.seq}
		b.writes.Add(1)
		b.mu.Unlock()
		err = writeEntry(path, h, delta, have, have == 0)
		b.mu.Lock()
		b.writes.Done()
		if _, _, ok := b.entries.Peek(key); have > 0 && (err != nil || !ok) {
			// A fast-path read found the data file damaged and dropped the
			// entry, or this fill could not write to it. The delta is no
			// prefix on its own; rebuild from zero.
			b.stats.BytesFetched += int64(len(delta))
			b.invalidateLocked(key)
			b.mu.Unlock()
			continue
		}
		if err == nil {
			b.stats.BytesFetched += int64(len(delta))
			b.stats.BytesServed += length
			if have == 0 {
				b.stats.Misses++
			} else {
				b.stats.DeltaHits++
				b.stats.DeltaBytes += int64(len(delta))
			}
		}
		b.mu.Unlock()
		if err != nil {
			return nil, e, have, err
		}
		if out == nil {
			out = core.BufferFor(dst, length)
			copy(out, delta[offset-have:])
		}
		return out, entry{crc: crc}, need, nil
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
	if b.entries.Remove(key) && !b.closed {
		os.Remove(b.path(key))
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
	_, have, ok := b.entries.Peek(fileKey(name))
	return ok && have >= prefixLen
}

// UsedBytes returns the bytes currently cached on disk.
func (b *Backend) UsedBytes() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.entries.Used()
}

// Len returns the number of cached objects.
func (b *Backend) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.entries.Len()
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
