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
// A cache directory holds one append-only prefix file per cached object
// (obj-<sha256(name)>.p — always bytes [0,extent) of the upstream object)
// plus a manifest journal (manifest.log) of newline-delimited JSON entries:
//
//	{"gen":"<generation>","v":1}        header: dataset generation
//	{"put":"<name>","len":N,"crc":C}    extent N is valid, crc32(IEEE) C
//	{"del":"<name>"}                    entry evicted
//
// Growing a cached prefix appends only the new bytes to the data file
// (never rewriting the cached prefix) in one unsynced write, then journals
// the new extent. The delta is fetched into the buffer the read returns,
// behind the window's cached part, so the bytes written are the bytes
// served. The CRC is maintained incrementally, so journaling an upgrade
// does not re-read the prefix.
//
// # Crash safety
//
// Correctness after a crash rests on two checks, not on write order: the
// stat at open and the CRC on each recovered entry's first read. Neither
// data files nor journal appends are synced (only compaction's rewrite of
// the manifest is), so a machine crash may persist a journal line without
// its data; those checks then discard the entry. A crash costs warmth,
// never a wrong byte.
//
// Recovery reads the journal up to the first torn or unparsable line
// (truncating the tail), then stats every surviving entry's data file,
// discarding any that is missing or shorter than its journaled extent. Data
// beyond the journaled extent (a journal line lost, or a crash after a data
// append but before its journal line) is truncated away to restore the
// append invariant. Orphaned data files are swept and the manifest is
// compacted by a synced rewrite and an atomic rename.
//
// Recovery reads no cached byte, so reopening a terabyte cache costs one
// stat per entry. The CRC runs on each recovered entry's first read instead,
// under the object's in-flight mark and before any byte of it is served or
// extended: one pass over the journaled extent checks the CRC and, when the
// requested window lies inside the extent, copies it out, so the bytes
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
// facade, a fingerprint of the dataset's record index (its ETag role). A
// generation mismatch on open purges the directory: entries never outlive
// the dataset build they were fetched from.
//
// A cache directory belongs to exactly one process at a time (each training
// worker mounts its own directory); Open takes an advisory lock and fails
// fast on a second opener where the platform supports it.
package diskcache

import (
	"bufio"
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
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
	// Recovered counts journaled entries Wrap kept: their data files hold
	// the journaled extent. Their CRCs are checked on first read; an entry
	// that fails moves from Recovered to Discarded, so once every entry has
	// been read the pair is what a full CRC pass at open would report.
	Recovered int64 `json:"recovered"`
	// Discarded counts a torn journal tail, entries dropped at open for
	// missing or short data files, and recovered entries quarantined by
	// their first-read CRC check.
	Discarded int64 `json:"discarded"`
}

type entry struct {
	name   string
	length int64  // validated prefix extent on disk
	crc    uint32 // crc32(IEEE) of the first length bytes
	elem   *list.Element
	// verified is false for a recovered entry whose CRC has not been
	// checked yet; the first ReadRange touching it checks it (and
	// quarantines it on mismatch) before serving.
	verified bool
}

// Backend is a persistent prefix cache over an inner core.Backend. ReadRange
// serves byte windows out of append-only local prefix files, fetching only
// missing suffix bytes from the inner backend; Open and List delegate.
// All methods are safe for concurrent use.
type Backend struct {
	inner core.Backend
	dir   string
	cap   int64
	gen   string

	mu       sync.Mutex
	entries  map[string]*entry
	lru      *list.List // front = most recent; values are object names
	used     int64
	manifest *os.File
	lines    int // journal lines since last compaction
	stats    Stats
	closed   bool
	lock     *dirLock
	// inflight marks the objects a read is checking or filling. It is the
	// singleflight — N concurrent readers of one prefix cost one upstream
	// fetch, the others wait for the channel to close — and the pin
	// evictLocked honours.
	inflight map[string]chan struct{}
}

const manifestName = "manifest.log"

type journalLine struct {
	Gen *string `json:"gen,omitempty"`
	V   int     `json:"v,omitempty"`
	Put string  `json:"put,omitempty"`
	Len int64   `json:"len,omitempty"`
	CRC uint32  `json:"crc,omitempty"`
	Del string  `json:"del,omitempty"`
}

// Wrap opens (or creates) the persistent cache at dir over the inner
// backend, with the given byte capacity and dataset generation. Entries
// journaled by a previous process are reused when the generation matches,
// each CRC-checked on its first read; a mismatch purges the directory. The
// returned Backend owns inner and closes it with Close.
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
	b := &Backend{
		inner:    inner,
		dir:      dir,
		cap:      capacity,
		gen:      generation,
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

// objectFile maps an object name to its prefix file path. Names are hashed:
// they may contain separators, and the manifest is the authoritative
// name→extent map anyway.
func (b *Backend) objectFile(name string) string {
	sum := sha256.Sum256([]byte(name))
	return filepath.Join(b.dir, "obj-"+hex.EncodeToString(sum[:16])+".p")
}

// recover replays the manifest journal, stat-checks surviving entries
// against their data files, purges on generation mismatch, and compacts the
// journal so the directory starts clean. It reads no cached byte: each
// entry's CRC is checked on its first read.
func (b *Backend) recover() error {
	raw, err := os.ReadFile(filepath.Join(b.dir, manifestName))
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("diskcache: reading manifest: %w", err)
	}

	// Replay: stop at the first torn line (a crash mid-append); later lines
	// cannot be trusted to describe synced data.
	type state struct {
		length int64
		crc    uint32
	}
	journaled := make(map[string]state)
	order := []string{} // first-journaled order, for LRU seeding
	genOK := len(raw) == 0
	first := true
	for rest := raw; len(rest) > 0; {
		var line []byte
		line, rest, _ = bytes.Cut(rest, []byte{'\n'})
		var l journalLine
		if err := json.Unmarshal(line, &l); err != nil {
			b.stats.Discarded++ // torn or corrupt tail
			break
		}
		if first {
			first = false
			if l.Gen == nil || *l.Gen != b.gen {
				genOK = false
				break
			}
			genOK = true
			continue
		}
		switch {
		case l.Put != "":
			if l.Len < 0 {
				continue
			}
			if _, seen := journaled[l.Put]; !seen {
				order = append(order, l.Put)
			}
			journaled[l.Put] = state{length: l.Len, crc: l.CRC}
		case l.Del != "":
			delete(journaled, l.Del)
		}
	}
	// A trailing partial line has no newline; the loop still yields it and
	// json.Unmarshal rejects it. A final line that parses but whose newline
	// is missing is complete enough to trust (its bytes are on disk).

	if !genOK {
		// Different dataset build (or pre-generation directory): purge.
		if err := b.purgeDir(); err != nil {
			return err
		}
		journaled, order = nil, nil
	}

	// Stat each journaled entry's data file (trimming un-journaled tails);
	// the CRC waits for the entry's first read.
	for _, name := range order {
		st, ok := journaled[name]
		if !ok {
			continue // deleted later in the journal
		}
		path := b.objectFile(name)
		if !statTrim(path, st.length) {
			os.Remove(path)
			b.stats.Discarded++
			continue
		}
		e := &entry{name: name, length: st.length, crc: st.crc}
		e.elem = b.lru.PushFront(name)
		b.entries[name] = e
		b.used += st.length
		b.stats.Recovered++
	}

	// Drop data files the (possibly truncated) journal no longer accounts
	// for, and trim any trailing bytes past each entry's journaled extent so
	// O_APPEND writes land at the right offset.
	if err := b.sweepDir(); err != nil {
		return err
	}

	// Compact: rewrite the manifest to exactly the live entries, atomically.
	if err := b.compactLocked(); err != nil {
		return err
	}
	// Enforce the budget against whatever survived (capacity may have
	// shrunk since the last run).
	b.evictLocked()
	return nil
}

// statTrim is recovery's metadata-only check: path must hold at least
// length bytes (trailing un-journaled bytes are trimmed so later O_APPEND
// writes land at the journaled extent). No data bytes are read.
func statTrim(path string, length int64) bool {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return false
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil || fi.Size() < length {
		return false
	}
	if fi.Size() > length {
		if err := f.Truncate(length); err != nil {
			return false
		}
	}
	return true
}

// openForRead opens an object's data file for reading. Tests replace it to
// count opens.
var openForRead = os.Open

// checkPrefix is a recovered entry's first-touch verification: one pass over
// the data file's journaled extent [0,length) that checks its CRC against
// want and copies the window [offset,offset+n), which must lie inside the
// extent (n is zero for none), out of the same read, into dst when it has
// room (core.BufferFor). It allocates one buffer of at most 32 KiB, never
// the extent.
func checkPrefix(dst []byte, path string, length int64, want uint32, offset, n int64) ([]byte, error) {
	f, err := openForRead(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := core.BufferFor(dst, n)
	buf := make([]byte, min(length, 32<<10))
	var crc uint32
	for pos := int64(0); pos < length; {
		chunk := buf[:min(int64(len(buf)), length-pos)]
		if _, err := io.ReadFull(f, chunk); err != nil {
			return nil, err
		}
		crc = crc32.Update(crc, crc32.IEEETable, chunk)
		if lo, hi := max(pos, offset), min(pos+int64(len(chunk)), offset+n); lo < hi {
			copy(out[lo-offset:], chunk[lo-pos:hi-pos])
		}
		pos += int64(len(chunk))
	}
	if crc != want {
		return nil, fmt.Errorf("diskcache: %s fails its journaled CRC", path)
	}
	return out, nil
}

// purgeDir removes every cache artifact in the directory (generation
// mismatch). The lock file survives.
func (b *Backend) purgeDir() error {
	des, err := os.ReadDir(b.dir)
	if err != nil {
		return fmt.Errorf("diskcache: %w", err)
	}
	for _, de := range des {
		n := de.Name()
		if n == manifestName || (strings.HasPrefix(n, "obj-") && strings.HasSuffix(n, ".p")) {
			if err := os.Remove(filepath.Join(b.dir, n)); err != nil {
				return fmt.Errorf("diskcache: %w", err)
			}
		}
	}
	return nil
}

// sweepDir removes object files no live entry accounts for.
func (b *Backend) sweepDir() error {
	live := make(map[string]bool, len(b.entries))
	for name := range b.entries {
		live[filepath.Base(b.objectFile(name))] = true
	}
	des, err := os.ReadDir(b.dir)
	if err != nil {
		return fmt.Errorf("diskcache: %w", err)
	}
	for _, de := range des {
		n := de.Name()
		if strings.HasPrefix(n, "obj-") && strings.HasSuffix(n, ".p") && !live[n] {
			if err := os.Remove(filepath.Join(b.dir, n)); err != nil {
				return fmt.Errorf("diskcache: %w", err)
			}
		}
	}
	return nil
}

// compactLocked atomically rewrites the manifest to the live entries and
// (re)opens the append handle. Caller holds b.mu or is in single-threaded
// setup.
func (b *Backend) compactLocked() error {
	if b.manifest != nil {
		b.manifest.Close()
		b.manifest = nil
	}
	tmp := filepath.Join(b.dir, manifestName+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("diskcache: %w", err)
	}
	w := bufio.NewWriter(f)
	gen := b.gen
	lines := 1
	writeLine := func(l journalLine) {
		data, _ := json.Marshal(l)
		w.Write(data)
		w.WriteByte('\n')
	}
	writeLine(journalLine{Gen: &gen, V: 1})
	// Journal back-to-front so recovery's first-journaled order matches LRU
	// order, oldest first.
	for el := b.lru.Back(); el != nil; el = el.Prev() {
		e := b.entries[el.Value.(string)]
		writeLine(journalLine{Put: e.name, Len: e.length, CRC: e.crc})
		lines++
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("diskcache: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("diskcache: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("diskcache: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(b.dir, manifestName)); err != nil {
		return fmt.Errorf("diskcache: %w", err)
	}
	m, err := os.OpenFile(filepath.Join(b.dir, manifestName), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return fmt.Errorf("diskcache: %w", err)
	}
	b.manifest = m
	b.lines = lines
	return nil
}

// journalLocked appends one line to the manifest. Caller holds b.mu.
// Like the data append it describes, it is not synced: a crash may lose
// recent lines (recovery trims the un-journaled data tails) or keep a line
// whose data it lost (recovery's stat or the first-read CRC discards the
// entry), costing cache warmth, never correctness. Compaction (which does
// sync) triggers when the journal has grown well past the live entry
// count.
func (b *Backend) journalLocked(l journalLine) error {
	data, err := json.Marshal(l)
	if err != nil {
		return fmt.Errorf("diskcache: %w", err)
	}
	data = append(data, '\n')
	if _, err := b.manifest.Write(data); err != nil {
		return fmt.Errorf("diskcache: journaling: %w", err)
	}
	b.lines++
	if b.lines > 64 && b.lines > 4*(len(b.entries)+1) {
		return b.compactLocked()
	}
	return nil
}

// readWindow reads [offset, offset+length) from the object's prefix file,
// into dst when it has room.
func (b *Backend) readWindow(dst []byte, name string, offset, length int64) ([]byte, error) {
	f, err := openForRead(b.objectFile(name))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	buf := core.BufferFor(dst, length)
	if _, err := f.ReadAt(buf, offset); err != nil {
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
func (b *Backend) hitLocked(dst []byte, name string, offset, length int64) ([]byte, bool) {
	e, ok := b.entries[name]
	if !ok || !e.verified || e.length < offset+length {
		return nil, false
	}
	b.lru.MoveToFront(e.elem)
	b.mu.Unlock()
	buf, err := b.readWindow(dst, name, offset, length)
	b.mu.Lock()
	if err != nil {
		b.invalidateLocked(name)
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

	b.mu.Lock()
	for {
		if b.closed {
			b.mu.Unlock()
			return nil, fmt.Errorf("diskcache: closed")
		}
		// Fast path: the window is inside a verified cached prefix.
		if buf, ok := b.hitLocked(dst, name, offset, length); ok {
			b.mu.Unlock()
			return buf, nil
		}
		done, busy := b.inflight[name]
		if !busy {
			break
		}
		// Another read is checking or filling this object; it may cover us.
		b.mu.Unlock()
		<-done
		b.mu.Lock()
	}
	done := make(chan struct{})
	b.inflight[name] = done
	out, err := b.fillLocked(dst, name, offset, length)
	b.evictLocked()
	delete(b.inflight, name)
	close(done)
	b.mu.Unlock()
	return out, err
}

// fillLocked serves a read the fast path could not: it checks a recovered
// entry's CRC on first touch, then extends the prefix to the window's end
// by one fetch → append → journal sequence, from offset zero when nothing
// is cached. The window's cached part is read from the data file first and
// the delta is fetched behind it into the same buffer, which is the one
// written to the file and returned; only a window that starts past the
// cached extent takes the delta into a buffer of its own. The object is
// pinned, so the prefix a fill extends stays cached; only external damage
// can drop it, and the fill then runs again from zero. Caller holds b.mu,
// which is dropped for file and upstream I/O.
func (b *Backend) fillLocked(dst []byte, name string, offset, length int64) ([]byte, error) {
	need := offset + length
	path := b.objectFile(name)
	// First touch of a recovered entry: check its CRC now, before any byte
	// of it is served or extended, and serve the window from the same pass
	// when it lies inside the extent. A mismatch quarantines the entry and
	// the fill below starts cold.
	if e, ok := b.entries[name]; ok && !e.verified {
		extent, crc, window := e.length, e.crc, length
		if need > extent {
			window = 0 // an upgrade: check the extent, then extend it below
		}
		b.mu.Unlock()
		out, err := checkPrefix(dst, path, extent, crc, offset, window)
		b.mu.Lock()
		if err != nil {
			b.invalidateLocked(name)
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
		e := b.entries[name]
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
			if _, err := b.readWindow(out, name, offset, have-offset); err != nil {
				// The data file was damaged underfoot: rebuild from zero.
				b.mu.Lock()
				b.invalidateLocked(name)
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
		ferr := appendTo(path, delta, e == nil)
		b.mu.Lock()
		if b.closed {
			// The append above was never journaled; trim it so the file
			// again matches its last journaled extent.
			os.Truncate(path, have)
			return nil, fmt.Errorf("diskcache: closed")
		}
		if e != nil && (ferr != nil || b.entries[name] != e) {
			// The data file was damaged underfoot: a fast-path read found
			// it and dropped the entry, or this fill could not append to
			// it. The delta is no prefix on its own; rebuild from zero.
			b.stats.BytesFetched += int64(len(delta))
			b.invalidateLocked(name)
			continue
		}
		if ferr != nil {
			return nil, ferr
		}
		crc = crc32.Update(crc, crc32.IEEETable, delta)
		if err := b.journalLocked(journalLine{Put: name, Len: need, CRC: crc}); err != nil {
			// Un-journaled data must not linger: a later append would land
			// past it and corrupt the prefix.
			os.Truncate(path, have)
			return nil, err
		}
		b.stats.BytesFetched += int64(len(delta))
		b.stats.BytesServed += length
		b.used += int64(len(delta))
		if e == nil {
			b.stats.Misses++
			e = &entry{name: name, verified: true}
			e.elem = b.lru.PushFront(name)
			b.entries[name] = e
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

// appendTo appends data to the object file at path in one write, unsynced:
// a machine crash may lose it after its journal line survived, which
// recovery's stat or the entry's first-read CRC finds. A fresh file is
// created (or emptied); otherwise the file must already exist, so a data
// file removed underfoot is reported rather than recreated holding only
// the delta.
func appendTo(path string, data []byte, fresh bool) error {
	flag := os.O_WRONLY | os.O_APPEND
	if fresh {
		flag |= os.O_CREATE | os.O_TRUNC
	}
	f, err := os.OpenFile(path, flag, 0o644)
	if err != nil {
		return fmt.Errorf("diskcache: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("diskcache: writing %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("diskcache: %w", err)
	}
	return nil
}

// invalidateLocked drops one entry without journaling (used when the data
// file is found damaged underfoot; the next compaction forgets it).
func (b *Backend) invalidateLocked(name string) {
	if e, ok := b.entries[name]; ok {
		b.used -= e.length
		delete(b.entries, name)
		b.lru.Remove(e.elem)
		os.Remove(b.objectFile(name))
	}
}

// evictLocked drops least-recently-used entries (whole objects: partial
// prefixes are never trimmed) until the budget holds, skipping the pinned
// objects (those in flight). A closed Backend evicts nothing: its journal
// is shut. Caller holds b.mu.
func (b *Backend) evictLocked() {
	for el := b.lru.Back(); el != nil && b.used > b.cap && !b.closed; {
		name := el.Value.(string)
		back := el
		el = el.Prev()
		if _, pinned := b.inflight[name]; pinned {
			continue
		}
		b.used -= b.entries[name].length
		delete(b.entries, name)
		b.lru.Remove(back)
		os.Remove(b.objectFile(name))
		b.stats.Evictions++
		// Journal the eviction; a failure here only costs journal accuracy
		// for an entry whose file is already gone — recovery's stat check
		// discards it.
		b.journalLocked(journalLine{Del: name})
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
	e, ok := b.entries[name]
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

// Close flushes and closes the manifest, releases the directory lock, and
// closes the inner backend. The cached files remain for the next process.
func (b *Backend) Close() error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil
	}
	b.closed = true
	var err error
	if b.manifest != nil {
		err = b.manifest.Close()
		b.manifest = nil
	}
	b.mu.Unlock()
	if b.lock != nil {
		b.lock.unlock()
	}
	if cerr := b.inner.Close(); err == nil {
		err = cerr
	}
	return err
}
