// Package kvstore is a PCR dataset's metadata database, the role SQLite or
// RocksDB plays in the paper's implementation (§3.2): the encoder stores
// per-record scan-group offsets and per-sample labels in it once, and every
// reader after that only reads them back.
//
// It is a write-once log with two halves. A writer (Open, Put, Close)
// appends CRC32C-framed key/value records to a segment file of its own. A
// reader calls Load, which replays every segment in order into a map, the
// last write of a key winning, and never writes or creates anything.
//
// Durability model: a crash mid-append leaves a short record at the end of
// the newest segment, a torn tail. Load ignores it and leaves the file as it
// is; the next writer's Open truncates it before appending. A whole record
// whose checksum fails is ErrCorrupt in any segment, the newest included, and
// so is a short record anywhere but the end of the newest segment.
package kvstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// ErrCorrupt is returned when a segment holds a record that fails its
// checksum or is cut short before the end of the newest segment.
//
//lint:ignore sentinelwrap kvstore predates and must not import the core facade; core.mapKVErr wraps this into core.ErrCorrupt at the boundary
var ErrCorrupt = errors.New("kvstore: corrupt segment")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// headerSize frames a record: CRC32C of the rest, a flags byte, the key
// length and the value length, little-endian. The flags byte stays in the
// on-disk format and must be 0; a record with a flag set is ErrCorrupt.
const headerSize = 4 + 1 + 4 + 4

// Options configures a writer and has no fields: there is nothing to
// configure. The type stays only because the benchmark's flat write path
// calls Open(dir, nil).
type Options struct{}

// Store is a metadata writer: it appends to a segment no other writer
// touches. Put and Close are safe for concurrent use.
type Store struct {
	mu sync.Mutex
	f  *os.File // nil once closed
}

func segName(n int) string { return fmt.Sprintf("%06d.seg", n) }

// Open starts a writer in dir, creating dir if needed. It truncates a torn
// tail of the newest segment, then appends to a new segment after it, so a
// store holds one segment per writer that opened it.
func Open(dir string, _ *Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("kvstore: %w", err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	next := 1
	if len(segs) > 0 {
		last := segs[len(segs)-1]
		path := filepath.Join(dir, segName(last))
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("kvstore: %w", err)
		}
		whole, err := replay(data, last, true, nil)
		if err != nil {
			return nil, err
		}
		if whole < len(data) {
			if err := os.Truncate(path, int64(whole)); err != nil {
				return nil, fmt.Errorf("kvstore: truncating torn tail: %w", err)
			}
		}
		next = last + 1
	}
	f, err := os.OpenFile(filepath.Join(dir, segName(next)), os.O_CREATE|os.O_EXCL|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("kvstore: %w", err)
	}
	return &Store{f: f}, nil
}

// Put appends val under key; a later Put of the same key wins on Load.
func (s *Store) Put(key, val []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return errors.New("kvstore: store closed")
	}
	if _, err := s.f.Write(encodeRecord(key, val)); err != nil {
		return fmt.Errorf("kvstore: %w", err)
	}
	return nil
}

// Close syncs the writer's segment to stable storage and closes it. Closing
// twice is a no-op.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	f := s.f
	s.f = nil
	err := f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("kvstore: %w", err)
	}
	return nil
}

// Load reads the store in dir: every segment in order, the last write of a
// key winning. It writes and creates nothing; a torn tail stays on disk for
// the next writer to truncate. The values share the buffers the segments
// were read into. A missing dir is an error satisfying
// errors.Is(err, fs.ErrNotExist).
func Load(dir string) (map[string][]byte, error) {
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	kv := make(map[string][]byte)
	put := func(key, val []byte) { kv[string(key)] = val }
	for i, n := range segs {
		data, err := os.ReadFile(filepath.Join(dir, segName(n)))
		if err != nil {
			return nil, fmt.Errorf("kvstore: %w", err)
		}
		if _, err := replay(data, n, i == len(segs)-1, put); err != nil {
			return nil, err
		}
	}
	return kv, nil
}

func listSegments(dir string) ([]int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("kvstore: %w", err)
	}
	var segs []int
	for _, e := range entries {
		var n int
		if _, err := fmt.Sscanf(e.Name(), "%06d.seg", &n); err == nil && e.Name() == segName(n) {
			segs = append(segs, n)
		}
	}
	sort.Ints(segs)
	return segs, nil
}

// replay walks the records of segment seg, handing each to put (when not
// nil), and returns the length of its whole records. In the newest segment
// (last) a short record at the end is a torn tail, where replay stops.
func replay(data []byte, seg int, last bool, put func(key, val []byte)) (int, error) {
	off := 0
	for off < len(data) {
		rec := data[off:]
		var n uint64 = headerSize
		if len(rec) >= headerSize {
			n += uint64(binary.LittleEndian.Uint32(rec[5:9])) + uint64(binary.LittleEndian.Uint32(rec[9:13]))
		}
		if uint64(len(rec)) < n {
			if last {
				return off, nil
			}
			return 0, fmt.Errorf("%w: segment %d offset %d: record cut short", ErrCorrupt, seg, off)
		}
		if crc32.Checksum(rec[4:n], castagnoli) != binary.LittleEndian.Uint32(rec[0:4]) || rec[4] != 0 {
			return 0, fmt.Errorf("%w: segment %d offset %d", ErrCorrupt, seg, off)
		}
		if put != nil {
			kl := headerSize + uint64(binary.LittleEndian.Uint32(rec[5:9]))
			put(rec[headerSize:kl], rec[kl:n])
		}
		off += int(n)
	}
	return off, nil
}

func encodeRecord(key, val []byte) []byte {
	rec := make([]byte, 5, headerSize+len(key)+len(val)) // CRC placeholder, flags
	rec = binary.LittleEndian.AppendUint32(rec, uint32(len(key)))
	rec = binary.LittleEndian.AppendUint32(rec, uint32(len(val)))
	rec = append(append(rec, key...), val...)
	binary.LittleEndian.PutUint32(rec, crc32.Checksum(rec[4:], castagnoli))
	return rec
}
