package core

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Backend abstracts byte-level access to the objects of a dataset — record
// files for the PCR layout, the framed data file for TFRecord, individual
// JPEGs for file-per-image. Every format read path goes through a Backend,
// so the same Dataset code serves local directories and remote prefix
// servers (internal/serve). The paper's central operation — a sequential
// prefix read of a record — maps onto ReadRange with offset zero; delta
// cache upgrades (§5) map onto ReadRange at the cached length.
//
// Object names are slash-separated relative paths as produced by List.
//
// ReadRange returns a buffer its caller owns. A backend that can read into
// a buffer the caller lends it also implements RangeReaderInto, whose dst
// argument ROADMAP item 6 folds into ReadRange itself.
type Backend interface {
	// Open returns a reader over the whole named object.
	Open(name string) (io.ReadCloser, error)
	// ReadRange reads exactly length bytes at offset from the named
	// object. A range extending past the end of the object is structural
	// damage from the caller's perspective (the record index promised
	// those bytes) and is reported as ErrCorrupt.
	ReadRange(name string, offset, length int64) ([]byte, error)
	// List enumerates the backend's object names in lexical order.
	List() ([]string, error)
	// Close releases the backend.
	Close() error
}

// RangeReaderInto is an optional Backend capability: ReadRange into a
// buffer the caller lends. ReadRangeInto returns dst[:length] when
// cap(dst) >= length and a new buffer of exactly length bytes otherwise;
// a backend may also answer in a buffer of its own (a hedged remote read
// does, so that its losing request never writes dst). Either way the
// caller owns the result and the backend keeps no reference to it once the
// call returns. After an error the caller must not reuse dst. Range and
// truncation checks are ReadRange's.
type RangeReaderInto interface {
	ReadRangeInto(dst []byte, name string, offset, length int64) ([]byte, error)
}

// ReadRangeInto reads [offset, offset+length) of the named object from b
// into dst when it has room (BufferFor), whichever reads b offers: its
// ReadRangeInto when it is a RangeReaderInto, else its ReadRange and a
// copy. An answer of exactly length bytes in a buffer other than dst is
// copied in as well, so when dst has room the result is always
// dst[:length].
func ReadRangeInto(b Backend, dst []byte, name string, offset, length int64) ([]byte, error) {
	var buf []byte
	var err error
	if r, ok := b.(RangeReaderInto); ok {
		buf, err = r.ReadRangeInto(dst, name, offset, length)
	} else {
		buf, err = b.ReadRange(name, offset, length)
	}
	if err != nil || length == 0 || int64(len(buf)) != length || int64(cap(dst)) < length {
		return buf, err
	}
	out := dst[:length]
	if &out[0] != &buf[0] {
		copy(out, buf)
	}
	return out, nil
}

// BufferFor is the buffer a ReadRangeInto of length bytes reads into: dst
// resliced when it has the room, a new one otherwise.
func BufferFor(dst []byte, length int64) []byte {
	if int64(cap(dst)) >= length {
		return dst[:length]
	}
	return make([]byte, length)
}

// DirBackend serves a local dataset directory — the Backend every format
// uses by default. It is stateless per call (files are opened and closed
// per read), matching the paper's loader which issues independent
// positioned reads from worker threads.
type DirBackend struct {
	dir string
}

// NewDirBackend returns a Backend rooted at dir.
func NewDirBackend(dir string) *DirBackend { return &DirBackend{dir: dir} }

// Dir returns the backing directory.
func (b *DirBackend) Dir() string { return b.dir }

func (b *DirBackend) path(name string) (string, error) {
	clean := filepath.Clean(filepath.FromSlash(name))
	if clean == ".." || strings.HasPrefix(clean, ".."+string(filepath.Separator)) || filepath.IsAbs(clean) {
		return "", fmt.Errorf("core: object name %q escapes the dataset directory", name)
	}
	return filepath.Join(b.dir, clean), nil
}

// Open opens the named object for sequential reading.
func (b *DirBackend) Open(name string) (io.ReadCloser, error) {
	p, err := b.path(name)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(p)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return f, nil
}

// ReadRange reads [offset, offset+length) of the named object into a new
// buffer.
func (b *DirBackend) ReadRange(name string, offset, length int64) ([]byte, error) {
	return b.ReadRangeInto(nil, name, offset, length)
}

// ReadRangeInto reads [offset, offset+length) of the named object into dst
// (see RangeReaderInto). A range past the object's end is reported as
// ErrCorrupt: the caller asked for bytes the index said exist. The range
// comes from on-disk metadata, so it is checked against the file's size
// before anything is allocated or read.
func (b *DirBackend) ReadRangeInto(dst []byte, name string, offset, length int64) ([]byte, error) {
	if length < 0 {
		return nil, fmt.Errorf("core: negative range length %d for %s", length, name)
	}
	p, err := b.path(name)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(p)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if offset >= 0 && length > st.Size()-offset {
		return nil, fmt.Errorf("core: reading %s: %w: truncated object (%d bytes at offset %d of a %d-byte object)",
			name, ErrCorrupt, length, offset, st.Size())
	}
	buf := BufferFor(dst, length)
	if n, err := f.ReadAt(buf, offset); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("core: reading %s: %w: truncated object (got %d of %d bytes at offset %d)",
				name, ErrCorrupt, n, length, offset)
		}
		return nil, fmt.Errorf("core: reading %s: %w", name, err)
	}
	return buf, nil
}

// List walks the directory and returns all regular-file names (relative,
// slash-separated) in lexical order.
func (b *DirBackend) List() ([]string, error) {
	var names []string
	err := filepath.WalkDir(b.dir, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			return nil
		}
		rel, err := filepath.Rel(b.dir, p)
		if err != nil {
			return err
		}
		names = append(names, filepath.ToSlash(rel))
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	sort.Strings(names)
	return names, nil
}

// Close is a no-op: DirBackend holds no descriptors between calls.
func (b *DirBackend) Close() error { return nil }
