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

// ReadRange reads [offset, offset+length) of the named object. A range past
// the object's end is reported as ErrCorrupt: the caller asked for bytes
// the index said exist. The range comes from on-disk metadata, so it is
// checked against the file's size before anything is allocated.
func (b *DirBackend) ReadRange(name string, offset, length int64) ([]byte, error) {
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
	buf := make([]byte, length)
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
