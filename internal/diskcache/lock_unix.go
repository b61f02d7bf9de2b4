//go:build unix

package diskcache

import (
	"fmt"
	"os"
	"path/filepath"
	"syscall"
)

// dirLock is an advisory flock on a sentinel file in the cache directory:
// two processes mounting the same directory would write the same data files
// and remove each other's, so the second opener fails fast with a
// configuration error (each training worker mounts its own directory).
type dirLock struct{ f *os.File }

func lockDir(dir string) (*dirLock, error) {
	f, err := os.OpenFile(filepath.Join(dir, "lock"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("diskcache: %w", err)
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		return nil, fmt.Errorf("diskcache: cache directory %s is in use by another process (each worker needs its own -disk-cache-dir): %w", dir, err)
	}
	return &dirLock{f: f}, nil
}

func (l *dirLock) unlock() {
	if l.f != nil {
		syscall.Flock(int(l.f.Fd()), syscall.LOCK_UN)
		l.f.Close()
		l.f = nil
	}
}
