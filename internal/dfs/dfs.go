// Package dfs simulates the distributed filesystem that Snorkel DryBell's
// labeling-function binaries use to exchange data (paper §5.1, §5.4).
//
// The simulation provides the properties the DryBell architecture relies on:
//
//   - a flat hierarchical namespace with directory listing,
//   - whole-file write-then-commit semantics with atomic rename, so a
//     MapReduce shard is either fully visible or absent,
//   - sharded file naming ("name-00003-of-00010"), and one checksummed
//     commit record per shard set that names its shards (Record),
//   - concurrent access from many worker goroutines.
//
// The default store is in-memory; a disk-backed store is provided for
// benchmarks that want real IO. Both implement FS.
package dfs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// FS is the filesystem surface used by the MapReduce and labeling-function
// layers. Implementations must be safe for concurrent use.
type FS interface {
	// WriteFile atomically creates or replaces the file at path. It never
	// retains data after returning: the caller may reuse the slice at once.
	WriteFile(path string, data []byte) error
	// ReadFile returns the file's full contents.
	ReadFile(path string) ([]byte, error)
	// Rename atomically moves a file. Destination is replaced if present.
	Rename(oldPath, newPath string) error
	// Remove deletes a file. Removing a missing file is an error.
	Remove(path string) error
	// List returns all file paths with the given prefix, sorted.
	List(prefix string) ([]string, error)
	// Stat returns the file's size in bytes.
	Stat(path string) (int64, error)
}

// PathError describes a filesystem operation failure.
type PathError struct {
	Op   string
	Path string
	Err  error
}

func (e *PathError) Error() string { return "dfs: " + e.Op + " " + e.Path + ": " + e.Err.Error() }

// Unwrap returns the underlying cause.
func (e *PathError) Unwrap() error { return e.Err }

// Sentinel causes for PathError.
var (
	ErrNotExist = fmt.Errorf("file does not exist")
	ErrBadPath  = fmt.Errorf("invalid path")
)

// IsNotExist reports whether err indicates a missing file.
func IsNotExist(err error) bool {
	pe, ok := err.(*PathError)
	return ok && pe.Err == ErrNotExist
}

func validPath(p string) bool {
	if p == "" || strings.HasPrefix(p, "/") || strings.HasSuffix(p, "/") {
		return false
	}
	for _, seg := range strings.Split(p, "/") {
		if seg == "" || seg == "." || seg == ".." {
			return false
		}
	}
	return true
}

// Mem is an in-memory FS.
type Mem struct {
	mu    sync.RWMutex
	files map[string][]byte // guarded by mu
}

// NewMem returns an empty in-memory filesystem.
func NewMem() *Mem {
	return &Mem{files: make(map[string][]byte)}
}

// WriteFile implements FS.
func (m *Mem) WriteFile(path string, data []byte) error {
	if !validPath(path) {
		return &PathError{"write", path, ErrBadPath}
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.files[path] = cp
	return nil
}

// ReadFile implements FS.
func (m *Mem) ReadFile(path string) ([]byte, error) {
	m.mu.RLock()
	data, ok := m.files[path]
	m.mu.RUnlock()
	if !ok {
		return nil, &PathError{"read", path, ErrNotExist}
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	return cp, nil
}

// Rename implements FS.
func (m *Mem) Rename(oldPath, newPath string) error {
	if !validPath(newPath) {
		return &PathError{"rename", newPath, ErrBadPath}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.files[oldPath]
	if !ok {
		return &PathError{"rename", oldPath, ErrNotExist}
	}
	delete(m.files, oldPath)
	m.files[newPath] = data
	return nil
}

// Remove implements FS.
func (m *Mem) Remove(path string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[path]; !ok {
		return &PathError{"remove", path, ErrNotExist}
	}
	delete(m.files, path)
	return nil
}

// List implements FS.
func (m *Mem) List(prefix string) ([]string, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var out []string
	//drybellvet:ordered — collection only; sorted immediately below
	for p := range m.files {
		if strings.HasPrefix(p, prefix) {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out, nil
}

// Stat implements FS.
func (m *Mem) Stat(path string) (int64, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	data, ok := m.files[path]
	if !ok {
		return 0, &PathError{"stat", path, ErrNotExist}
	}
	return int64(len(data)), nil
}

// Corrupt flips one byte of the stored file at the given offset, for failure
// injection tests. It bypasses the copy-on-read discipline deliberately.
//
//drybellvet:testapi — other packages' tests damage stored shards with it
func (m *Mem) Corrupt(path string, offset int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.files[path]
	if !ok {
		return &PathError{"corrupt", path, ErrNotExist}
	}
	if offset < 0 || offset >= len(data) {
		return &PathError{"corrupt", path, fmt.Errorf("offset %d out of range [0,%d)", offset, len(data))}
	}
	data[offset] ^= 0xFF
	return nil
}
