package dfs

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Disk is a disk-backed FS rooted at a local directory. It maps DFS paths to
// files under the root and uses write-to-temp + rename for atomicity, the
// same commit discipline production distributed filesystems expose.
type Disk struct {
	root string
	mu   sync.Mutex // serializes namespace mutations (rename/remove races)
	seq  int
}

// NewDisk returns a Disk rooted at dir, creating it if needed.
func NewDisk(dir string) (*Disk, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("dfs: create root: %w", err)
	}
	return &Disk{root: dir}, nil
}

func (d *Disk) real(path string) (string, error) {
	if !validPath(path) {
		return "", ErrBadPath
	}
	return filepath.Join(d.root, filepath.FromSlash(path)), nil //drybellvet:ospath — the DFS-key to OS-path boundary
}

// WriteFile implements FS.
func (d *Disk) WriteFile(path string, data []byte) error {
	rp, err := d.real(path)
	if err != nil {
		return &PathError{"write", path, err}
	}
	if err := os.MkdirAll(filepath.Dir(rp), 0o755); err != nil {
		return &PathError{"write", path, err}
	}
	d.mu.Lock()
	d.seq++
	tmp := fmt.Sprintf("%s.tmp.%d", rp, d.seq)
	d.mu.Unlock()
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return &PathError{"write", path, err}
	}
	if err := os.Rename(tmp, rp); err != nil {
		os.Remove(tmp)
		return &PathError{"write", path, err}
	}
	return nil
}

// ReadFile implements FS.
func (d *Disk) ReadFile(path string) ([]byte, error) {
	rp, err := d.real(path)
	if err != nil {
		return nil, &PathError{"read", path, err}
	}
	data, err := os.ReadFile(rp)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, &PathError{"read", path, ErrNotExist}
		}
		return nil, &PathError{"read", path, err}
	}
	return data, nil
}

// Rename implements FS.
func (d *Disk) Rename(oldPath, newPath string) error {
	ro, err := d.real(oldPath)
	if err != nil {
		return &PathError{"rename", oldPath, err}
	}
	rn, err := d.real(newPath)
	if err != nil {
		return &PathError{"rename", newPath, err}
	}
	if err := os.MkdirAll(filepath.Dir(rn), 0o755); err != nil {
		return &PathError{"rename", newPath, err}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, err := os.Stat(ro); os.IsNotExist(err) {
		return &PathError{"rename", oldPath, ErrNotExist}
	}
	if err := os.Rename(ro, rn); err != nil {
		return &PathError{"rename", oldPath, err}
	}
	return nil
}

// Remove implements FS.
func (d *Disk) Remove(path string) error {
	rp, err := d.real(path)
	if err != nil {
		return &PathError{"remove", path, err}
	}
	if err := os.Remove(rp); err != nil {
		if os.IsNotExist(err) {
			return &PathError{"remove", path, ErrNotExist}
		}
		return &PathError{"remove", path, err}
	}
	return nil
}

// List implements FS.
func (d *Disk) List(prefix string) ([]string, error) {
	var out []string
	err := filepath.WalkDir(d.root, func(p string, de fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if de.IsDir() {
			return nil
		}
		rel, err := filepath.Rel(d.root, p)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel) //drybellvet:ospath — OS path back to DFS key
		if strings.Contains(rel, ".tmp.") {
			return nil // uncommitted write
		}
		if strings.HasPrefix(rel, prefix) {
			out = append(out, rel)
		}
		return nil
	})
	if err != nil {
		return nil, &PathError{"list", prefix, err}
	}
	sort.Strings(out)
	return out, nil
}

// Stat implements FS.
func (d *Disk) Stat(path string) (int64, error) {
	rp, err := d.real(path)
	if err != nil {
		return 0, &PathError{"stat", path, err}
	}
	fi, err := os.Stat(rp)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, &PathError{"stat", path, ErrNotExist}
		}
		return 0, &PathError{"stat", path, err}
	}
	return fi.Size(), nil
}
