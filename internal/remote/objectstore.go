// Package remote implements the cloud/storage-server side of RSSD: a
// durable, indexed store for offloaded operation-log segments and retained
// pages, served to devices over the hardware-isolated NVMe-oE transport.
//
// The paper backs this role with Amazon S3 and local storage servers; the
// ObjectStore interface plays the S3 part (with in-memory and on-disk
// implementations), while Store adds the per-device indexes — log chain
// continuity, per-LPN version history, checkpoints — that recovery and
// post-attack analysis query. Because segments arrive in time order and
// are chain-verified at ingest, the remote copy is exactly the trusted
// evidence chain the paper describes: a host-compromised machine cannot
// retroactively alter what the server has accepted.
package remote

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
)

// ObjectStore is the blob-storage abstraction segments are persisted to.
// Implementations must be safe for concurrent use. Put takes ownership of
// data: the caller must not write to it afterwards, and the store may keep
// it as the stored blob.
type ObjectStore interface {
	Put(key string, data []byte) error
	Get(key string) ([]byte, error)
	List(prefix string) ([]string, error)
	Delete(key string) error
}

// ErrNotFound is returned when a key or requested record does not exist.
var ErrNotFound = errors.New("remote: not found")

// MemStore is an in-memory ObjectStore, the default substrate for tests
// and benchmarks.
type MemStore struct {
	mu   sync.RWMutex
	data map[string][]byte
}

// NewMemStore returns an empty in-memory object store.
func NewMemStore() *MemStore { return &MemStore{data: map[string][]byte{}} }

// Put stores data under key, keeping the caller's slice.
func (m *MemStore) Put(key string, data []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.data[key] = data
	return nil
}

// Get returns a copy of the blob at key.
func (m *MemStore) Get(key string) ([]byte, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	d, ok := m.data[key]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	return append([]byte(nil), d...), nil
}

// List returns all keys with the given prefix, sorted.
func (m *MemStore) List(prefix string) ([]string, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var keys []string
	for k := range m.data {
		if strings.HasPrefix(k, prefix) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys, nil
}

// Delete removes key; deleting a missing key is not an error.
func (m *MemStore) Delete(key string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.data, key)
	return nil
}

// DirStore is a filesystem-backed ObjectStore: each key is a file under
// the root directory. Keys may contain '/' which map to subdirectories.
type DirStore struct {
	root string
}

// NewDirStore returns a DirStore rooted at dir, creating it if needed.
func NewDirStore(dir string) (*DirStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &DirStore{root: dir}, nil
}

func (d *DirStore) path(key string) string {
	return filepath.Join(d.root, filepath.FromSlash(key))
}

// isNotExist reports whether err means "no blob at this key". Plain
// os.ErrNotExist misses one case MemStore has no analogue for: a key whose
// path crosses an existing regular file (Get("a/b") after Put("a")) fails
// with ENOTDIR, which is still just "not found" at the blob layer.
func isNotExist(err error) bool {
	return errors.Is(err, os.ErrNotExist) || errors.Is(err, syscall.ENOTDIR)
}

// Put writes the blob to disk, creating parent directories as needed.
func (d *DirStore) Put(key string, data []byte) error {
	p := d.path(key)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return err
	}
	tmp := p + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, p)
}

// Get reads the blob from disk. Any flavour of missing-path failure maps
// to ErrNotFound, matching MemStore exactly.
func (d *DirStore) Get(key string) ([]byte, error) {
	b, err := os.ReadFile(d.path(key))
	if isNotExist(err) {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	return b, err
}

// List walks the tree and returns keys under prefix, sorted.
func (d *DirStore) List(prefix string) ([]string, error) {
	var keys []string
	err := filepath.Walk(d.root, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() || strings.HasSuffix(path, ".tmp") {
			return err
		}
		rel, err := filepath.Rel(d.root, path)
		if err != nil {
			return err
		}
		key := filepath.ToSlash(rel)
		if strings.HasPrefix(key, prefix) {
			keys = append(keys, key)
		}
		return nil
	})
	sort.Strings(keys)
	return keys, err
}

// Delete removes the blob file; deleting a missing key (including one
// whose path crosses a file) is idempotent, as on MemStore.
func (d *DirStore) Delete(key string) error {
	err := os.Remove(d.path(key))
	if isNotExist(err) {
		return nil
	}
	return err
}
