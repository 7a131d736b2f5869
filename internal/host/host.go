// Package host models the (untrusted) host side of the system: a block
// device interface and a minimal flat filesystem on top of it.
//
// RSSD's threat model trusts nothing above the block interface — the OS,
// filesystem, and backup daemons may all be attacker-controlled. The
// filesystem here therefore exists only to give ransomware models and
// benign workloads realistic file-granular behaviour (allocation locality,
// metadata-free data paths); its correctness is not a security premise.
package host

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/batch"
	"repro/internal/simclock"
)

// BlockDevice is the host's view of a storage device: it takes submission
// batches (see internal/batch) and nothing else. Both the plain FTL
// (LocalSSD baseline) and RSSD satisfy it.
type BlockDevice interface {
	batch.Device
	PageSize() int
	LogicalPages() uint64
}

// BatchDevice is another name for BlockDevice; benchmark/rig.go uses it.
type BatchDevice = BlockDevice

// Filesystem errors.
var (
	ErrExists   = errors.New("host: file exists")
	ErrNotFound = errors.New("host: file not found")
	ErrNoSpace  = errors.New("host: filesystem full")
)

type extent struct {
	start uint64
	count uint64
}

type file struct {
	size    int
	extents []extent
}

// FlatFS is a minimal flat (no directories) filesystem. Metadata lives in
// host memory; file contents live on the device, page-aligned. A
// first-fit page allocator gives files contiguous extents when possible,
// mimicking filesystem locality.
type FlatFS struct {
	dev   BlockDevice
	clock *simclock.Clock
	files map[string]*file
	used  []bool // page allocation bitmap
	free  uint64
}

// NewFlatFS formats an empty filesystem over dev, driven by clock.
func NewFlatFS(dev BlockDevice, clock *simclock.Clock) *FlatFS {
	n := dev.LogicalPages()
	return &FlatFS{
		dev:   dev,
		clock: clock,
		files: map[string]*file{},
		used:  make([]bool, n),
		free:  n,
	}
}

// Device returns the underlying block device.
func (fs *FlatFS) Device() BlockDevice { return fs.dev }

// Clock returns the simulation clock driving this filesystem.
func (fs *FlatFS) Clock() *simclock.Clock { return fs.clock }

// pagesFor returns how many pages size bytes occupy.
func (fs *FlatFS) pagesFor(size int) uint64 {
	ps := fs.dev.PageSize()
	return uint64((size + ps - 1) / ps)
}

// allocate finds extents covering n pages, first-fit.
func (fs *FlatFS) allocate(n uint64) ([]extent, error) {
	if n > fs.free {
		return nil, ErrNoSpace
	}
	var exts []extent
	var need = n
	i := uint64(0)
	total := uint64(len(fs.used))
	for need > 0 && i < total {
		for i < total && fs.used[i] {
			i++
		}
		if i >= total {
			break
		}
		start := i
		for i < total && !fs.used[i] && (i-start) < need {
			i++
		}
		exts = append(exts, extent{start: start, count: i - start})
		need -= i - start
	}
	if need > 0 {
		return nil, ErrNoSpace
	}
	for _, e := range exts {
		for p := e.start; p < e.start+e.count; p++ {
			fs.used[p] = true
		}
	}
	fs.free -= n
	return exts, nil
}

// submit pushes a group of operations to the device as one submission
// batch (a whole file becomes one NVMe doorbell ring) and advances the clock
// to the batch completion. Results align with ops.
func (fs *FlatFS) submit(ops []batch.Op) ([]batch.Result, error) {
	if len(ops) == 0 {
		return nil, nil
	}
	res, done, err := fs.dev.SubmitBatch(ops, fs.clock.Now())
	if err != nil {
		return nil, err
	}
	for i := range res {
		if res[i].Err != nil {
			return nil, res[i].Err
		}
	}
	fs.clock.AdvanceTo(done)
	return res, nil
}

// release returns extents to the free pool, optionally trimming them.
func (fs *FlatFS) release(exts []extent, trim bool) error {
	var ops []batch.Op
	for _, e := range exts {
		for p := e.start; p < e.start+e.count; p++ {
			fs.used[p] = false
			fs.free++
			if trim {
				ops = append(ops, batch.Op{Kind: batch.OpTrim, LPN: p})
			}
		}
	}
	_, err := fs.submit(ops)
	return err
}

// writeExtents writes data across the file's extents, zero-padding the
// final page. The pages are one allocation, copied from data once.
func (fs *FlatFS) writeExtents(exts []extent, data []byte) error {
	ops, buf := fs.pageOps(batch.OpWrite, exts)
	copy(buf, data)
	_, err := fs.submit(ops)
	return err
}

// pageOps returns one op of the given kind per page of exts, in order, each
// pointing at its page of one zeroed buffer, which it also returns.
func (fs *FlatFS) pageOps(kind batch.Kind, exts []extent) ([]batch.Op, []byte) {
	var n uint64
	for _, e := range exts {
		n += e.count
	}
	ps := uint64(fs.dev.PageSize())
	buf := make([]byte, n*ps)
	ops := make([]batch.Op, 0, n)
	for _, e := range exts {
		for p := e.start; p < e.start+e.count; p++ {
			off := uint64(len(ops)) * ps
			ops = append(ops, batch.Op{Kind: kind, LPN: p, Data: buf[off : off+ps]})
		}
	}
	return ops, buf
}

// Create stores a new file.
func (fs *FlatFS) Create(name string, data []byte) error {
	if _, ok := fs.files[name]; ok {
		return fmt.Errorf("%w: %s", ErrExists, name)
	}
	n := fs.pagesFor(len(data))
	if n == 0 {
		n = 1 // empty files still own a page, keeping Delete/trim uniform
	}
	exts, err := fs.allocate(n)
	if err != nil {
		return err
	}
	f := &file{size: len(data), extents: exts}
	if err := fs.writeExtents(exts, data); err != nil {
		return err
	}
	fs.files[name] = f
	return nil
}

// ReadFile returns the file's contents.
func (fs *FlatFS) ReadFile(name string) ([]byte, error) {
	f, ok := fs.files[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	// Every page reads into its place in one buffer.
	ops, buf := fs.pageOps(batch.OpRead, f.extents)
	res, err := fs.submit(ops)
	if err != nil {
		return nil, err
	}
	for i := range res {
		// A device that returns its own buffer instead of filling the
		// destination is copied from.
		if d := res[i].Data; len(d) > 0 && &d[0] != &ops[i].Data[0] {
			copy(ops[i].Data, d)
		}
	}
	return buf[:f.size], nil
}

// Overwrite replaces a file's contents in place when the page count
// matches (the common ransomware pattern: same-size ciphertext), or
// reallocates otherwise.
func (fs *FlatFS) Overwrite(name string, data []byte) error {
	f, ok := fs.files[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	n := fs.pagesFor(len(data))
	if n == 0 {
		n = 1
	}
	if n != fs.totalPages(f) {
		if err := fs.release(f.extents, false); err != nil {
			return err
		}
		exts, err := fs.allocate(n)
		if err != nil {
			return err
		}
		f.extents = exts
	}
	f.size = len(data)
	return fs.writeExtents(f.extents, data)
}

// Delete removes a file. With trim=true the freed pages are trimmed — the
// pattern the trimming attack uses to physically destroy plaintext.
func (fs *FlatFS) Delete(name string, trim bool) error {
	f, ok := fs.files[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	if err := fs.release(f.extents, trim); err != nil {
		return err
	}
	delete(fs.files, name)
	return nil
}

// List returns all file names, sorted.
func (fs *FlatFS) List() []string {
	names := make([]string, 0, len(fs.files))
	for n := range fs.files {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Extents returns the page numbers a file occupies, in order. Attacks use
// it to trim precisely the victim's pages.
func (fs *FlatFS) Extents(name string) ([]uint64, error) {
	f, ok := fs.files[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	var pages []uint64
	for _, e := range f.extents {
		for p := e.start; p < e.start+e.count; p++ {
			pages = append(pages, p)
		}
	}
	return pages, nil
}

func (fs *FlatFS) totalPages(f *file) uint64 {
	var n uint64
	for _, e := range f.extents {
		n += e.count
	}
	return n
}
