package remote

import (
	"bytes"
	"fmt"
	"sync"

	"repro/internal/bufpool"
	"repro/internal/oplog"
)

// chunkIndex is the fleet-wide content-addressed page store: one physical
// copy per distinct page content, shared across every device and segment
// the store holds. Pages are keyed by their seal-time SHA-256
// (oplog.PageRecord.Hash), which verify has held against the payload before
// anything reaches the index — so interning by hash cannot be poisoned by a
// device lying about its content. The index's copies live in slabs, one per
// verified segment, holding that segment's first-sight pages back to back: a
// slab stays alive while any of its copies is referenced, so a canonical copy
// that a later segment (of any device) shares keeps its whole slab alive
// after its own segment has expired. It is sharded by the hash's first byte;
// shard locks are leaves in the lock order (device shard lock -> chunk shard
// lock) and are never held across calls out of this file.
type chunkIndex struct {
	shards [chunkShards]chunkShard
}

const chunkShards = 64

// chunkShard holds its entries by value: interning a new content costs the
// index no allocation beyond the map's own growth.
type chunkShard struct {
	mu sync.Mutex
	m  map[[oplog.HashSize]byte]chunkEntry
}

type chunkEntry struct {
	data []byte
	refs int64
}

func newChunkIndex() *chunkIndex {
	ci := &chunkIndex{}
	for i := range ci.shards {
		ci.shards[i].m = make(map[[oplog.HashSize]byte]chunkEntry)
	}
	return ci
}

func (ci *chunkIndex) shard(h [oplog.HashSize]byte) *chunkShard {
	return &ci.shards[h[0]&(chunkShards-1)]
}

// verify holds each page to the hash it claims and points its Data at a copy
// the index can keep: a page whose hash the index holds must equal that copy
// byte for byte, so it hashes to the same key; so must a page that repeats an
// earlier new page of the segment, which then shares that page's copy. The
// other pages are copied into a slab sized to them, and each page's copy in
// it SHA-256'd. On success no page aliases the caller's buffer.
func (ci *chunkIndex) verify(pages []oplog.PageRecord) error {
	// fresh lists the pages new to the index, each with the earlier one whose
	// bytes it repeats (-1: none); parts holds the bytes the slab copies.
	var freshBuf [128]struct{ page, same int }
	var partsBuf [128][]byte
	fresh, parts := freshBuf[:0], partsBuf[:0]
	for i := range pages {
		p := &pages[i]
		if canon, held := ci.lookup(p.Hash); held {
			if !bytes.Equal(p.Data, canon) {
				return mismatch(i, p)
			}
			p.Data = canon
			continue
		}
		same := -1
		for _, f := range fresh {
			if q := &pages[f.page]; f.same < 0 && q.Hash == p.Hash && bytes.Equal(q.Data, p.Data) {
				same = f.page
				break
			}
		}
		fresh = append(fresh, struct{ page, same int }{i, same})
		if same < 0 {
			parts = append(parts, p.Data)
		}
	}
	// Go's allocator rounds an object over 32 KiB up to whole 8 KiB pages, so
	// the new pages that would spill into a part-filled one (the last 4 KiB
	// page of an odd count) get a second slab of their own. Join allocates
	// without zeroing first.
	split, size := len(parts), 0
	for _, b := range parts {
		size += len(b)
	}
	for size > 32<<10 && size%(8<<10) != 0 {
		split--
		size -= len(parts[split])
	}
	slab, rest := bytes.Join(parts[:split], nil), bytes.Join(parts[split:], nil)
	for _, f := range fresh {
		p := &pages[f.page]
		if f.same >= 0 {
			p.Data = pages[f.same].Data // copied and hashed already
			continue
		}
		n := len(p.Data)
		if n > len(slab) {
			slab = rest
		}
		p.Data, slab = slab[:n:n], slab[n:]
		if oplog.HashData(p.Data) != p.Hash {
			return mismatch(f.page, p)
		}
	}
	return nil
}

func mismatch(i int, p *oplog.PageRecord) error {
	return fmt.Errorf("page record %d (lpn %d, writeSeq %d): content hash mismatch", i, p.LPN, p.WriteSeq)
}

// intern records one reference to content hash h. On first sight data
// becomes the canonical physical copy (the index takes ownership of the
// slice, a view into its segment's slab); on a hit the existing copy is
// returned and data is dropped.
// The second return reports a dedup hit.
func (ci *chunkIndex) intern(h [oplog.HashSize]byte, data []byte) ([]byte, bool) {
	sh := ci.shard(h)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e, ok := sh.m[h]; ok {
		e.refs++
		sh.m[h] = e
		return e.data, true
	}
	sh.m[h] = chunkEntry{data: data, refs: 1}
	return data, false
}

// release drops one reference to h; the canonical copy is forgotten when
// the last reference goes. Releasing an unknown hash is a refcount bug and
// reports false.
func (ci *chunkIndex) release(h [oplog.HashSize]byte) bool {
	sh := ci.shard(h)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.m[h]
	if !ok {
		return false
	}
	if e.refs--; e.refs <= 0 {
		delete(sh.m, h)
	} else {
		sh.m[h] = e
	}
	return true
}

// lookup returns the canonical copy for h if the index holds it.
func (ci *chunkIndex) lookup(h [oplog.HashSize]byte) ([]byte, bool) {
	sh := ci.shard(h)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.m[h]
	if !ok {
		return nil, false
	}
	return e.data, true
}

func (ci *chunkIndex) stats() DedupStats {
	var d DedupStats
	for i := range ci.shards {
		sh := &ci.shards[i]
		sh.mu.Lock()
		d.UniquePages += len(sh.m)
		for _, e := range sh.m {
			d.UniqueBytes += int64(len(e.data))
			d.TotalRefs += e.refs
			d.LogicalBytes += e.refs * int64(len(e.data))
		}
		sh.mu.Unlock()
	}
	return d
}

// DedupStats describes the content-addressed index: how many distinct page
// contents it holds versus how many logical page versions reference them.
type DedupStats struct {
	UniquePages  int   // distinct page contents stored
	UniqueBytes  int64 // physical bytes held
	TotalRefs    int64 // logical page versions referencing them
	LogicalBytes int64 // bytes the store would hold without dedup
}

// HitRate is the fraction of logical page versions served by an
// already-stored physical copy.
func (d DedupStats) HitRate() float64 {
	if d.TotalRefs == 0 {
		return 0
	}
	return 1 - float64(d.UniquePages)/float64(d.TotalRefs)
}

// ResolveCache is the device-side half of the dedup restore protocol: it
// remembers every literal page the restore stream has delivered, keyed by
// content hash, so hash-reference pages resolve locally instead of
// refetching. Literals are verified against their claimed hash before
// entering the cache — a corrupt or malicious server cannot poison a
// resolution. The cache lives for one restore (surviving resumes, so
// pages literal-ed before a cut resolve references after it) and is not
// concurrency-safe: one restorer owns it.
type ResolveCache struct {
	m map[[oplog.HashSize]byte][]byte
}

// NewResolveCache returns an empty cache.
func NewResolveCache() *ResolveCache {
	return &ResolveCache{m: make(map[[oplog.HashSize]byte][]byte)}
}

// Add verifies data against h, stores a private copy, and returns the
// canonical cached slice. A hash mismatch is a data-integrity error.
func (c *ResolveCache) Add(h [oplog.HashSize]byte, data []byte) ([]byte, error) {
	if cached, ok := c.m[h]; ok {
		return cached, nil
	}
	if err := verifyLiteral(h, data); err != nil {
		return nil, err
	}
	cp := append([]byte(nil), data...)
	c.m[h] = cp
	return cp, nil
}

// verifyLiteral holds a streamed literal against the content hash it
// arrived with.
func verifyLiteral(h [oplog.HashSize]byte, data []byte) error {
	hasher := bufpool.GetHasher()
	sum := hasher.Sum256(data)
	hasher.Release()
	if sum != h {
		return fmt.Errorf("remote: restore literal fails content hash (%d bytes)", len(data))
	}
	return nil
}

// Lookup resolves a hash reference.
func (c *ResolveCache) Lookup(h [oplog.HashSize]byte) ([]byte, bool) {
	data, ok := c.m[h]
	return data, ok
}
