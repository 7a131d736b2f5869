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
// device lying about its content. The index owns its copies. It is sharded
// by the hash's first byte; shard locks are leaves in the lock order (device
// shard lock -> chunk shard lock) and are never held across calls out of
// this file.
type chunkIndex struct {
	shards [chunkShards]chunkShard
}

const chunkShards = 64

type chunkShard struct {
	mu sync.Mutex
	m  map[[oplog.HashSize]byte]*chunkEntry
}

type chunkEntry struct {
	data []byte
	refs int64
}

func newChunkIndex() *chunkIndex {
	ci := &chunkIndex{}
	for i := range ci.shards {
		ci.shards[i].m = make(map[[oplog.HashSize]byte]*chunkEntry)
	}
	return ci
}

func (ci *chunkIndex) shard(h [oplog.HashSize]byte) *chunkShard {
	return &ci.shards[h[0]&(chunkShards-1)]
}

// verify holds each page to the hash it claims and points its Data at a copy
// the index can keep: a page whose hash the index holds must equal that copy
// byte for byte, so it hashes to the same key; any other page is copied and
// the copy SHA-256'd. On success no page aliases the caller's buffer.
func (ci *chunkIndex) verify(pages []oplog.PageRecord) error {
	for i := range pages {
		p := &pages[i]
		canon, held := ci.lookup(p.Hash)
		if !held {
			canon = bytes.Clone(p.Data)
		}
		if held && !bytes.Equal(p.Data, canon) || !held && oplog.HashData(canon) != p.Hash {
			return fmt.Errorf("page record %d (lpn %d, writeSeq %d): content hash mismatch", i, p.LPN, p.WriteSeq)
		}
		p.Data = canon
	}
	return nil
}

// intern records one reference to content hash h. On first sight data
// becomes the canonical physical copy (the index takes ownership of the
// slice); on a hit the existing copy is returned and data is dropped.
// The second return reports a dedup hit.
func (ci *chunkIndex) intern(h [oplog.HashSize]byte, data []byte) ([]byte, bool) {
	sh := ci.shard(h)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e, ok := sh.m[h]; ok {
		e.refs++
		return e.data, true
	}
	sh.m[h] = &chunkEntry{data: data, refs: 1}
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
	e.refs--
	if e.refs <= 0 {
		delete(sh.m, h)
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
	m     map[[oplog.HashSize]byte][]byte
	bytes int64
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
	c.bytes += int64(len(cp))
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

// Pages reports distinct cached contents; Bytes their physical footprint.
func (c *ResolveCache) Pages() int   { return len(c.m) }
func (c *ResolveCache) Bytes() int64 { return c.bytes }
