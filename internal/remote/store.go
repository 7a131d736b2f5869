package remote

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/bufpool"
	"repro/internal/nvmeoe"
	"repro/internal/oplog"
	"repro/internal/simclock"
)

// Store indexes offloaded segments per device. Segments must arrive in
// time order with an unbroken hash chain — the ingest check is what turns
// "a pile of blobs" into a trusted evidence chain.
//
// The indexes are sharded per device: the Store-level lock only guards
// the device directory (and the subscriber list), while each device's log,
// version, and checkpoint indexes sit behind that device's own lock.
// Ingest from N devices therefore proceeds concurrently — one slow or
// chatty device never serializes the fleet.
type Store struct {
	mu      sync.RWMutex
	blobs   ObjectStore
	devices map[uint64]*deviceLog
	// chunks is the fleet-wide content-addressed page index: every
	// ingested page version is interned by its verified content hash, so
	// one physical copy serves all devices and segments that wrote the
	// same bytes. Lock order: a device shard lock may be held when taking
	// a chunk shard lock, never the reverse.
	chunks *chunkIndex
	subs   []func(deviceID uint64, seg *oplog.Segment)
	// OnSegment, when set, is invoked after each accepted segment, like a
	// subscriber registered first. Prefer Subscribe, which supports
	// multiple consumers; the field remains for single-consumer wiring.
	//
	// Contract change with sharded ingest: the hook now runs with the
	// ingesting device's shard write-locked (that is what guarantees
	// per-device delivery order), so — exactly like a subscriber — it must
	// not call back into the Store for the same device.
	OnSegment func(deviceID uint64, seg *oplog.Segment)
}

type deviceLog struct {
	mu sync.RWMutex
	// runs is the chain [0, nextSeq), one run per segment with entries: the
	// Entries slice that segment was accepted with, never written again.
	runs     [][]oplog.Entry
	nextSeq  uint64
	headHash [oplog.HashSize]byte
	versions map[uint64][]oplog.PageRecord // lpn -> records sorted by WriteSeq
	// lpns is the key set of versions, ascending: sortedLPNs builds it on
	// demand and whoever gives an LPN its first version or takes its last
	// (under mu's write lock) drops it. lpnsMu orders builders, which hold
	// mu only for reading.
	lpnsMu      sync.Mutex
	lpns        []uint64
	checkpoints []nvmeoe.Checkpoint // sorted by Seq
	segKeys     []string
	pageBytes   int64
	// dedupHits counts ingested page versions whose content was already
	// in the chunk index — the store-side dedup ledger for this device.
	dedupHits int64
	// bytesLogical is what segments decode to (the uncompressed marshal);
	// bytesStored what the object store actually holds. Their ratio is the
	// wire/at-rest compression the retention budget is sized with.
	bytesLogical int64
	bytesStored  int64
	// subNanos is wall time spent in subscribers (streaming detection) for
	// this device's ingested segments — the server's IngestStats surfaces
	// it as DetectTime.
	subNanos int64
}

// NewStore returns a Store persisting blobs to the given object store.
func NewStore(blobs ObjectStore) *Store {
	return &Store{blobs: blobs, devices: map[uint64]*deviceLog{}, chunks: newChunkIndex()}
}

// Subscribe registers a segment-ingest hook; every accepted segment is
// delivered, per device in ingest order. The streaming detection pipeline
// (internal/detect) registers here, exactly as the paper runs detection on
// the remote server. Subscribers run on the ingesting session's goroutine
// with that device's shard locked, so they must not call back into the
// Store for the same device.
func (s *Store) Subscribe(fn func(deviceID uint64, seg *oplog.Segment)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.subs = append(s.subs, fn)
}

// dev returns the device's shard, creating it on first contact.
func (s *Store) dev(id uint64) *deviceLog {
	s.mu.RLock()
	d, ok := s.devices[id]
	s.mu.RUnlock()
	if ok {
		return d
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if d, ok = s.devices[id]; !ok {
		d = &deviceLog{versions: map[uint64][]oplog.PageRecord{}}
		s.devices[id] = d
	}
	return d
}

// lookup returns the device's shard without creating it.
func (s *Store) lookup(id uint64) (*deviceLog, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	d, ok := s.devices[id]
	return d, ok
}

// Devices returns the IDs of every device with ingested state.
func (s *Store) Devices() []uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ids := make([]uint64, 0, len(s.devices))
	for id := range s.devices {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// AppendSegment verifies and ingests one offloaded segment, encoding it
// through the wire codec before persisting. Sessions that already hold the
// encoded wire form (Server) use AppendSegmentBlob to store those exact
// bytes instead of re-encoding. The store keeps a copy of seg's entries.
func (s *Store) AppendSegment(seg *oplog.Segment) error {
	own := *seg
	own.Entries = slices.Clone(seg.Entries)
	return s.AppendSegmentBlob(&own, nvmeoe.EncodeSegmentBlob(seg.Marshal()))
}

// AppendSegmentBlob verifies and ingests one offloaded segment: every page
// must match its hash (chunkIndex.verify), and the entries must extend the
// device's chain exactly. blob is the codec-framed wire encoding of seg and
// is persisted verbatim — compressed on the wire is compressed at rest. Only
// the segment's own device shard is locked, so ingest from different devices
// runs concurrently. The store keeps seg.Entries: do not write it again, but
// none of its page bytes: verify points each page's Data at the store's copy.
func (s *Store) AppendSegmentBlob(seg *oplog.Segment, blob []byte) error {
	if err := s.chunks.verify(seg.Pages); err != nil {
		return fmt.Errorf("remote: reject segment: %w", err)
	}
	d := s.dev(seg.DeviceID)
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.extends(seg); err != nil {
		return fmt.Errorf("remote: reject segment: %w", err)
	}
	key := fmt.Sprintf("dev/%d/seg/%020d", seg.DeviceID, d.nextSeq)
	if err := s.blobs.Put(key, blob); err != nil {
		return fmt.Errorf("remote: persist segment: %w", err)
	}
	d.adopt(s.chunks, seg, key, nvmeoe.SegmentBlobLogicalSize(blob), len(blob))
	// Streaming consumers see segments per device in ingest order because
	// the shard lock is still held; other devices are unaffected.
	s.mu.RLock()
	subs := s.subs
	cb := s.OnSegment
	s.mu.RUnlock()
	if cb != nil || len(subs) > 0 {
		t0 := time.Now()
		if cb != nil {
			cb(seg.DeviceID, seg)
		}
		for _, fn := range subs {
			fn(seg.DeviceID, seg)
		}
		d.subNanos += time.Since(t0).Nanoseconds()
	}
	return nil
}

// SubscriberTime returns the wall time ingest has spent inside subscribers
// (the streaming detection pipeline) for one device.
func (s *Store) SubscriberTime(deviceID uint64) time.Duration {
	d, ok := s.lookup(deviceID)
	if !ok {
		return 0
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	return time.Duration(d.subNanos)
}

// insertVersion keeps the per-LPN version list sorted by WriteSeq.
// Segments arrive in time order so appends are the common case.
func insertVersion(vs []oplog.PageRecord, p oplog.PageRecord) []oplog.PageRecord {
	if n := len(vs); n == 0 || vs[n-1].WriteSeq <= p.WriteSeq {
		return append(vs, p)
	}
	i := sort.Search(len(vs), func(i int) bool { return vs[i].WriteSeq > p.WriteSeq })
	vs = append(vs, oplog.PageRecord{})
	copy(vs[i+1:], vs[i:])
	vs[i] = p
	return vs
}

// extends checks that seg's entries extend the device's chain exactly: they
// start at the next sequence and chain onto the head hash. Entries that
// oplog.UnmarshalSegment derived are not hashed a second time (see
// oplog.Segment.VerifyChain); a segment built by hand is.
func (d *deviceLog) extends(seg *oplog.Segment) error {
	if len(seg.Entries) == 0 {
		return nil
	}
	if seg.Entries[0].Seq != d.nextSeq {
		return fmt.Errorf("segment starts at seq %d, chain is at %d", seg.Entries[0].Seq, d.nextSeq)
	}
	return seg.VerifyChain(d.headHash)
}

// adopt indexes a segment that passed chunkIndex.verify and extends: the
// chain advances, every page is interned by its verified hash so the version
// index (and every subscriber) sees the canonical physical copy, and the
// blob's key and sizes are ledgered.
func (d *deviceLog) adopt(chunks *chunkIndex, seg *oplog.Segment, key string, logical, stored int) {
	if n := len(seg.Entries); n > 0 {
		d.runs = append(d.runs, seg.Entries)
		d.nextSeq = seg.Entries[n-1].Seq + 1
		d.headHash = seg.Entries[n-1].Hash
	}
	for i := range seg.Pages {
		p := &seg.Pages[i]
		data, hit := chunks.intern(p.Hash, p.Data)
		p.Data = data
		if hit {
			d.dedupHits++
		}
		if len(d.versions[p.LPN]) == 0 {
			d.lpns = nil
		}
		d.versions[p.LPN] = insertVersion(d.versions[p.LPN], *p)
		d.pageBytes += int64(len(p.Data))
	}
	d.segKeys = append(d.segKeys, key)
	d.bytesLogical += int64(logical)
	d.bytesStored += int64(stored)
}

// AppendCheckpoint stores a mapping snapshot. One pushed at a sequence that
// already has one replaces it, in the index as in the object tier: the older
// table's log entry died in device RAM and the sequence was issued again.
func (s *Store) AppendCheckpoint(deviceID uint64, cp nvmeoe.Checkpoint) error {
	key := fmt.Sprintf("dev/%d/cp/%020d", deviceID, cp.Seq)
	if err := s.blobs.Put(key, cp.Marshal()); err != nil {
		return fmt.Errorf("remote: persist checkpoint: %w", err)
	}
	d := s.dev(deviceID)
	d.mu.Lock()
	defer d.mu.Unlock()
	i := sort.Search(len(d.checkpoints), func(i int) bool { return d.checkpoints[i].Seq >= cp.Seq })
	if i == len(d.checkpoints) || d.checkpoints[i].Seq != cp.Seq {
		d.checkpoints = slices.Insert(d.checkpoints, i, cp)
	} else {
		d.checkpoints[i] = cp
	}
	return nil
}

// Entries returns a copy of the stored entries with from <= Seq < to.
func (s *Store) Entries(deviceID, from, to uint64) []oplog.Entry {
	return slices.Concat(s.appendRuns(nil, deviceID, from, to)...)
}

// appendRuns appends to dst the stored entries with from <= Seq < to as views
// into the runs that hold them, the first found by binary search. A run is
// never written after adopt, so the views stay valid once the lock is gone.
func (s *Store) appendRuns(dst [][]oplog.Entry, deviceID, from, to uint64) [][]oplog.Entry {
	d, ok := s.lookup(deviceID)
	if !ok {
		return dst
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	to = min(to, d.nextSeq)
	i := sort.Search(len(d.runs), func(i int) bool { return d.runs[i][0].Seq > from }) - 1
	for ; from < to; i++ {
		r := d.runs[i]
		r = r[from-r[0].Seq : min(to-r[0].Seq, uint64(len(r)))]
		dst = append(dst, r)
		from += uint64(len(r))
	}
	return dst
}

// Version returns the newest retained version of lpn written strictly
// before sequence before.
func (s *Store) Version(deviceID, lpn, before uint64) (oplog.PageRecord, bool) {
	d, ok := s.lookup(deviceID)
	if ok {
		d.mu.RLock()
		defer d.mu.RUnlock()
	}
	if !ok {
		return oplog.PageRecord{}, false
	}
	vs := d.versions[lpn]
	i := sort.Search(len(vs), func(i int) bool { return vs[i].WriteSeq >= before })
	if i == 0 {
		return oplog.PageRecord{}, false
	}
	return vs[i-1], true
}

// HeldVersions lists every page version the store holds for the device, in
// (LPN, WriteSeq) order, with the payloads left out: the listing costs
// O(versions) whatever the page size. It is what a reopening device
// compares its flash against — a version listed here was held to its hash at
// ingest and was acked, and stays listed until DropSegmentPages expires
// it. An unknown device holds nothing.
func (s *Store) HeldVersions(deviceID uint64) []oplog.PageRecord {
	d, ok := s.lookup(deviceID)
	if !ok {
		return nil
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	n := 0
	for _, vs := range d.versions {
		n += len(vs)
	}
	out := make([]oplog.PageRecord, 0, n)
	for _, lpn := range d.sortedLPNs() {
		for _, p := range d.versions[lpn] {
			p.Data = nil
			out = append(out, p)
		}
	}
	return out
}

// ImageRange returns the next chunk of a point-in-time image: for up to
// maxPages LPNs with fromLPN <= LPN < toLPN that have a retained version
// written before the given sequence, the newest such version, in LPN
// order. nextLPN is one past the last returned LPN and more reports
// whether further qualifying LPNs exist at or past it.
//
// The streamed restore path calls this once per chunk rather than
// snapshotting the whole image up front: versions that arrive while the
// restore is in flight (a recovering device's own restore-churn offloads)
// are visible to later chunks, so the stream never serves a view staler
// than the chain head it resumed from.
//
// only, when non-nil, restricts the image to that LPN set — the
// checkpoint-anchored delta path passes TouchedSince(anchor) so only
// diverged pages are served. nil means the full image.
func (s *Store) ImageRange(deviceID, fromLPN, toLPN, before uint64, maxPages int, only map[uint64]struct{}) (pages []oplog.PageRecord, nextLPN uint64, more bool) {
	d, ok := s.lookup(deviceID)
	if !ok {
		return nil, fromLPN, false
	}
	if maxPages <= 0 {
		maxPages = 1
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	// Walk the sorted LPNs forward from the cursor and stop one qualifying
	// LPN past the chunk (the +1 learns whether more remain): a chunk costs
	// what it returns, not a pass over the whole version index.
	lpns := d.sortedLPNs()
	start, _ := slices.BinarySearch(lpns, fromLPN)
	for _, lpn := range lpns[start:] {
		if lpn >= toLPN {
			break
		}
		if only != nil {
			if _, touched := only[lpn]; !touched {
				continue
			}
		}
		vs := d.versions[lpn]
		i := sort.Search(len(vs), func(i int) bool { return vs[i].WriteSeq >= before })
		if i == 0 {
			continue
		}
		if len(pages) == maxPages {
			more = true
			break
		}
		pages = append(pages, vs[i-1])
	}
	nextLPN = fromLPN
	if n := len(pages); n > 0 {
		nextLPN = pages[n-1].LPN + 1
	}
	return pages, nextLPN, more
}

// sortedLPNs returns the LPNs that have a version, ascending. Called with
// d.mu held (for reading is enough).
func (d *deviceLog) sortedLPNs() []uint64 {
	d.lpnsMu.Lock()
	defer d.lpnsMu.Unlock()
	if d.lpns == nil {
		d.lpns = make([]uint64, 0, len(d.versions))
		for lpn := range d.versions {
			d.lpns = append(d.lpns, lpn)
		}
		slices.Sort(d.lpns)
	}
	return d.lpns
}

// Checkpoint returns the newest checkpoint with Seq <= before.
func (s *Store) Checkpoint(deviceID, before uint64) (nvmeoe.Checkpoint, bool) {
	d, ok := s.lookup(deviceID)
	if ok {
		d.mu.RLock()
		defer d.mu.RUnlock()
	}
	if !ok || len(d.checkpoints) == 0 {
		return nvmeoe.Checkpoint{}, false
	}
	i := sort.Search(len(d.checkpoints), func(i int) bool { return d.checkpoints[i].Seq > before })
	if i == 0 {
		return nvmeoe.Checkpoint{}, false
	}
	return d.checkpoints[i-1], true
}

// Head returns the device's chain state: next expected sequence and the
// hash of the last accepted entry.
func (s *Store) Head(deviceID uint64) nvmeoe.Head {
	d, ok := s.lookup(deviceID)
	if ok {
		d.mu.RLock()
		defer d.mu.RUnlock()
	}
	if !ok {
		return nvmeoe.Head{}
	}
	return nvmeoe.Head{NextSeq: d.nextSeq, Hash: d.headHash}
}

// Stats summarizes a device's remote footprint.
type Stats struct {
	Segments    int
	Entries     int
	Versions    int
	PageBytes   int64
	Checkpoints int
	// BytesLogical is the uncompressed size of the device's segments;
	// BytesStored what the storage tier actually holds for them. Stored <
	// logical is the wire/at-rest compression stretching the retention
	// budget.
	BytesLogical int64
	BytesStored  int64
	// PagesDeduped counts this device's ingested page versions whose
	// content the chunk index already held (from any device) — the
	// store-side dedup ledger.
	PagesDeduped int64
}

// DeviceStats returns the remote footprint of one device.
func (s *Store) DeviceStats(deviceID uint64) Stats {
	d, ok := s.lookup(deviceID)
	if ok {
		d.mu.RLock()
		defer d.mu.RUnlock()
	}
	if !ok {
		return Stats{}
	}
	nv := 0
	for _, vs := range d.versions {
		nv += len(vs)
	}
	return Stats{
		Segments:     len(d.segKeys),
		Entries:      int(d.nextSeq), // the chain starts at sequence 0
		Versions:     nv,
		PageBytes:    d.pageBytes,
		Checkpoints:  len(d.checkpoints),
		BytesLogical: d.bytesLogical,
		BytesStored:  d.bytesStored,
		PagesDeduped: d.dedupHits,
	}
}

// Dedup returns the content-addressed index's fleet-wide ledger: distinct
// physical pages held versus logical page versions referencing them.
func (s *Store) Dedup() DedupStats {
	return s.chunks.stats()
}

// TouchedSince returns the set of LPNs with a state-changing log entry
// (write, trim, recovery write/trim) at or after sequence since — the
// diverged set a checkpoint-anchored delta restore must stream. Every LPN
// outside the set has had no state change since the anchor, so its live
// content at the cut equals its content at the anchor and the device
// reconstructs it locally. since == 0 (no anchor) returns nil: no filter,
// stream the full image.
func (s *Store) TouchedSince(deviceID, since uint64) map[uint64]struct{} {
	if since == 0 {
		return nil
	}
	touched := map[uint64]struct{}{}
	for _, run := range s.appendRuns(nil, deviceID, since, ^uint64(0)) {
		for i := range run {
			switch e := &run[i]; e.Kind {
			case oplog.KindWrite, oplog.KindTrim, oplog.KindRecovery, oplog.KindRecoveryTrim:
				touched[e.LPN] = struct{}{}
			}
		}
	}
	return touched
}

// DropSegmentPages removes the page payloads of the device's i-th stored
// segment from the version and chunk indexes — the retention-expiry
// primitive. The evidence chain (entries, blobs, checkpoints) is kept for
// forensics; only the retained page versions and their chunk references
// go. A chunk's physical copy is freed only when the last page version
// referencing it — from any device — is dropped. Each segment may be
// dropped at most once.
func (s *Store) DropSegmentPages(deviceID uint64, i int) error {
	seg, err := s.FetchSegment(deviceID, i)
	if err != nil {
		return err
	}
	d, ok := s.lookup(deviceID)
	if !ok {
		return fmt.Errorf("%w: device %d", ErrNotFound, deviceID)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, p := range seg.Pages {
		vs := d.versions[p.LPN]
		for j := range vs {
			if vs[j].WriteSeq != p.WriteSeq {
				continue
			}
			d.versions[p.LPN] = append(vs[:j], vs[j+1:]...)
			if len(d.versions[p.LPN]) == 0 {
				delete(d.versions, p.LPN)
				d.lpns = nil
			}
			d.pageBytes -= int64(len(p.Data))
			s.chunks.release(p.Hash)
			break
		}
	}
	return nil
}

// Blobs exposes the storage tier the Store persists to (tier selection,
// cost/latency ledgers, settling eventually-consistent listings).
func (s *Store) Blobs() ObjectStore { return s.blobs }

// TierStats returns the storage tier's cost/latency ledger when the
// backend keeps one (s3sim), or a zero ledger for free local tiers.
func (s *Store) TierStats() TierStats {
	if ts, ok := s.blobs.(TierStatter); ok {
		return ts.TierStats()
	}
	return TierStats{}
}

// PutServiceTime returns the tier's modeled service time for persisting an
// n-byte blob, or zero on tiers without a latency model. The server reads
// it per accepted segment and carries it in the durability ack.
func (s *Store) PutServiceTime(n int) simclock.Duration {
	if m, ok := s.blobs.(ServiceTimeModeler); ok {
		return m.PutServiceTime(n)
	}
	return 0
}

// FetchSegment retrieves and decodes the device's i-th stored segment,
// inflating compressed blobs. Forensic tooling re-reads the raw evidence
// chain this way.
func (s *Store) FetchSegment(deviceID uint64, i int) (*oplog.Segment, error) {
	d, ok := s.lookup(deviceID)
	if !ok {
		return nil, fmt.Errorf("%w: device %d", ErrNotFound, deviceID)
	}
	d.mu.RLock()
	if i < 0 || i >= len(d.segKeys) {
		d.mu.RUnlock()
		return nil, fmt.Errorf("%w: segment %d of device %d", ErrNotFound, i, deviceID)
	}
	key := d.segKeys[i]
	d.mu.RUnlock()
	blob, err := s.blobs.Get(key)
	if err != nil {
		return nil, err
	}
	// The segment's pages alias the decoded marshal, so the caller gets a
	// buffer of its own, never a pooled one.
	raw, err := nvmeoe.AppendDecodeSegmentBlob(nil, blob)
	if err != nil {
		return nil, fmt.Errorf("remote: fetch %s: %w", key, err)
	}
	seg, err := oplog.UnmarshalSegment(raw)
	if err != nil {
		return nil, fmt.Errorf("remote: fetch %s: %w", key, err)
	}
	return seg, nil
}

// Reload rebuilds the in-memory indexes from the object store. It verifies
// the full chain as it goes, so a tampered blob store is detected. This is
// the durability story: the index is a cache; the blobs are the truth.
//
// Reload is the restart-recovery path: it holds the directory lock for its
// whole duration, so sessions arriving mid-rebuild block at the shard
// lookup instead of ingesting into a directory about to be replaced.
// Callers must still quiesce in-flight requests first (Server.Close) —
// an append already past the lookup races the blob listing.
func (s *Store) Reload() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys, err := s.blobs.List("dev/")
	if err != nil {
		return err
	}
	// Rebuild into a fresh directory (and fresh chunk index) and swap
	// both in at the end, so a failed reload leaves the previous index
	// intact.
	devices := map[uint64]*deviceLog{}
	chunks := newChunkIndex()
	dev := func(id uint64) *deviceLog {
		d, ok := devices[id]
		if !ok {
			d = &deviceLog{versions: map[uint64][]oplog.PageRecord{}}
			devices[id] = d
		}
		return d
	}
	sort.Strings(keys) // seg keys are zero-padded by seq: lexical == numeric
	for _, key := range keys {
		var devID uint64
		var seq uint64
		if n, _ := fmt.Sscanf(key, "dev/%d/seg/%d", &devID, &seq); n == 2 {
			blob, err := s.blobs.Get(key)
			if err != nil {
				return err
			}
			// Blobs land in the codec frame the wire carried. Decode goes
			// through a pooled buffer, so a fleet-sized reload does not
			// allocate one per segment; the pages alias it until verify
			// points them at the index's copies.
			buf := bufpool.Get(nvmeoe.SegmentBlobLogicalSize(blob))
			raw, err := nvmeoe.AppendDecodeSegmentBlob(buf.B, blob)
			var seg *oplog.Segment
			if err == nil {
				seg, err = oplog.UnmarshalSegment(raw)
			}
			if err == nil {
				err = chunks.verify(seg.Pages)
			}
			buf.Release()
			if err != nil {
				return fmt.Errorf("remote: reload %s: %w", key, err)
			}
			d := dev(seg.DeviceID)
			if err := d.extends(seg); err != nil {
				return fmt.Errorf("remote: reload %s: %w", key, err)
			}
			d.adopt(chunks, seg, key, len(raw), len(blob))
			continue
		}
		if n, _ := fmt.Sscanf(key, "dev/%d/cp/%d", &devID, &seq); n == 2 {
			blob, err := s.blobs.Get(key)
			if err != nil {
				return err
			}
			cp, err := nvmeoe.UnmarshalCheckpoint(blob)
			if err != nil {
				return fmt.Errorf("remote: reload %s: %w", key, err)
			}
			d := dev(devID)
			d.checkpoints = append(d.checkpoints, cp)
		}
	}
	for _, d := range devices {
		sort.Slice(d.checkpoints, func(i, j int) bool { return d.checkpoints[i].Seq < d.checkpoints[j].Seq })
	}
	s.devices = devices
	s.chunks = chunks
	return nil
}

// ReloadSettled is Reload for eventually-consistent storage tiers: it
// first settles the backend's listing (s3sim's LIST lags recent PUTs, so a
// plain Reload could silently rebuild short of the chain head) and then
// rebuilds. On strongly-consistent tiers it is exactly Reload.
func (s *Store) ReloadSettled() error {
	if st, ok := s.blobs.(Settler); ok {
		st.Settle()
	}
	return s.Reload()
}
