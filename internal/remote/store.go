package remote

import (
	"fmt"
	"slices"
	"sort"
	"sync"

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
}

type deviceLog struct {
	mu sync.RWMutex
	// runs is the chain [0, nextSeq), one run per segment with entries: the
	// Entries slice that segment was accepted with, never written again.
	runs     [][]oplog.Entry
	nextSeq  uint64
	headHash [oplog.HashSize]byte
	// segKeys[i] names the i-th stored segment's blob, and segs[i] holds its
	// page versions until DropSegmentPages expires them.
	segKeys []string
	segs    []segVersions
	// heads maps every LPN with a stored version to its newest one; from
	// there each LPN's versions form a chain, newest to oldest by WriteSeq.
	// versions counts the versions the chains hold.
	heads    map[uint64]verRef
	versions int
	// lpns is the key set of heads, ascending: sortedLPNs builds it on
	// demand and whoever gives an LPN its first version or takes its last
	// (under mu's write lock) drops it. lpnsMu orders builders, which hold
	// mu only for reading.
	lpnsMu      sync.Mutex
	lpns        []uint64
	checkpoints []nvmeoe.Checkpoint // sorted by Seq
	pageBytes   int64
	// dedupHits counts ingested page versions whose content was already
	// in the chunk index — the store-side dedup ledger for this device.
	dedupHits int64
	// bytesLogical is what segments decode to (the uncompressed marshal);
	// bytesStored what the object store actually holds. Their ratio is the
	// wire/at-rest compression the retention budget is sized with.
	bytesLogical int64
	bytesStored  int64
}

// segVersions is one stored segment's page versions: the records as
// oplog.UnmarshalSegment put them, never copied, and each record's place in
// its LPN's chain. A version costs the store no allocation of its own.
type segVersions struct {
	pages []oplog.PageRecord
	links []verLink // links[j] chains pages[j]
}

// verRef names one stored version, page page of segment seg-1; the zero
// verRef names none and ends a chain.
type verRef struct{ seg, page uint32 }

// verLink places a version between its LPN's next newer and next older one.
type verLink struct{ newer, older verRef }

func newDeviceLog() *deviceLog { return &deviceLog{heads: map[uint64]verRef{}} }

func (d *deviceLog) rec(v verRef) *oplog.PageRecord { return &d.segs[v.seg-1].pages[v.page] }

func (d *deviceLog) link(v verRef) *verLink { return &d.segs[v.seg-1].links[v.page] }

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
		d = newDeviceLog()
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

// AppendSegmentBlob verifies and ingests one offloaded segment: every page
// must match its hash (chunkIndex.verify), and the entries must extend the
// device's chain exactly. blob is the codec-framed wire encoding of seg and
// is persisted verbatim — compressed on the wire is compressed at rest. Only
// the segment's own device shard is locked, so ingest from different devices
// runs concurrently. The store keeps seg.Entries and seg.Pages: do not write
// them again; it keeps none of the pages' bytes: verify points each page's
// Data at the store's copy.
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
	// A segment without entries leaves nextSeq where it was, so the key
	// also counts the device's segments: no blob overwrites another.
	key := fmt.Sprintf("dev/%d/seg/%020d.%010d", seg.DeviceID, d.nextSeq, len(d.segKeys))
	if err := s.blobs.Put(key, blob); err != nil {
		return fmt.Errorf("remote: persist segment: %w", err)
	}
	d.adopt(s.chunks, seg, key, nvmeoe.SegmentBlobLogicalSize(blob), len(blob))
	// Streaming consumers see segments per device in ingest order because
	// the shard lock is still held; other devices are unaffected.
	s.mu.RLock()
	subs := s.subs
	s.mu.RUnlock()
	for _, fn := range subs {
		fn(seg.DeviceID, seg)
	}
	return nil
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
// index (and every subscriber) sees the canonical physical copy and chained
// into its LPN's versions where it lies, and the blob's key and sizes are
// ledgered.
func (d *deviceLog) adopt(chunks *chunkIndex, seg *oplog.Segment, key string, logical, stored int) {
	if n := len(seg.Entries); n > 0 {
		d.runs = append(d.runs, seg.Entries)
		d.nextSeq = seg.Entries[n-1].Seq + 1
		d.headHash = seg.Entries[n-1].Hash
	}
	sv := segVersions{pages: seg.Pages}
	if len(seg.Pages) > 0 {
		sv.links = make([]verLink, len(seg.Pages))
	}
	d.segKeys = append(d.segKeys, key)
	d.segs = append(d.segs, sv)
	for i := range seg.Pages {
		p := &seg.Pages[i]
		data, hit := chunks.intern(p.Hash, p.Data)
		p.Data = data
		if hit {
			d.dedupHits++
		}
		d.chain(verRef{uint32(len(d.segs)), uint32(i)})
		d.pageBytes += int64(len(p.Data))
	}
	d.versions += len(seg.Pages)
	d.bytesLogical += int64(logical)
	d.bytesStored += int64(stored)
}

// chain enters version v into its LPN's chain in WriteSeq order, newer than
// every version with the same WriteSeq. Segments arrive in time order, so v
// is the new head but for a late segment's older pages.
func (d *deviceLog) chain(v verRef) {
	p := d.rec(v)
	newer, older := verRef{}, d.heads[p.LPN]
	for older != (verRef{}) && d.rec(older).WriteSeq > p.WriteSeq {
		newer, older = older, d.link(older).older
	}
	*d.link(v) = verLink{newer: newer, older: older}
	if newer != (verRef{}) {
		d.link(newer).older = v
	} else {
		if older == (verRef{}) {
			d.lpns = nil // the LPN's first version
		}
		d.heads[p.LPN] = v
	}
	if older != (verRef{}) {
		d.link(older).newer = v
	}
}

// unchain takes version v out of its LPN's chain.
func (d *deviceLog) unchain(v verRef) {
	l, lpn := *d.link(v), d.rec(v).LPN
	switch {
	case l.newer != (verRef{}):
		d.link(l.newer).older = l.older
	case l.older != (verRef{}):
		d.heads[lpn] = l.older
	default:
		delete(d.heads, lpn) // the LPN's last version
		d.lpns = nil
	}
	if l.older != (verRef{}) {
		d.link(l.older).newer = l.newer
	}
}

// newest returns lpn's newest version written strictly before sequence
// before, walking its chain from the head.
func (d *deviceLog) newest(lpn, before uint64) (*oplog.PageRecord, bool) {
	for v := d.heads[lpn]; v != (verRef{}); v = d.link(v).older {
		if p := d.rec(v); p.WriteSeq < before {
			return p, true
		}
	}
	return nil, false
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
	if p, ok := d.newest(lpn, before); ok {
		return *p, true
	}
	return oplog.PageRecord{}, false
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
	out := make([]oplog.PageRecord, 0, d.versions)
	for _, lpn := range d.sortedLPNs() {
		from := len(out)
		for v := d.heads[lpn]; v != (verRef{}); v = d.link(v).older {
			p := *d.rec(v)
			p.Data = nil
			out = append(out, p)
		}
		slices.Reverse(out[from:])
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
		p, ok := d.newest(lpn, before)
		if !ok {
			continue
		}
		if len(pages) == maxPages {
			more = true
			break
		}
		pages = append(pages, *p)
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
		d.lpns = make([]uint64, 0, len(d.heads))
		for lpn := range d.heads {
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
	return Stats{
		Segments:     len(d.segKeys),
		Entries:      int(d.nextSeq), // the chain starts at sequence 0
		Versions:     d.versions,
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

// DropSegmentPages removes the page versions of the device's i-th stored
// segment from the version and chunk indexes — the retention-expiry
// primitive. It first persists a tombstone, dev/<id>/drop/<i>, and changes
// the indexes only once that Put succeeded, so Reload expires the same
// versions. The evidence chain (entries, blobs, checkpoints) is kept for
// forensics; only the retained page versions and their chunk references
// go, and with them the segment's records. A chunk's physical copy is freed
// only when the last page version referencing it — from any device — is
// dropped. Dropping a segment again changes nothing.
func (s *Store) DropSegmentPages(deviceID uint64, i int) error {
	d, ok := s.lookup(deviceID)
	if !ok {
		return fmt.Errorf("%w: device %d", ErrNotFound, deviceID)
	}
	d.mu.RLock()
	n := len(d.segKeys)
	d.mu.RUnlock()
	if i < 0 || i >= n {
		return fmt.Errorf("%w: segment %d of device %d", ErrNotFound, i, deviceID)
	}
	if err := s.blobs.Put(fmt.Sprintf("dev/%d/drop/%010d", deviceID, i), nil); err != nil {
		return fmt.Errorf("remote: persist expiry: %w", err)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.drop(s.chunks, i)
	return nil
}

// drop unchains the i-th segment's versions, releases their chunks and
// forgets its records.
func (d *deviceLog) drop(chunks *chunkIndex, i int) {
	sv := &d.segs[i]
	for j := range sv.pages {
		d.unchain(verRef{uint32(i + 1), uint32(j)})
		d.pageBytes -= int64(len(sv.pages[j].Data))
		chunks.release(sv.pages[j].Hash)
	}
	d.versions -= len(sv.pages)
	*sv = segVersions{}
}

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
	return s.readSegment(key)
}

// readSegment fetches and decodes the segment blob stored under key.
func (s *Store) readSegment(key string) (*oplog.Segment, error) {
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
// the full chain as it goes, so a tampered blob store is detected, and
// applies every expiry tombstone once the segments are adopted. This is
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
			d = newDeviceLog()
			devices[id] = d
		}
		return d
	}
	sort.Strings(keys) // seg keys are zero-padded by (seq, count): lexical == ingest order
	type tombstone struct {
		devID uint64
		seg   int
	}
	var drops []tombstone
	for _, key := range keys {
		var devID uint64
		var seq uint64
		var seg int
		if n, _ := fmt.Sscanf(key, "dev/%d/drop/%d", &devID, &seg); n == 2 {
			drops = append(drops, tombstone{devID, seg})
			continue
		}
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
	for _, t := range drops {
		d, ok := devices[t.devID]
		if !ok || t.seg >= len(d.segKeys) {
			continue // the listing lacks the segment, so the index lacks its versions
		}
		d.drop(chunks, t.seg)
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
