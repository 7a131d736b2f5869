package core

// This file is the recovery subsystem: everything that reconstructs device
// state from the retained history — local pins, the operation log, and the
// remote store — lives here.
//
//   - Reopen adopts an existing flash array after a power cycle: it replays
//     the remote log from the newest checkpoint inside the chain (further
//     back only as far as a page on flash still needs an answer) and splices
//     the post-reboot log onto the remote chain head.
//   - VersionBefore / ImageBefore answer point-in-time queries across the
//     live mapping, local pins, and the remote store; the remote part of
//     an image rides the chunked FetchImageStream.
//   - RestoreBatch is the logged primitive that rolls pages back, stamping
//     the evidence chain with recovery entries: its writes reach flash as
//     one grouped submission striped over every chip. RestoreWrite and
//     RestoreTrim are its one-element forms.
//   - RestoreImage is the resumable restorer: it streams the image in
//     LPN-ordered codec-framed chunks over its own recovery session,
//     applies each chunk as one RestoreBatch when it arrives — every
//     streamed page checked against its content hash on arrival — survives
//     mid-stream disconnects by redialing and resuming from its cursor, charges
//     transfer time to a shared-bandwidth recovery link model, and
//     reports a per-device RTO. Fleet power-cycle recovery and the
//     rollback paths in internal/recovery both drive it.

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/ftl"
	"repro/internal/nand"
	"repro/internal/nvmeoe"
	"repro/internal/oplog"
	"repro/internal/remote"
	"repro/internal/simclock"
)

// DialFunc produces a fresh authenticated session to the remote server.
// The offload engine uses it to redial after a session death; the
// restorer uses it to open (and resume) recovery sessions.
type DialFunc func() (*remote.Client, error)

// ErrNoDial reports a resumable restore attempted without a dial factory.
var ErrNoDial = errors.New("core: restore needs a dial factory (RestoreOptions.Dial or Config.Dial)")

// --- Power-cycle adoption -------------------------------------------------

// Reopen adopts an existing device image after a power cycle: it replays the
// remotely stored operation log over the newest checkpoint inside the chain
// to reconstruct the exact logical mapping (including trims, which OOB alone
// cannot express), re-pins the stale versions the server does not hold so
// conservative retention survives the reboot, and resumes the hash chain at
// the remote head so post-reboot segments splice on without a break.
//
// It fetches four things over the session: the chain head; the payload-free
// listing of every page version the server holds; the newest checkpoint the
// chain records below the head; and the log from floor to the head. A
// checkpoint is the device's own live-version table as it stood at cp.Seq,
// pushed the moment it is taken, while the KindCheckpoint entry that binds it
// rides the next segment. Reopen therefore reads the one entry at cp.Seq
// before it reads the table. A KindCheckpoint entry there makes the table the
// anchor if it has one entry per logical page and hashes to that entry's
// DataHash; if it does not, Reopen fails and adopts nothing. Any other entry
// there means the table's own entry died in RAM at an earlier power cut and
// the sequence was issued again since (one pushed ahead of the head this time
// is not even asked for): nothing binds that table, and the search steps back
// to the next older checkpoint, in the end to genesis, which trusts the log
// alone.
//
// floor is cp.Seq, pulled back to the write sequence of every committed flash
// page that was already stale at the checkpoint and that the server does not
// hold — the unacked tail, a version the server expired since: such a page is
// pinned again, and the operation that superseded it (what a point-in-time
// query needs to tell an overwrite from a trim gap) lies before the
// checkpoint. With nothing of the kind on flash — a drain before power-off,
// nothing expired since — the fetch is the tail after the checkpoint, however
// long the history before it; with no checkpoint floor is genesis.
//
// A stale flash page is released instead of pinned only when the server lists
// its (LPN, write sequence) with the content hash in that page's own OOB,
// stamped by the device when it wrote the page. That is the trust an ack
// carries — the listing arrives over the authenticated session from a store
// that ran VerifyPages before indexing the version — held against the one
// witness that did not cross the network. Everything else on flash that is
// stale and committed is pinned and shipped again.
//
// Durability model: state covered by offloaded log entries is recovered
// exactly. Flash pages whose OOB sequence is beyond the remote head belong
// to operations whose log entries died in device RAM; Reopen rolls them
// back (discards them), the same way a journaled filesystem drops an
// uncommitted tail. A clean shutdown (OffloadNow before power-off) makes
// the rollback window empty. The hardware RSSD persists its log pages to
// flash and would recover that tail too; modeling the rollback keeps the
// chain semantics honest without simulating log-page writes.
func Reopen(cfg Config, dev *nand.Device, client *remote.Client) (*RSSD, error) {
	if client == nil {
		return nil, ErrNoRemote
	}
	head, err := client.Head()
	if err != nil {
		return nil, fmt.Errorf("core: reopen: fetch head: %w", err)
	}
	listed, err := client.FetchHeld()
	if err != nil {
		return nil, fmt.Errorf("core: reopen: fetch held versions: %w", err)
	}
	// A write sequence names one log entry, so it keys the listing.
	heldAt := make(map[uint64]int, len(listed))
	for i := range listed {
		heldAt[listed[i].WriteSeq] = i
	}
	held := func(oob nand.OOB) bool {
		i, ok := heldAt[oob.Seq]
		return ok && listed[i].LPN == oob.LPN && listed[i].Hash == oob.Hash
	}

	pages, err := ftl.Scan(dev)
	if err != nil {
		return nil, fmt.Errorf("core: reopen: %w", err)
	}

	// Anchor on the newest checkpoint the chain records; without one the
	// replay starts from the empty table at genesis.
	cfg = cfg.normalize()
	n := cfg.FTL.LogicalPages()
	var cp nvmeoe.Checkpoint
	for before := head.NextSeq; before > 0; {
		c, ok, err := client.FetchCheckpoint(before - 1)
		if err != nil {
			return nil, fmt.Errorf("core: reopen: fetch checkpoint: %w", err)
		}
		if !ok {
			break
		}
		if c.Seq >= before {
			return nil, fmt.Errorf("core: reopen: asked for a checkpoint below %d, got %d", before, c.Seq)
		}
		ent, err := client.FetchEntries(c.Seq, c.Seq+1)
		if err != nil {
			return nil, fmt.Errorf("core: reopen: fetch entry %d: %w", c.Seq, err)
		}
		if len(ent) != 1 || ent[0].Seq != c.Seq {
			return nil, fmt.Errorf("core: reopen: fetch entry %d: got %d", c.Seq, len(ent))
		}
		if ent[0].Kind == oplog.KindCheckpoint {
			if uint64(len(c.WriteSeqs)) != n || ent[0].DataHash != checkpointHash(c.WriteSeqs) {
				return nil, fmt.Errorf("core: reopen: checkpoint %d of %d pages is not the table of %d the chain records at that entry", c.Seq, len(c.WriteSeqs), n)
			}
			cp = c
			break
		}
		before = c.Seq // an orphan: its sequence went to another entry
	}
	if cp.WriteSeqs == nil {
		cp.WriteSeqs = blankWriteSeqs(n)
	}
	floor := cp.Seq
	for _, p := range pages {
		if oob := p.OOB; oob.Seq < floor && !(oob.LPN < n && cp.WriteSeqs[oob.LPN] == oob.Seq) && !held(oob) {
			floor = oob.Seq
		}
	}

	// Replay [floor, head). live maps each LPN to the sequence of its
	// current write; staledBy records, per superseded write, the operation
	// that superseded it — the retention index reads it for the pages pinned
	// again. Below the checkpoint live is a scratch table that starts empty
	// at floor (every page that pulled floor back has its own write inside
	// the range); from cp.Seq on it is the checkpoint's table.
	type staleOp struct {
		seq   uint64
		cause ftl.StaleCause
	}
	staledBy := map[uint64]staleOp{}
	live := cp.WriteSeqs
	if floor < cp.Seq {
		live = blankWriteSeqs(n)
	}
	const batch = 4096
	for from := floor; from < head.NextSeq; from += batch {
		to := min(from+batch, head.NextSeq)
		entries, err := client.FetchEntries(from, to)
		if err != nil {
			return nil, fmt.Errorf("core: reopen: fetch entries [%d,%d): %w", from, to, err)
		}
		if uint64(len(entries)) != to-from {
			return nil, fmt.Errorf("core: reopen: fetch entries [%d,%d): got %d", from, to, len(entries))
		}
		for i := range entries {
			e := &entries[i]
			if e.Seq != from+uint64(i) {
				return nil, fmt.Errorf("core: reopen: fetch entries [%d,%d): entry %d where %d belongs", from, to, e.Seq, from+uint64(i))
			}
			if e.Seq == cp.Seq {
				live = cp.WriteSeqs
			}
			next, cause := e.Seq, ftl.CauseOverwrite
			switch e.Kind {
			case oplog.KindWrite, oplog.KindRecovery:
			case oplog.KindTrim, oplog.KindRecoveryTrim:
				next, cause = NoSeq, ftl.CauseTrim
			default:
				continue
			}
			if e.LPN >= n {
				return nil, fmt.Errorf("core: reopen: entry %d names lpn %d of %d", e.Seq, e.LPN, n)
			}
			if prev := live[e.LPN]; prev != NoSeq {
				staledBy[prev] = staleOp{e.Seq, cause}
			}
			live[e.LPN] = next
		}
	}

	// Build the device shell (the FTL wires itself to it via Retainer).
	r := &RSSD{
		cfg:           cfg,
		log:           oplog.ResumeFrom(head.NextSeq, head.Hash),
		client:        client,
		retained:      map[uint64]*retEntry{},
		retByLPN:      map[uint64][]*retEntry{},
		lpnWriteSeq:   live,
		offloadedUpTo: head.NextSeq,
		stagedUpTo:    head.NextSeq,
	}

	// Classify every programmed page from its OOB stamp + the replayed
	// history. A page pinned again enters the retention index with the
	// staleSeq and cause of the operation that superseded its write.
	classify := func(ppn uint64, oob nand.OOB) ftl.Disposition {
		if oob.Seq >= head.NextSeq {
			return ftl.DispDiscard // uncommitted tail: rolled back
		}
		if oob.LPN < n && live[oob.LPN] == oob.Seq {
			return ftl.DispLive
		}
		if held(oob) {
			r.stats.ReopenHeld++
			return ftl.DispDiscard // the server holds it: as good as acked
		}
		r.stats.ReopenRepinned++
		re := &retEntry{
			ppn:      ppn,
			lpn:      oob.LPN,
			writeSeq: oob.Seq,
			staleSeq: oob.Seq + 1,
			cause:    ftl.CauseOverwrite,
		}
		if op, ok := staledBy[oob.Seq]; ok {
			re.staleSeq, re.cause = op.seq, op.cause
		}
		r.retained[ppn] = re
		r.retByLPN[oob.LPN] = append(r.retByLPN[oob.LPN], re)
		r.retQueue = append(r.retQueue, re)
		return ftl.DispRetained
	}
	if r.f, err = ftl.Recover(cfg.FTL, dev, r, pages, classify); err != nil {
		return nil, fmt.Errorf("core: reopen: %w", err)
	}
	for _, vs := range r.retByLPN {
		sort.Slice(vs, func(i, j int) bool { return vs[i].writeSeq < vs[j].writeSeq })
	}
	sort.Slice(r.retQueue, func(i, j int) bool { return r.retQueue[i].staleSeq < r.retQueue[j].staleSeq })
	return r, nil
}

// --- Point-in-time queries ------------------------------------------------

// VersionInfo describes one retained version of a logical page, wherever
// it currently lives.
type VersionInfo struct {
	LPN      uint64
	WriteSeq uint64
	StaleSeq uint64 // NoSeq for the live version
	Cause    ftl.StaleCause
	Local    bool // true: still pinned on local flash
}

// RetainedVersions lists the locally retained versions of lpn in writeSeq
// order (oldest first). Remote versions are not included; query the remote
// store for those.
func (r *RSSD) RetainedVersions(lpn uint64) []VersionInfo {
	var out []VersionInfo
	for _, re := range r.retByLPN[lpn] {
		if re.released {
			continue
		}
		out = append(out, VersionInfo{
			LPN: re.lpn, WriteSeq: re.writeSeq, StaleSeq: re.staleSeq,
			Cause: re.cause, Local: true,
		})
	}
	return out
}

// WriteSeqOf returns the log sequence of the live version of lpn, or NoSeq
// if the page is unmapped.
func (r *RSSD) WriteSeqOf(lpn uint64) uint64 {
	if lpn >= uint64(len(r.lpnWriteSeq)) {
		return NoSeq
	}
	return r.lpnWriteSeq[lpn]
}

// candidate is one version of a page competing to be "the newest before a
// sequence": the live mapping, a local pin, or a remote record.
type candidate struct {
	writeSeq uint64
	staleSeq uint64 // NoSeq if live
	cause    ftl.StaleCause
	live     bool
	ppn      uint64 // local location when rec is nil
	rec      *oplog.PageRecord
}

// localBest returns the newest local version of lpn written strictly
// before the given sequence: the live mapping if it qualifies, else the
// newest qualifying pin. nil when no local version qualifies.
func (r *RSSD) localBest(lpn, before uint64) *candidate {
	var best *candidate
	if ws := r.lpnWriteSeq[lpn]; ws != NoSeq && ws < before {
		best = &candidate{writeSeq: ws, staleSeq: NoSeq, live: true, ppn: r.f.Lookup(lpn)}
	}
	vs := r.retByLPN[lpn]
	for i := len(vs) - 1; i >= 0; i-- {
		re := vs[i]
		if re.released || re.writeSeq == NoSeq || re.writeSeq >= before {
			continue
		}
		if best == nil || re.writeSeq > best.writeSeq {
			best = &candidate{writeSeq: re.writeSeq, staleSeq: re.staleSeq, cause: re.cause, ppn: re.ppn}
		}
		break // list is sorted; the first qualifying from the end is the newest
	}
	return best
}

// merge folds a remote record into the best-so-far candidate.
func merge(best *candidate, rec *oplog.PageRecord) *candidate {
	if rec == nil || (best != nil && rec.WriteSeq <= best.writeSeq) {
		return best
	}
	return &candidate{
		writeSeq: rec.WriteSeq, staleSeq: rec.StaleSeq,
		cause: ftl.StaleCause(rec.Cause), rec: rec,
	}
}

// trimGap reports whether the winning candidate means the page read as
// zeroes at the cut: it was already trimmed-stale before it. (An
// overwrite-staled best implies a newer version exists and would have
// been chosen; if it was dropped in offline mode, the older data is the
// best surviving restore.)
func trimGap(best *candidate, before uint64) bool {
	return best.staleSeq != NoSeq && best.staleSeq < before && best.cause == ftl.CauseTrim
}

// ReadVersionBefore returns the contents lpn held just before log sequence
// `before`. See VersionBefore for the full contract.
func (r *RSSD) ReadVersionBefore(lpn, before uint64, at simclock.Time) ([]byte, bool, error) {
	data, _, ok, err := r.VersionBefore(lpn, before, at)
	return data, ok, err
}

// VersionBefore returns the contents lpn held just before log sequence
// `before`: the newest version written with seq < before that was still
// live at that point. It consults, in order of preference, the live
// mapping, locally retained pins, and the remote store. A page that was
// trimmed before `before` (and not rewritten) reads as zeroes, matching
// what the host would have observed.
//
// writeSeq is the log sequence of the write that produced the returned
// data, or NoSeq when the result is the zero page (never written, or a
// trim gap); recovery uses it to verify restored content against the
// log's recorded hash.
func (r *RSSD) VersionBefore(lpn, before uint64, at simclock.Time) (data []byte, writeSeq uint64, ok bool, err error) {
	if lpn >= r.f.LogicalPages() {
		return nil, NoSeq, false, ftl.ErrOutOfRange
	}
	best := r.localBest(lpn, before)
	if r.client != nil {
		rec, ok, err := r.client.FetchVersion(lpn, before)
		if err != nil {
			return nil, NoSeq, false, fmt.Errorf("core: fetch version lpn %d: %w", lpn, err)
		}
		if ok {
			best = merge(best, &rec)
		}
	}
	if best == nil {
		// Never written before `before`: logical zeroes.
		return make([]byte, r.f.PageSize()), NoSeq, false, nil
	}
	if trimGap(best, before) {
		return make([]byte, r.f.PageSize()), NoSeq, true, nil
	}
	if best.rec != nil {
		return append([]byte(nil), best.rec.Data...), best.writeSeq, true, nil
	}
	data, _, _, err = r.f.ReadPhysical(best.ppn, at)
	if err != nil {
		return nil, NoSeq, false, fmt.Errorf("core: read version ppn %d: %w", best.ppn, err)
	}
	return data, best.writeSeq, true, nil
}

// ImageBefore reconstructs the full logical image as it stood just before
// log sequence `before`. The result has one entry per logical page: nil
// means the page read as zeroes at that point (never written, or inside a
// trim gap). Remote versions arrive through the chunked image stream —
// codec-framed on the wire like every other fetch — so rebuilding a whole
// device costs a stream of right-sized chunks rather than one monolithic
// reply. This is the disaster-recovery query ("rebuild onto a fresh
// device"); RestoreImage is the in-place rollback built on the same
// stream.
func (r *RSSD) ImageBefore(before uint64, at simclock.Time) ([][]byte, error) {
	n := r.f.LogicalPages()
	best := make([]*candidate, n)
	for lpn := uint64(0); lpn < n; lpn++ {
		best[lpn] = r.localBest(lpn, before)
	}
	if r.client != nil {
		_, err := r.client.FetchImageStream(0, before, 0, 0, nil,
			func(pages []oplog.PageRecord, cs remote.ChunkStats) error {
				r.stats.RestoreBytesWire += uint64(cs.WireBytes)
				r.stats.RestoreBytesLogical += uint64(cs.LogicalBytes)
				for _, rec := range pages { // the slice is the stream's scratch: keep copies
					if rec.LPN < n {
						best[rec.LPN] = merge(best[rec.LPN], &rec)
					}
				}
				return nil
			})
		if err != nil {
			return nil, fmt.Errorf("core: fetch image: %w", err)
		}
	}
	img := make([][]byte, n)
	for lpn := uint64(0); lpn < n; lpn++ {
		b := best[lpn]
		if b == nil || trimGap(b, before) {
			continue // zeroes
		}
		if b.rec != nil {
			img[lpn] = append([]byte(nil), b.rec.Data...)
			continue
		}
		data, _, _, err := r.f.ReadPhysical(b.ppn, at)
		if err != nil {
			return nil, fmt.Errorf("core: image read lpn %d (ppn %d): %w", lpn, b.ppn, err)
		}
		img[lpn] = data
	}
	return img, nil
}

// --- Logged restore primitives --------------------------------------------

// RestoreOp is one logged recovery action: roll LPN back to Data, whose
// content hash is Hash, or — Data nil — to the unmapped (zero) state, for a
// page whose pre-attack state was "never written" or "trimmed by the
// legitimate owner".
type RestoreOp struct {
	LPN  uint64
	Data []byte
	Hash [oplog.HashSize]byte
}

// RestoreBatch applies ops in order, logging each as a recovery action so the
// evidence chain distinguishes restoration from host activity. A run of
// writes with ascending LPNs is one submission: one batch of KindRecovery
// entries carrying the given hashes (logged and stamped, never recomputed),
// one grouped FTL write on the recovery front issued at the time the run
// starts, one round of background duties when it completes. A zeroing (or an
// LPN not above its predecessor, whose entry must name the page the run
// before it wrote) ends the run before it: entries stay in the order given.
// The batch is validated up front; a device-level failure aborts it with the
// earlier runs applied.
func (r *RSSD) RestoreBatch(ops []RestoreOp, at simclock.Time) (simclock.Time, error) {
	for i := range ops {
		if ops[i].Data != nil && len(ops[i].Data) != r.f.PageSize() {
			return at, ftl.ErrBadPageSize
		}
		if ops[i].LPN >= r.f.LogicalPages() {
			return at, ftl.ErrOutOfRange
		}
	}
	for start := 0; start < len(ops); {
		var err error
		if ops[start].Data == nil {
			if at, err = r.restoreTrim(ops[start].LPN, at); err != nil {
				return at, err
			}
			start++
			continue
		}
		end := start + 1
		for end < len(ops) && ops[end].Data != nil && ops[end].LPN > ops[end-1].LPN {
			end++
		}
		if at, err = r.restoreWrites(ops[start:end], at); err != nil {
			return at, err
		}
		start = end
	}
	return at, nil
}

// restoreWrites submits one run of RestoreBatch: distinct LPNs, all writes.
func (r *RSSD) restoreWrites(run []RestoreOp, at simclock.Time) (simclock.Time, error) {
	s := &r.scratch
	s.lpns = s.lpns[:0]
	for i := range run {
		s.lpns = append(s.lpns, run[i].LPN)
	}
	s.oldPPNs = r.f.LookupBatch(s.oldPPNs[:0], s.lpns)
	s.recs = s.recs[:0]
	for i := range run {
		s.recs = append(s.recs, oplog.Rec{
			Kind: oplog.KindRecovery, At: at, LPN: run[i].LPN,
			OldPPN: s.oldPPNs[i], NewPPN: ftl.NoPPN, DataHash: run[i].Hash,
		})
	}
	first := r.log.AppendBatch(s.recs)
	s.writes = s.writes[:0]
	for i := range run {
		s.writes = append(s.writes, ftl.BatchWrite{LPN: run[i].LPN, Data: run[i].Data, Seq: first + uint64(i), Hash: run[i].Hash})
	}
	var done simclock.Time
	var err error
	s.times, done, err = r.f.WriteRecoveryBatch(s.times[:0], s.writes, at)
	clear(s.writes) // the payloads are the restorer's
	if err != nil {
		return done, err
	}
	for i := range run {
		r.lpnWriteSeq[run[i].LPN] = first + uint64(i)
	}
	return r.afterOps(len(run), done)
}

// restoreTrim logs and applies one zeroing of RestoreBatch.
func (r *RSSD) restoreTrim(lpn uint64, at simclock.Time) (simclock.Time, error) {
	oldPPN := r.f.Lookup(lpn)
	e := r.log.Append(oplog.KindRecoveryTrim, at, lpn, oldPPN, ftl.NoPPN, 0, [oplog.HashSize]byte{})
	r.curStaleSeq, r.curStaleAt = e.Seq, at
	done, err := r.f.Trim(lpn, at)
	if err != nil {
		return done, err
	}
	r.lpnWriteSeq[lpn] = NoSeq
	return r.afterOp(done)
}

// RestoreWrite rewrites lpn with recovered data: a one-element RestoreBatch.
func (r *RSSD) RestoreWrite(lpn uint64, data []byte, at simclock.Time) (simclock.Time, error) {
	if len(data) != r.f.PageSize() {
		return at, ftl.ErrBadPageSize
	}
	return r.RestoreBatch([]RestoreOp{{LPN: lpn, Data: data, Hash: oplog.HashData(data)}}, at)
}

// RestoreTrim restores lpn to the unmapped (zero) state: a one-element
// RestoreBatch.
func (r *RSSD) RestoreTrim(lpn uint64, at simclock.Time) (simclock.Time, error) {
	return r.RestoreBatch([]RestoreOp{{LPN: lpn}}, at)
}

// --- The resumable restorer -----------------------------------------------

// RestoreOptions tunes a resumable image restore.
type RestoreOptions struct {
	// Dial opens recovery sessions; nil falls back to Config.Dial. The
	// restorer owns its sessions: restore streams never interleave with
	// the offload engine's pushes, so restore-churn offload proceeds while
	// the image is still streaming in.
	Dial DialFunc
	// Link is the shared-bandwidth recovery link model; chunk transfer
	// time is charged through it. nil prices transfers at zero.
	Link *remote.RecoveryLink
	// ChunkPages bounds pages per streamed chunk (0: server default).
	ChunkPages int
	// BackoffBase / BackoffMax bound the resume backoff after a mid-stream
	// disconnect (defaults: the config's redial backoff knobs).
	BackoffBase simclock.Duration
	BackoffMax  simclock.Duration
	// MaxResumes bounds how many stream interruptions the restorer rides
	// out before giving up (default 8).
	MaxResumes int
	// Dedup requests hash-reference chunks: each unique page content
	// crosses the wire once per restore as a verified literal; repeats
	// arrive as 32-byte references resolved from a device-side cache that
	// survives resumes.
	Dedup bool
	// Delta requests a checkpoint-anchored delta: the restorer anchors on
	// the newest checkpoint at or before the cut and the server streams
	// only LPNs touched since — everything else is reconstructed from the
	// device's own surviving state, exactly as the local-only fallback
	// already does for LPNs without remote history.
	Delta bool
}

// RestoreReport summarizes one resumable restore.
type RestoreReport struct {
	PagesRestored int // rolled back by a logged recovery write
	PagesZeroed   int // rolled back to unmapped (trim gap / never written)
	PagesKept     int // live state already matched the target
	Chunks        int
	Resumes       int // mid-stream disconnects survived
	BytesWire     uint64
	BytesLogical  uint64
	// PagesLiteral / PagesRef split streamed pages by wire form: full
	// payloads vs hash references resolved from the dedup cache. Anchor
	// is the checkpoint sequence a delta restore diffed against (0: full
	// image).
	PagesLiteral int
	PagesRef     int
	Anchor       uint64
	RTO          simclock.Duration // simulated start-to-done restore span
}

func (rep RestoreReport) String() string {
	return fmt.Sprintf("restore: %d rolled back, %d zeroed, %d kept in %d chunks (%d resumes), %d wire / %d logical bytes, %d literal + %d ref pages (anchor %d), RTO %v",
		rep.PagesRestored, rep.PagesZeroed, rep.PagesKept, rep.Chunks, rep.Resumes,
		rep.BytesWire, rep.BytesLogical, rep.PagesLiteral, rep.PagesRef, rep.Anchor, rep.RTO)
}

// restoreApplyError marks a device-side failure inside the stream callback
// so the resume loop can tell it from a transport failure: redialing does
// not fix a flash write error.
type restoreApplyError struct{ err error }

func (e *restoreApplyError) Error() string { return e.err.Error() }
func (e *restoreApplyError) Unwrap() error { return e.err }

// RestoreImage rolls the whole device back to its state just before log
// sequence `before`, in place. Remote history streams in LPN-ordered
// codec-framed chunks over a dedicated recovery session and pages are
// applied incrementally as each chunk lands — there is never a
// whole-image buffer, and a restore interrupted at chunk k resumes at its
// cursor instead of restarting. Every applied page is a logged recovery
// action, so rollback remains evidence-chain honest, and pages whose live
// content already matches the target are left untouched (a clean page
// costs no flash write). Reopen + RestoreImage is the fleet power-cycle
// recovery path; the forensic rollback in internal/recovery reuses the
// same restorer.
func (r *RSSD) RestoreImage(before uint64, opts RestoreOptions, at simclock.Time) (simclock.Time, RestoreReport, error) {
	var rep RestoreReport
	dial := opts.Dial
	if dial == nil {
		dial = r.cfg.Dial
	}
	if dial == nil {
		return at, rep, ErrNoDial
	}
	if opts.MaxResumes <= 0 {
		opts.MaxResumes = 8
	}
	if opts.BackoffBase <= 0 {
		opts.BackoffBase = r.cfg.RedialBackoff
	}
	if opts.BackoffMax < opts.BackoffBase {
		opts.BackoffMax = r.cfg.RedialBackoffMax
	}
	if opts.BackoffMax < opts.BackoffBase {
		opts.BackoffMax = opts.BackoffBase
	}
	if opts.Link != nil {
		release := opts.Link.Open()
		defer release()
	}

	start := at
	n := r.f.LogicalPages()
	cursor := uint64(0) // next LPN not yet rolled back

	// The resolve cache outlives resumes: literals cached before a cut
	// stay resolvable after it (a fresh stream session re-literals what it
	// references anyway, so the cache only dedups copies).
	var cache *remote.ResolveCache
	if opts.Dedup {
		cache = remote.NewResolveCache()
	}
	anchor := uint64(0)
	anchorKnown := !opts.Delta

	// Each chunk — and the local-only tail — is decided page by page, then
	// submitted as one RestoreBatch before the callback returns: nothing is
	// pending between chunks, so a cut resumes at the cursor.
	rb := rollback{r: r, before: before, rep: &rep}
	applyChunk := func(pages []oplog.PageRecord, cs remote.ChunkStats) error {
		if opts.Link != nil {
			at = at.Add(opts.Link.ChunkTimeAt(cs.WireBytes, at))
		}
		rep.Chunks++
		rep.BytesWire += uint64(cs.WireBytes)
		rep.BytesLogical += uint64(cs.LogicalBytes)
		rep.PagesLiteral += cs.Literals
		rep.PagesRef += cs.Refs
		r.stats.RestoreBytesWire += uint64(cs.WireBytes)
		r.stats.RestoreBytesLogical += uint64(cs.LogicalBytes)
		r.stats.RestorePagesLiteral += uint64(cs.Literals)
		r.stats.RestorePagesDelta += uint64(cs.Refs)
		for i := range pages {
			rec := &pages[i]
			if rec.LPN < cursor || rec.LPN >= n {
				continue
			}
			// LPNs between the cursor and this record have no remote
			// version: roll them back from local state alone.
			if err := rb.span(cursor, rec.LPN, at); err != nil {
				return &restoreApplyError{err}
			}
			if err := rb.page(rec.LPN, rec, at); err != nil {
				return &restoreApplyError{err}
			}
			cursor = rec.LPN + 1
		}
		var err error
		if at, err = rb.submit(at); err != nil {
			return &restoreApplyError{err}
		}
		return nil
	}

	client, err := dial()
	backoff := opts.BackoffBase
	for attempts := 0; ; {
		if err == nil && !anchorKnown {
			// Resolve the delta anchor once: the newest verified
			// checkpoint at or before the cut. No checkpoint means no
			// anchor — the stream degrades to the full image. A failed
			// lookup is a transport error and retries like a failed dial.
			cp, ok, cperr := client.FetchCheckpoint(before)
			if cperr != nil {
				err = cperr
				client.Close()
			} else {
				if ok {
					anchor = cp.Seq
					rep.Anchor = anchor
				}
				anchorKnown = true
			}
		}
		if err == nil {
			_, err = client.FetchImageStream(cursor, before, anchor, opts.ChunkPages, cache, applyChunk)
			if err == nil {
				client.Close()
				break
			}
			client.Close()
			var apply *restoreApplyError
			if errors.As(err, &apply) {
				return at, rep, fmt.Errorf("core: restore: %w", apply.err)
			}
			// A stream was interrupted mid-flight: that, and only that,
			// is a resume — the next stream picks up at the cursor, it
			// does not start over. A failed dial retries below without
			// claiming a resume (no stream ever opened).
			rep.Resumes++
		}
		attempts++
		if attempts > opts.MaxResumes {
			return at, rep, fmt.Errorf("core: restore: gave up after %d attempts: %w", opts.MaxResumes, err)
		}
		at = at.Add(backoff)
		if backoff *= 2; backoff > opts.BackoffMax {
			backoff = opts.BackoffMax
		}
		client, err = dial()
	}
	// The stream covered every LPN with remote history; finish the tail
	// from local state.
	serr := rb.span(cursor, n, at)
	if serr == nil {
		at, serr = rb.submit(at)
	}
	if serr != nil {
		return at, rep, fmt.Errorf("core: restore: %w", serr)
	}
	rep.RTO = at.Sub(start)
	return at, rep, nil
}

// rollback collects the recovery actions of one chunk of a rollback to the
// cut `before`, in LPN order, until submit applies them as one RestoreBatch.
type rollback struct {
	r      *RSSD
	before uint64
	rep    *RestoreReport
	ops    []RestoreOp
}

// span decides every LPN in [from, to) from local candidates only (the
// stream had no remote version for them).
func (rb *rollback) span(from, to uint64, at simclock.Time) error {
	for lpn := from; lpn < to; lpn++ {
		if err := rb.page(lpn, nil, at); err != nil {
			return err
		}
	}
	return nil
}

// page decides how lpn rolls back to its newest version before the cut,
// considering the live mapping, local pins, and the streamed remote record
// (nil when the remote has none for this LPN), whose Data the stream has
// already checked against its Hash and keeps valid until submit.
func (rb *rollback) page(lpn uint64, rec *oplog.PageRecord, at simclock.Time) error {
	r := rb.r
	best := merge(r.localBest(lpn, rb.before), rec)
	switch {
	case best == nil || trimGap(best, rb.before):
		// Target state is zeroes: trim only if the page currently maps.
		if r.lpnWriteSeq[lpn] == NoSeq {
			rb.rep.PagesKept++
		} else {
			rb.ops = append(rb.ops, RestoreOp{LPN: lpn})
		}
	case best.live:
		// The live version is already the newest-before-cut: no churn.
		rb.rep.PagesKept++
	// One SHA-256 pass per restored page, and none it cannot be held
	// against: a streamed record keeps the hash it was verified against on
	// arrival, a local pin is hashed once and must match what its OOB has
	// carried since the write.
	case best.rec != nil:
		rb.ops = append(rb.ops, RestoreOp{LPN: lpn, Data: best.rec.Data, Hash: best.rec.Hash})
	default:
		data, oob, _, err := r.f.ReadPhysical(best.ppn, at)
		if err != nil {
			return fmt.Errorf("read pin for lpn %d (ppn %d): %w", lpn, best.ppn, err)
		}
		hash := oplog.HashData(data)
		if hash != oob.Hash {
			return fmt.Errorf("pin for lpn %d (ppn %d, write seq %d) fails its write-time content hash", lpn, best.ppn, oob.Seq)
		}
		rb.ops = append(rb.ops, RestoreOp{LPN: lpn, Data: data, Hash: hash})
	}
	return nil
}

// submit applies what the chunk decided and counts it.
func (rb *rollback) submit(at simclock.Time) (simclock.Time, error) {
	at, err := rb.r.RestoreBatch(rb.ops, at)
	if err != nil {
		return at, fmt.Errorf("restore lpns %d..%d: %w", rb.ops[0].LPN, rb.ops[len(rb.ops)-1].LPN, err)
	}
	for i := range rb.ops {
		if rb.ops[i].Data == nil {
			rb.rep.PagesZeroed++
		} else {
			rb.rep.PagesRestored++
		}
	}
	clear(rb.ops) // drop the chunk's page references
	rb.ops = rb.ops[:0]
	return at, nil
}
