package core

// This file is the recovery subsystem: everything that reconstructs device
// state from the retained history — local pins, the operation log, and the
// remote store — lives here.
//
//   - Reopen adopts an existing flash array after a power cycle: it replays
//     the remote log from the newest checkpoint inside the chain (further
//     back only as far as a page on flash still needs an answer) and splices
//     the post-reboot log onto the remote chain head.
//   - decide is the one answer to "what did this page hold before sequence
//     s?": the newest of the live mapping, the local pins and the remote
//     store's record if nothing superseded it before s, else zeroes.
//     VersionBefore asks it for one page over a one-LPN image stream.
//   - RestoreImage is the one way recovered bytes enter the device: it
//     streams the image before the cut — of every LPN, or of the ascending
//     LPNs RestoreOptions.LPNs names — in LPN-ordered codec-framed chunks
//     over its own recovery session, decides each page as it arrives, and
//     applies each chunk as one restoreBatch, the logged primitive whose
//     KindRecovery entries stamp the evidence chain and whose writes reach
//     flash as one grouped submission striped over every chip. Every page it
//     writes was checked against a content hash: a streamed literal on
//     arrival, a pin against its OOB. It survives mid-stream disconnects by
//     redialing and resuming from its cursor, holds the pins its cursor has
//     not reached, charges transfer time to a shared-bandwidth recovery link
//     model, and reports a per-device RTO. Power-cycle recovery and forensic
//     window restores (internal/recovery) are the same call.

import (
	"errors"
	"fmt"
	"slices"
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
// chain records below the head; and the log from floor to the head, one
// request answered by a stream of frames that the client derives on every
// core (remote.Client.AppendEntries) and Reopen replays in one pass. A
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
// query needs to tell whether the version was still current at its cut) lies
// before the checkpoint. With nothing of the kind on flash — a drain before power-off,
// nothing expired since — the fetch is the tail after the checkpoint, however
// long the history before it; with no checkpoint floor is genesis.
//
// A stale flash page is released instead of pinned only when the server lists
// its (LPN, write sequence) with the content hash in that page's own OOB,
// stamped by the device when it wrote the page. That is the trust an ack
// carries — the listing arrives over the authenticated session from a store
// that held each page to its hash before indexing the version — held against
// the one witness that did not cross the network. Everything else on flash
// that is stale and committed is pinned and shipped again.
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
	entries, err := client.FetchEntries(floor, head.NextSeq)
	if err != nil {
		return nil, fmt.Errorf("core: reopen: fetch entries [%d,%d): %w", floor, head.NextSeq, err)
	}
	if uint64(len(entries)) != head.NextSeq-floor {
		return nil, fmt.Errorf("core: reopen: fetch entries [%d,%d): got %d", floor, head.NextSeq, len(entries))
	}
	for i := range entries {
		e := &entries[i]
		if e.Seq != floor+uint64(i) {
			return nil, fmt.Errorf("core: reopen: fetch entries [%d,%d): entry %d where %d belongs", floor, head.NextSeq, e.Seq, floor+uint64(i))
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

// version is what a page held just before a cut, as decide finds it.
type version struct {
	writeSeq uint64 // the write that put the bytes there; NoSeq: zeroes
	live     bool   // the live mapping holds it
	data     []byte // a pin's or a streamed record's bytes; nil when live or zeroes
	hash     [oplog.HashSize]byte
}

// decide is the one answer to "what did lpn hold just before the cut
// `before`?". Of the live mapping, the local pins and rec — the remote
// store's newest version before the cut, nil when it holds none — the newest
// written before the cut is the page's content at the cut only if nothing
// superseded it before the cut; otherwise the page reads as zeroes. Whatever
// superseded it did not survive, or it would have won: a trim, whose answer
// is zeroes, or an overwrite expired since, whose bytes no candidate holds. A
// streamed record was checked against its hash on arrival; a pin is read,
// hashed once and used only if it matches the write-time hash its OOB has
// carried since the write.
func (r *RSSD) decide(lpn, before uint64, rec *oplog.PageRecord, at simclock.Time) (version, error) {
	ws, staleSeq := NoSeq, NoSeq
	live := r.lpnWriteSeq[lpn] != NoSeq && r.lpnWriteSeq[lpn] < before
	if live {
		ws = r.lpnWriteSeq[lpn]
	}
	var pin *retEntry
	vs := r.retByLPN[lpn]
	for i := len(vs) - 1; i >= 0; i-- { // writeSeq order: the first that qualifies is the newest
		if re := vs[i]; !re.released && re.writeSeq != NoSeq && re.writeSeq < before {
			if ws == NoSeq || re.writeSeq > ws {
				pin, live, ws, staleSeq = re, false, re.writeSeq, re.staleSeq
			}
			break
		}
	}
	if rec != nil && (ws == NoSeq || rec.WriteSeq > ws) {
		pin, live, ws, staleSeq = nil, false, rec.WriteSeq, rec.StaleSeq
	} else {
		rec = nil
	}
	switch {
	case ws == NoSeq, staleSeq < before: // a live version's NoSeq is never below the cut
		return version{writeSeq: NoSeq}, nil
	case live:
		return version{writeSeq: ws, live: true}, nil
	case rec != nil:
		return version{writeSeq: ws, data: rec.Data, hash: rec.Hash}, nil
	}
	data, oob, _, err := r.f.ReadPhysical(pin.ppn, at)
	if err != nil {
		return version{}, fmt.Errorf("read pin for lpn %d (ppn %d): %w", lpn, pin.ppn, err)
	}
	v := version{writeSeq: ws, data: data, hash: oplog.HashData(data)}
	if v.hash != oob.Hash {
		return version{}, fmt.Errorf("pin for lpn %d (ppn %d, write seq %d) fails its write-time content hash", lpn, pin.ppn, oob.Seq)
	}
	return v, nil
}

// VersionBefore returns the contents lpn held just before log sequence
// `before`, as decide finds them; the remote store's part arrives as a
// one-LPN image stream over the device's session. A page trimmed before
// `before` (and not rewritten) reads as zeroes, matching what the host would
// have observed.
//
// writeSeq is the log sequence of the write that produced the returned data,
// or NoSeq for zeroes.
func (r *RSSD) VersionBefore(lpn, before uint64, at simclock.Time) (data []byte, writeSeq uint64, err error) {
	if lpn >= r.f.LogicalPages() {
		return nil, NoSeq, ftl.ErrOutOfRange
	}
	var rec *oplog.PageRecord
	if r.client != nil {
		_, err := r.client.FetchImageStream(lpn, lpn+1, before, 0, 1, nil, func(pages []oplog.PageRecord, _ remote.ChunkStats) error {
			for _, p := range pages { // the slice is the stream's scratch
				rec = &p
			}
			return nil
		})
		if err != nil {
			return nil, NoSeq, fmt.Errorf("core: fetch version lpn %d: %w", lpn, err)
		}
	}
	v, err := r.decide(lpn, before, rec, at)
	switch {
	case err != nil:
		return nil, NoSeq, fmt.Errorf("core: version of lpn %d: %w", lpn, err)
	case v.live:
		if data, _, _, err = r.f.ReadPhysical(r.f.Lookup(lpn), at); err != nil {
			return nil, NoSeq, fmt.Errorf("core: read lpn %d: %w", lpn, err)
		}
	case v.data != nil:
		data = v.data
	default:
		data = make([]byte, r.f.PageSize())
	}
	return data, v.writeSeq, nil
}

// --- The logged restore primitive -----------------------------------------

// restoreOp is one logged recovery action: roll LPN back to Data, whose
// content hash is Hash, or — Data nil — to the unmapped (zero) state, for a
// page whose pre-attack state was "never written" or "trimmed by the
// legitimate owner".
type restoreOp struct {
	LPN  uint64
	Data []byte
	Hash [oplog.HashSize]byte
}

// restoreBatch applies ops in order, logging each as a recovery action so the
// evidence chain distinguishes restoration from host activity. A run of
// writes with ascending LPNs is one submission: one batch of KindRecovery
// entries carrying the given hashes (logged and stamped, never recomputed),
// one grouped FTL write on the recovery front issued at the time the run
// starts, one round of background duties when it completes. A zeroing (or an
// LPN not above its predecessor, whose entry must name the page the run
// before it wrote) ends the run before it: entries stay in the order given.
// The batch is validated up front; a device-level failure aborts it with the
// earlier runs applied. Only the restorer calls it, with bytes decide chose.
func (r *RSSD) restoreBatch(ops []restoreOp, at simclock.Time) (simclock.Time, error) {
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

// restoreWrites submits one run of restoreBatch: distinct LPNs, all writes.
func (r *RSSD) restoreWrites(run []restoreOp, at simclock.Time) (simclock.Time, error) {
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

// restoreTrim logs and applies one zeroing of restoreBatch.
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

// --- The resumable restorer -----------------------------------------------

// RestoreOptions tunes a resumable image restore.
type RestoreOptions struct {
	// LPNs is the restore's scope: the strictly ascending logical pages to
	// roll back (a forensic window's victims), every other page left as it
	// is. nil rolls back every LPN; an empty list, none.
	LPNs []uint64
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
	PagesZeroed   int // rolled back to unmapped (trim gap / never written / version at the cut gone)
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

// RestoreImage rolls the device — every LPN, or the ones opts.LPNs names —
// back to its state just before log sequence `before`, in place. Remote
// history streams in LPN-ordered codec-framed chunks over a dedicated
// recovery session, bounded to the scope's LPN range, and pages are decided
// and applied as each chunk lands — there is never a whole-image buffer, and
// a restore interrupted at chunk k resumes at its cursor instead of
// restarting. Every applied page is a logged recovery action, so rollback
// remains evidence-chain honest, and pages whose live content already matches
// the target are left untouched (a clean page costs no flash write).
//
// While it runs, the restore's own churn may ship a pin whose LPN the cursor
// has not reached, after the stream has passed that LPN: releaseSegment holds
// such a pin, acked, until the cursor passes it, so no LPN is left without
// its candidate. Reopen + RestoreImage is power-cycle recovery; a forensic
// window restore is the same call scoped to the victims.
func (r *RSSD) RestoreImage(before uint64, opts RestoreOptions, at simclock.Time) (simclock.Time, RestoreReport, error) {
	var rep RestoreReport
	dial := opts.Dial
	if dial == nil {
		dial = r.cfg.Dial
	}
	if dial == nil {
		return at, rep, ErrNoDial
	}
	n := r.f.LogicalPages()
	rb := &rollback{r: r, before: before, lpns: opts.LPNs, rep: &rep}
	end := n // one past the scope's last LPN: the stream's bound
	if rb.lpns != nil {
		for i, lpn := range rb.lpns {
			if lpn >= n {
				return at, rep, ftl.ErrOutOfRange
			}
			if i > 0 && lpn <= rb.lpns[i-1] {
				return at, rep, fmt.Errorf("core: restore: LPNs must ascend: %d follows %d", lpn, rb.lpns[i-1])
			}
		}
		if len(rb.lpns) == 0 {
			return at, rep, nil
		}
		rb.cursor, end = rb.lpns[0], rb.lpns[len(rb.lpns)-1]+1
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

	r.rolling = rb
	defer func() {
		r.rolling = nil
		rb.release(NoSeq) // the restore is over, however it ended
	}()

	start := at
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
	// submitted as one restoreBatch before the callback returns: nothing is
	// pending between chunks, so a cut resumes at the cursor.
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
			if rec.LPN < rb.cursor || rec.LPN >= end {
				continue
			}
			// LPNs between the cursor and this record have no remote
			// version: roll them back from local state alone.
			if err := rb.span(rec.LPN, at); err != nil {
				return &restoreApplyError{err}
			}
			if err := rb.page(rec.LPN, rec, at); err != nil {
				return &restoreApplyError{err}
			}
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
			_, err = client.FetchImageStream(rb.cursor, end, before, anchor, opts.ChunkPages, cache, applyChunk)
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
	serr := rb.span(end, at)
	if serr == nil {
		at, serr = rb.submit(at)
	}
	if serr != nil {
		return at, rep, fmt.Errorf("core: restore: %w", serr)
	}
	rep.RTO = at.Sub(start)
	return at, rep, nil
}

// rollback is one restore in flight to the cut `before`: it decides the LPNs
// of its scope in order, collecting a chunk's recovery actions until submit
// applies them as one restoreBatch, and holds the acked pins its cursor has
// not passed.
type rollback struct {
	r      *RSSD
	before uint64
	lpns   []uint64 // the scope, strictly ascending; nil: every LPN
	cursor uint64   // the next LPN not yet decided
	rep    *RestoreReport
	ops    []restoreOp
	held   []*retEntry // acked at or past the cursor: still pinned
}

// span decides every LPN of the scope from the cursor up to `to` from local
// candidates only (the stream had no remote version for them).
func (rb *rollback) span(to uint64, at simclock.Time) error {
	for rb.cursor < to {
		if err := rb.page(rb.cursor, nil, at); err != nil {
			return err
		}
	}
	return nil
}

// page moves the cursor past lpn and, if lpn is in scope, decides how it
// rolls back, with rec the streamed remote record (nil when the remote has
// none for this LPN), whose Data stays valid until submit.
func (rb *rollback) page(lpn uint64, rec *oplog.PageRecord, at simclock.Time) error {
	rb.cursor = lpn + 1
	if rb.lpns != nil {
		if _, in := slices.BinarySearch(rb.lpns, lpn); !in {
			return nil
		}
	}
	v, err := rb.r.decide(lpn, rb.before, rec, at)
	switch {
	case err != nil:
		return err
	case v.live, v.data == nil && rb.r.lpnWriteSeq[lpn] == NoSeq:
		// Already what the cut holds (zeroes on an unmapped page): no churn.
		rb.rep.PagesKept++
	default:
		rb.ops = append(rb.ops, restoreOp{LPN: lpn, Data: v.data, Hash: v.hash})
	}
	return nil
}

// release unpins the held pins whose LPN lies below `below`: the cursor has
// passed them.
func (rb *rollback) release(below uint64) {
	kept := rb.held[:0]
	for _, re := range rb.held {
		if re.lpn < below {
			rb.r.unpin(re)
		} else {
			kept = append(kept, re)
		}
	}
	clear(rb.held[len(kept):])
	rb.held = kept
}

// submit releases the held pins the chunk passed, then applies what it
// decided and counts it.
func (rb *rollback) submit(at simclock.Time) (simclock.Time, error) {
	rb.release(rb.cursor)
	at, err := rb.r.restoreBatch(rb.ops, at)
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
