package core

import (
	"fmt"

	"repro/internal/nvmeoe"
	"repro/internal/oplog"
	"repro/internal/simclock"
)

// maxEntriesPerSegment bounds the log entries shipped in one segment so a
// single frame stays well under the transport limit.
const maxEntriesPerSegment = 4096

// maybeOffload runs the offload stage of the background duty cycle. In the
// default asynchronous mode it harvests due acks, then — when locally
// retained pages exceed the high watermark of the retention budget —
// stages sealed segments into the engine's bounded queue until the
// unstaged backlog drops to the low watermark; the network transfer
// proceeds off the host path. In SyncOffload mode (the baseline the fleet
// experiment compares against) the drain is inline and its full simulated
// cost — flash reads plus transfer — is charged to the returned host time.
func (r *RSSD) maybeOffload(at simclock.Time) (simclock.Time, error) {
	if !r.cfg.SyncOffload {
		r.pollOffload(at)
	}
	r.maybeRedial(at)
	budget := r.retentionBudget()
	high := int(r.cfg.OffloadHighWater * float64(budget))
	if r.unstagedRetained() <= high {
		return at, nil
	}
	low := int(r.cfg.OffloadLowWater * float64(budget))
	if r.client == nil {
		if r.cfg.DropWhenOffline {
			r.dropTo(low)
		}
		return at, nil // else keep accumulating; Pressure will fail eventually
	}
	if r.cfg.SyncOffload {
		done, err := r.offloadToSync(low, at)
		if err != nil {
			// A failed offload must not fail host I/O: nothing was released
			// (zero data loss holds), retention just keeps accumulating and
			// the next operation retries. Only Pressure escalates further.
			r.stats.OffloadErrors++
			r.lastOffloadErr = err
		}
		return done, nil
	}
	return r.stageTo(low, at), nil
}

// unstagedRetained counts retained pages not yet travelling through the
// offload pipeline — the quantity the watermarks govern.
func (r *RSSD) unstagedRetained() int {
	n := len(r.retained)
	if r.engine != nil {
		n -= r.engine.pagesInFlight
	}
	return n
}

// stageTo stages segments until at most target unstaged retained pages
// remain. During a failure epoch staging pauses: the pipeline must drain
// and requeue before a retry ships the same entries again.
func (r *RSSD) stageTo(target int, at simclock.Time) simclock.Time {
	for {
		if e := r.engine; e != nil && e.failing {
			return at
		}
		n := r.unstagedRetained() - target
		if n <= 0 {
			return at
		}
		batch := r.popRetained(r.cfg.SegmentMaxPages, n)
		if len(batch) == 0 {
			return at
		}
		var err error
		if at, err = r.stage(batch, at); err != nil {
			r.stats.OffloadErrors++
			r.lastOffloadErr = err
			return at
		}
	}
}

// LastOffloadError returns the most recent background offload failure, or
// nil once a subsequent offload succeeds. Host tooling polls it the way it
// would poll a SMART error log.
func (r *RSSD) LastOffloadError() error { return r.lastOffloadErr }

// OffloadNow synchronously drains every retained page and all pending log
// entries to the remote server, settling the asynchronous pipeline on the
// way. Administrators run this before planned disconnects; tests use it to
// establish "everything is remote".
func (r *RSSD) OffloadNow(at simclock.Time) (simclock.Time, error) {
	if r.client == nil {
		return at, ErrNoRemote
	}
	r.maybeRedial(at)
	if r.cfg.SyncOffload {
		done, err := r.offloadToSync(0, at)
		if err != nil {
			return done, err
		}
		at = done
		for r.stagedUpTo < r.log.NextSeq() {
			if at, err = r.shipSync(nil, at); err != nil {
				return at, err
			}
		}
		return at, nil
	}
	redialWaits := 0
	for {
		beforeRetained, beforeSeq, beforeRedials := len(r.retained), r.offloadedUpTo, r.stats.Redials
		at = r.drainOffload(at)
		r.maybeRedial(at)
		at = r.stageTo(0, at)
		for r.engineIdleHealthy() && r.stagedUpTo < r.log.NextSeq() {
			var err error
			if at, err = r.stage(nil, at); err != nil {
				r.stats.OffloadErrors++
				r.lastOffloadErr = err
				break
			}
		}
		at = r.drainOffload(at)
		// A failure harvested by this drain may have scheduled a redial or
		// head reconcile; running it here lets the progress check see the
		// reconciled frontier instead of aborting on a stale one.
		r.maybeRedial(at)
		if len(r.retained) == 0 && r.offloadedUpTo == r.log.NextSeq() {
			return at, nil
		}
		if len(r.retained) == beforeRetained && r.offloadedUpTo == beforeSeq &&
			r.stats.Redials == beforeRedials {
			// No progress. If the session is dead and the next redial is
			// merely scheduled in the future, an administrator-driven drain
			// should wait out the backoff in simulated time rather than
			// fail: this is the dial-factory path a server failover rides —
			// the device sits out the outage, redials, and resumes on
			// whatever server the factory now names. Bounded so a fleet
			// with no live server still surfaces an error.
			if r.sessionDead && r.cfg.Dial != nil && r.nextRedialAt > at && redialWaits < maxRedialWaits {
				redialWaits++
				r.stats.RedialWaitTime += r.nextRedialAt.Sub(at)
				at = r.nextRedialAt
				continue
			}
			// A full stage+drain round made no progress (a successful
			// redial counts as progress — the next round ships on the new
			// session): surface the error instead of spinning. A dead
			// session that exhausted its wait budget gets the typed
			// ErrRedialExhausted so callers can tell "gave up" from a
			// transient failure that healed slowly.
			if r.sessionDead && r.cfg.Dial != nil && redialWaits >= maxRedialWaits {
				r.stats.RedialExhausted++
				if r.lastOffloadErr != nil {
					return at, fmt.Errorf("%w after %d waits: %v", ErrRedialExhausted, redialWaits, r.lastOffloadErr)
				}
				return at, fmt.Errorf("%w after %d waits", ErrRedialExhausted, redialWaits)
			}
			if r.lastOffloadErr != nil {
				return at, r.lastOffloadErr
			}
			return at, fmt.Errorf("core: offload stalled with %d pages retained", len(r.retained))
		}
		redialWaits = 0
	}
}

// maxRedialWaits bounds how many scheduled-backoff waits one OffloadNow
// call will sit out before surfacing the dial error: at the capped
// backoff this is plenty to ride through a failover, while a cluster with
// no live servers still fails in bounded simulated time.
const maxRedialWaits = 16

// engineIdleHealthy reports whether entry-only staging may proceed (no
// failure epoch pending a pipeline reset).
func (r *RSSD) engineIdleHealthy() bool {
	return r.engine == nil || !r.engine.failing
}

// offloadToSync ships segments inline until at most target retained pages
// remain, charging the full simulated cost to the returned time. This is
// the synchronous baseline and the Pressure escalation path.
func (r *RSSD) offloadToSync(target int, at simclock.Time) (simclock.Time, error) {
	if r.client == nil {
		return at, ErrNoRemote
	}
	for len(r.retained) > target {
		batch := r.popRetained(r.cfg.SegmentMaxPages, len(r.retained)-target)
		if len(batch) == 0 {
			break
		}
		var err error
		if at, err = r.shipSync(batch, at); err != nil {
			return at, err
		}
	}
	return at, nil
}

// shipSync builds and pushes one segment inline, waiting for the
// durability ack before releasing pins (zero-data-loss ordering) and
// charging seal plus encode plus transfer time — and the storage tier's
// modeled Put service time reported in the ack — to the returned host
// time. This is the measured baseline: everything the asynchronous
// pipeline overlaps rides the host path here.
func (r *RSSD) shipSync(batch []*retEntry, at simclock.Time) (simclock.Time, error) {
	st, err := r.buildSegment(batch, at)
	if err != nil {
		r.requeue(batch)
		r.stagedUpTo = r.offloadedUpTo
		return at, fmt.Errorf("core: seal segment: %w", err)
	}
	// The encode cannot start before the background page reads complete
	// (sealedAt) nor before the firmware goroutine is free (at) — the
	// same formula the asynchronous engine's codec lanes use.
	dur := r.encodeDur(st.logical)
	r.stats.EncodeTime += dur
	encodeStaged(st)
	encDone := simclock.Max(st.sealedAt, at).Add(dur)
	svc, err := r.client.PushSegmentBlobTimed(st.blob, st.seg.LastSeq)
	st.blobBuf.Release()
	st.blobBuf, st.blob = nil, nil
	if err != nil {
		// The batch was not acked: re-pin nothing (we only release after
		// ack), but put the entries back at the queue head so a retry
		// ships the same data. A transport-level failure additionally
		// marks the session dead for the redial path.
		r.requeue(batch)
		r.stagedUpTo = r.offloadedUpTo
		r.noteRemoteErr(err)
		return at, err
	}
	st.svc = svc
	st.ackAt = encDone.Add(r.xferTime(st.wire)).Add(svc)
	r.releaseSegment(st)
	return st.ackAt, nil
}

// dropTo destroys the oldest retained versions without offload. Only the
// offline degradation path uses it; each drop is recorded because it is
// exactly the data-loss event RSSD exists to prevent.
func (r *RSSD) dropTo(target int) {
	for len(r.retained) > target {
		re := r.popOldest()
		if re == nil {
			return
		}
		if err := r.f.Release(re.ppn); err == nil {
			r.stats.ReleasedPins++
		}
		re.released = true
		delete(r.retained, re.ppn)
		r.removeFromLPNIndex(re)
		r.stats.DroppedPages++
	}
}

// popRetained removes up to min(max, want) oldest live retained entries
// from the offload queue without releasing their pins yet.
func (r *RSSD) popRetained(max, want int) []*retEntry {
	if want < max {
		max = want
	}
	var out []*retEntry
	for r.retHead < len(r.retQueue) && len(out) < max {
		re := r.retQueue[r.retHead]
		r.retHead++
		if re.released {
			continue
		}
		out = append(out, re)
	}
	// Compact the consumed prefix occasionally to bound memory.
	if r.retHead > 4096 && r.retHead*2 > len(r.retQueue) {
		r.retQueue = append([]*retEntry(nil), r.retQueue[r.retHead:]...)
		r.retHead = 0
	}
	return out
}

// requeue puts a failed batch back at the head of the offload queue.
func (r *RSSD) requeue(batch []*retEntry) {
	if len(batch) == 0 {
		return
	}
	newQueue := make([]*retEntry, 0, len(batch)+len(r.retQueue)-r.retHead)
	newQueue = append(newQueue, batch...)
	newQueue = append(newQueue, r.retQueue[r.retHead:]...)
	r.retQueue = newQueue
	r.retHead = 0
}

// popOldest pops the oldest live retained entry, or nil.
func (r *RSSD) popOldest() *retEntry {
	for r.retHead < len(r.retQueue) {
		re := r.retQueue[r.retHead]
		r.retHead++
		if !re.released {
			return re
		}
	}
	return nil
}

// removeFromLPNIndex unlinks a released entry from the per-LPN index.
func (r *RSSD) removeFromLPNIndex(re *retEntry) {
	vs := r.retByLPN[re.lpn]
	for i := range vs {
		if vs[i] == re {
			r.retByLPN[re.lpn] = append(vs[:i], vs[i+1:]...)
			break
		}
	}
	if len(r.retByLPN[re.lpn]) == 0 {
		delete(r.retByLPN, re.lpn)
	}
}

// CheckpointNow ships the live write sequence of every LPN to the remote
// server and logs it. Reopen seeds its replay from the newest checkpoint
// inside the chain instead of from genesis; a delta restore anchors on the
// newest one before the attack point.
func (r *RSSD) CheckpointNow(at simclock.Time) (simclock.Time, error) {
	if r.client == nil {
		return at, nil // checkpoints are only meaningful with a remote
	}
	cp := nvmeoe.Checkpoint{WriteSeqs: append([]uint64(nil), r.lpnWriteSeq...)}
	e := r.log.Append(oplog.KindCheckpoint, at, 0, 0, 0, 0, checkpointHash(cp.WriteSeqs))
	cp.Seq = e.Seq
	if err := r.client.PushCheckpoint(&cp); err != nil {
		return at, fmt.Errorf("core: checkpoint: %w", err)
	}
	r.stats.Checkpoints++
	return at, nil
}

// checkpointHash is what a KindCheckpoint entry's DataHash binds: the table
// alone. The entry's own Seq, which the chain hash covers, binds the position.
func checkpointHash(writeSeqs []uint64) [oplog.HashSize]byte {
	return oplog.HashData((&nvmeoe.Checkpoint{WriteSeqs: writeSeqs}).Marshal())
}

// OffloadedUpTo reports the log sequence below which everything is durably
// remote.
func (r *RSSD) OffloadedUpTo() uint64 { return r.offloadedUpTo }
