package core

import (
	"slices"

	"repro/internal/ftl"
	"repro/internal/oplog"
	"repro/internal/remote"
	"repro/internal/simclock"
)

// heldEntries returns every entry l still holds locally.
func heldEntries(l *oplog.Log) []oplog.Entry { return l.Entries(0, l.NextSeq()) }

// settle synchronously settles the offload pipeline: every staged segment
// is acked or failed-and-requeued before it returns, and a dead session
// gets its scheduled redial attempt. Tests use it as a barrier before
// reading Stats.
func (r *RSSD) settle(at simclock.Time) simclock.Time {
	at = r.drainOffload(at)
	r.maybeRedial(at)
	return at
}

// attachRemote connects the offload engine to a hand-made session,
// retiring any engine bound to the previous session first (outstanding
// completions are settled so no pin is orphaned), and resets the redial
// machinery: the test vouches for this session.
func (r *RSSD) attachRemote(client *remote.Client) {
	r.stopEngine()
	r.client = client
	r.sessionDead = false
	r.needReconcile = false
	r.redialBackoff = 0
	r.nextRedialAt = 0
}

// releaseAtWatermark does for an offline device what offload acks do at the
// watermarks: past the high one, it releases the oldest retained versions
// down to the low one through the unpin an ack's release calls, and returns
// how many it released.
func releaseAtWatermark(r *RSSD) (released uint64) {
	budget := float64(r.retentionBudget())
	if r.pins() <= int(r.cfg.OffloadHighWater*budget) {
		return 0
	}
	for r.pins() > int(r.cfg.OffloadLowWater*budget) && r.retHead < len(r.retQueue) {
		re := r.retQueue[r.retHead]
		r.retHead++
		if !re.released {
			r.unpin(re)
			released++
		}
	}
	return released
}

// versionInfo describes one locally retained version of a logical page.
type versionInfo struct {
	LPN      uint64
	WriteSeq uint64
	StaleSeq uint64
	Cause    ftl.StaleCause
}

// retainedVersions lists the locally retained versions of lpn in writeSeq
// order (oldest first).
func (r *RSSD) retainedVersions(lpn uint64) []versionInfo {
	var out []versionInfo
	for re := r.retByLPN[lpn]; re != nil; re = re.older {
		out = append(out, versionInfo{LPN: re.lpn, WriteSeq: re.writeSeq, StaleSeq: re.staleSeq, Cause: re.cause})
	}
	slices.Reverse(out)
	return out
}

// writeSeqOf returns the log sequence of the live version of lpn, or NoSeq
// if the page is unmapped.
func (r *RSSD) writeSeqOf(lpn uint64) uint64 {
	if lpn >= uint64(len(r.lpnWriteSeq)) {
		return NoSeq
	}
	return r.lpnWriteSeq[lpn]
}
