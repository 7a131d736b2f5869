// Package recovery restores the pre-attack state of victim pages from
// RSSD's retained versions — local pins and remote segments — with
// cryptographic verification against the operation log.
//
// Given a forensic attack window, the engine rolls every victim page back
// to the newest version written before the window started. Because RSSD
// retains all stale data (zero data loss), this restore is complete: the
// paper's Table 1 "Recoverable" entry for RSSD versus the partial or
// absent recovery of prior systems.
package recovery

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/forensic"
	"repro/internal/oplog"
	"repro/internal/remote"
	"repro/internal/simclock"
)

// Options tunes a recovery run.
type Options struct {
	// Verify checks each restored page's content hash against the log
	// entry that originally wrote it.
	Verify bool
}

// Report summarizes a recovery run.
type Report struct {
	VictimPages    int
	PagesRestored  int // rolled back to a retained version
	PagesZeroed    int // pre-attack state was unwritten/trimmed
	PagesVerified  int
	VerifyFailures int
	BytesRestored  int
	SimTime        simclock.Duration // simulated device time consumed
	WallTime       time.Duration     // host compute time
}

func (r Report) String() string {
	return fmt.Sprintf("recovery: %d victims -> %d restored, %d zeroed, %d verified (%d failures), %d bytes, sim %v, wall %v",
		r.VictimPages, r.PagesRestored, r.PagesZeroed, r.PagesVerified, r.VerifyFailures,
		r.BytesRestored, r.SimTime, r.WallTime)
}

// Complete reports whether every victim page was restored (or correctly
// zeroed) with no verification failures.
func (r Report) Complete() bool {
	return r.PagesRestored+r.PagesZeroed == r.VictimPages && r.VerifyFailures == 0
}

// Engine performs point-in-time restoration on an RSSD device.
type Engine struct {
	dev    *core.RSSD
	client *remote.Client // for verification lookups; may be nil
	opts   Options
}

// NewEngine returns a recovery engine. client may be nil, in which case
// verification can only use the local log.
func NewEngine(dev *core.RSSD, client *remote.Client, opts Options) *Engine {
	return &Engine{dev: dev, client: client, opts: opts}
}

// RestoreWindow rolls every victim page in the window back to its state
// just before the attack began, returning the simulated completion time
// and a report. The victims' versions are looked up (and verified) one by
// one; the rollback itself is one core.RestoreBatch over the whole window.
func (e *Engine) RestoreWindow(win forensic.Window, at simclock.Time) (simclock.Time, Report, error) {
	wallStart := time.Now()
	simStart := at
	rep := Report{VictimPages: len(win.Victims)}
	ops := make([]core.RestoreOp, 0, len(win.Victims))
	for _, lpn := range win.Victims {
		data, writeSeq, ok, err := e.dev.VersionBefore(lpn, win.StartSeq, at)
		if err != nil {
			return at, rep, fmt.Errorf("recovery: version of lpn %d: %w", lpn, err)
		}
		if !ok {
			// Page did not exist before the attack: restore to unmapped.
			ops = append(ops, core.RestoreOp{LPN: lpn})
			continue
		}
		hash := oplog.HashData(data)
		if e.opts.Verify && writeSeq != core.NoSeq {
			match, err := e.verify(lpn, writeSeq, hash)
			if err != nil {
				return at, rep, err
			}
			if match {
				rep.PagesVerified++
			} else {
				rep.VerifyFailures++
				continue // refuse to restore unverifiable content
			}
		}
		ops = append(ops, core.RestoreOp{LPN: lpn, Data: data, Hash: hash})
	}
	at, err := e.dev.RestoreBatch(ops, at)
	if err != nil {
		return at, rep, fmt.Errorf("recovery: restore window: %w", err)
	}
	for i := range ops {
		if ops[i].Data == nil {
			rep.PagesZeroed++
		} else {
			rep.PagesRestored++
			rep.BytesRestored += len(ops[i].Data)
		}
	}
	rep.SimTime = at.Sub(simStart)
	rep.WallTime = time.Since(wallStart)
	return at, rep, nil
}

// RestoreImage rolls the whole device back to its state just before log
// sequence `before`, in place, through the core's resumable streamed
// restorer: remote history arrives in codec-framed chunks over a
// dedicated recovery session, pages apply incrementally, and a mid-stream
// disconnect resumes from the cursor. This is the rollback path fleet
// power-cycle recovery drives — same restorer, same chunk stream, same
// link model as any other restore.
func (e *Engine) RestoreImage(before uint64, opts core.RestoreOptions, at simclock.Time) (simclock.Time, core.RestoreReport, error) {
	return e.dev.RestoreImage(before, opts, at)
}

// RebuildReport summarizes a full-device rebuild.
type RebuildReport struct {
	PagesWritten int
	PagesZero    int
	SimTime      simclock.Duration
	WallTime     time.Duration
}

func (r RebuildReport) String() string {
	return fmt.Sprintf("rebuild: %d pages written, %d zero, sim %v, wall %v",
		r.PagesWritten, r.PagesZero, r.SimTime, r.WallTime)
}

// Target is the destination of a device rebuild — any writable block
// device (a fresh replacement drive).
type Target interface {
	Write(lpn uint64, data []byte, at simclock.Time) (simclock.Time, error)
	PageSize() int
	LogicalPages() uint64
}

// RebuildTo reconstructs the source device's full logical image as of log
// sequence `before` and writes it onto a fresh target device. This is the
// disaster-recovery path: the victim machine is considered lost, and the
// retained history (local + remote) rebuilds a clean drive.
func (e *Engine) RebuildTo(target Target, before uint64, at simclock.Time) (simclock.Time, RebuildReport, error) {
	wallStart := time.Now()
	simStart := at
	rep := RebuildReport{}
	img, err := e.dev.ImageBefore(before, at)
	if err != nil {
		return at, rep, fmt.Errorf("recovery: image: %w", err)
	}
	n := uint64(len(img))
	if t := target.LogicalPages(); t < n {
		n = t
	}
	for lpn := uint64(0); lpn < n; lpn++ {
		if img[lpn] == nil {
			rep.PagesZero++
			continue // fresh device already reads zeroes
		}
		at, err = target.Write(lpn, img[lpn], at)
		if err != nil {
			return at, rep, fmt.Errorf("recovery: rebuild lpn %d: %w", lpn, err)
		}
		rep.PagesWritten++
	}
	rep.SimTime = at.Sub(simStart)
	rep.WallTime = time.Since(wallStart)
	return at, rep, nil
}

// verify compares a version's content hash against the DataHash recorded by
// the log entry that wrote it, consulting the local log first and the remote
// store for pruned entries. It fails closed: a version whose entry neither
// holds — a pruned log with no client, or a reply that is not entry
// writeSeq — is not verified.
func (e *Engine) verify(lpn, writeSeq uint64, hash [oplog.HashSize]byte) (bool, error) {
	var entry *oplog.Entry
	if writeSeq >= e.dev.Log().BaseSeq() {
		if got := e.dev.Log().Entries(writeSeq, writeSeq+1); len(got) == 1 {
			entry = &got[0]
		}
	} else if e.client != nil {
		got, err := e.client.FetchEntries(writeSeq, writeSeq+1)
		if err != nil {
			return false, fmt.Errorf("recovery: fetch entry %d: %w", writeSeq, err)
		}
		if len(got) == 1 {
			entry = &got[0]
		}
	}
	if entry == nil || entry.Seq != writeSeq || entry.LPN != lpn {
		return false, nil
	}
	return entry.DataHash == hash, nil
}
