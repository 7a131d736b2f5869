// Package recovery rolls victim pages back to their pre-attack state through
// the device's one restorer, core.RSSD.RestoreImage.
//
// Given a forensic attack window, RestoreWindow is a restore to the cut
// win.StartSeq scoped to the window's victims: each one is decided from the
// live mapping, its local pins and the remote store's image stream, and
// every page written back was checked against a content hash — a streamed
// literal on arrival, a pin against its OOB. Because RSSD retains all stale
// data (zero data loss), this restore is complete: the paper's Table 1
// "Recoverable" entry for RSSD versus the partial or absent recovery of
// prior systems. A restore dials its own session (core.Config.Dial); a
// device with nothing to dial restores nothing.
package recovery

import (
	"repro/internal/core"
	"repro/internal/forensic"
	"repro/internal/remote"
	"repro/internal/simclock"
)

// Options tunes a recovery run. A restore's scope and cut come from the
// window, its sessions from the device's Config.Dial: nothing is left to set.
type Options struct{}

// Engine performs point-in-time restoration on an RSSD device.
type Engine struct {
	dev *core.RSSD
}

// NewEngine returns a recovery engine over dev. The client is not used: a
// restore streams over sessions of its own.
func NewEngine(dev *core.RSSD, _ *remote.Client, _ Options) *Engine {
	return &Engine{dev: dev}
}

// RestoreWindow rolls every victim page in the window back to its state just
// before the attack began: one deduplicated image stream to win.StartSeq
// over the victims, applied chunk by chunk. A window that names no victims
// restores nothing.
func (e *Engine) RestoreWindow(win forensic.Window, at simclock.Time) (simclock.Time, core.RestoreReport, error) {
	if len(win.Victims) == 0 {
		return at, core.RestoreReport{}, nil
	}
	return e.dev.RestoreImage(win.StartSeq, core.RestoreOptions{LPNs: win.Victims, Dedup: true}, at)
}

// RestoreImage rolls the whole device back to its state just before log
// sequence `before`, in place, through the same restorer: the power-cycle
// recovery path.
func (e *Engine) RestoreImage(before uint64, opts core.RestoreOptions, at simclock.Time) (simclock.Time, core.RestoreReport, error) {
	return e.dev.RestoreImage(before, opts, at)
}
