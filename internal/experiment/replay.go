package experiment

import (
	"repro/internal/batch"
	"repro/internal/host"
	"repro/internal/simclock"
	"repro/internal/workload"
)

// Trace replay drives devices through the batched datapath: one trace
// record (a multi-page host request) becomes one submission batch, the
// way an NVMe driver turns one I/O into one queue submission. Every
// figure/table experiment that replays traces goes through these helpers,
// so the published numbers exercise the same path production I/O would.

// recordBatch converts one trace record into a submission batch, appending
// onto ops (pass ops[:0] to reuse a buffer). Content for writes is drawn
// from the generator in page order, matching what a per-op replay writes.
func recordBatch(g *workload.Generator, rec workload.Record, logical uint64, ops []batch.Op) []batch.Op {
	for p := 0; p < rec.Pages; p++ {
		lpn := rec.LPN + uint64(p)
		if lpn >= logical {
			break
		}
		switch rec.Op {
		case workload.OpWrite:
			ops = append(ops, batch.Op{Kind: batch.OpWrite, LPN: lpn, Data: g.Content()})
		case workload.OpRead:
			ops = append(ops, batch.Op{Kind: batch.OpRead, LPN: lpn})
		case workload.OpTrim:
			ops = append(ops, batch.Op{Kind: batch.OpTrim, LPN: lpn})
		}
	}
	return ops
}

// replayOpts shapes one replay. Open loop, a record issues at its trace
// time plus off; chained, at the previous record's completion, the first at
// start. hold, when set, runs once as the loop reaches record n/3, or after
// the loop when it never does; each, when set, sees every submitted record.
type replayOpts struct {
	off     simclock.Duration
	chained bool
	start   simclock.Time
	hold    func()
	each    func(rec workload.Record, issue, done simclock.Time)
}

// replay submits n trace records of g to dev, one batch per record, and
// returns the latest completion and how many records submitted (a record
// wholly past the device's logical space submits nothing).
func replay(dev host.BatchDevice, g *workload.Generator, n int, o replayOpts) (simclock.Time, int, error) {
	var ops []batch.Op
	var end simclock.Time
	prev, records, held := o.start, 0, o.hold == nil
	for j := 0; j < n; j++ {
		if !held && j >= n/3 {
			held = true
			o.hold()
		}
		rec := g.Next()
		if ops = recordBatch(g, rec, dev.LogicalPages(), ops[:0]); len(ops) == 0 {
			continue
		}
		issue := rec.At.Add(o.off)
		if o.chained {
			issue = prev
		}
		done, err := submitRecord(dev, ops, issue)
		if err != nil {
			return end, records, err
		}
		prev, end = done, simclock.Max(end, done)
		records++
		if o.each != nil {
			o.each(rec, issue, done)
		}
	}
	if !held {
		o.hold()
	}
	return end, records, nil
}

// submitRecord submits one record's batch at issue time and returns when
// the device finished it (never before issue). Per-op and batch-level
// failures both surface as errors.
func submitRecord(dev batch.Device, ops []batch.Op, issue simclock.Time) (simclock.Time, error) {
	if len(ops) == 0 {
		return issue, nil
	}
	res, done, err := dev.SubmitBatch(ops, issue)
	if err != nil {
		return issue, err
	}
	for i := range res {
		if res[i].Err != nil {
			return issue, res[i].Err
		}
	}
	return simclock.Max(issue, done), nil
}
