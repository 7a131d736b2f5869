package ftl

import (
	"fmt"

	"repro/internal/batch"
	"repro/internal/nand"
	"repro/internal/simclock"
)

// This file implements the FTL half of the batched datapath: grouped
// write/read/trim entry points over the sharded L2P table and the NAND
// per-channel batch scheduler, plus the host-facing SubmitBatch that makes
// a bare FTL a batch.Device (the batched LocalSSD baseline).
//
// Batched writes keep two invariants the per-op path gets for free, on
// whichever front they allocate:
//
//   1. NAND pages within a block are programmed in allocation order. A
//      batch therefore programs every allocated run before allocating past
//      it into the next block; on the striped recovery front, where the
//      pages of one block are interleaved with other chips', the NAND
//      scheduler keeps submission order within a chip.
//   2. Garbage collection never observes allocated-but-unprogrammed pages
//      (it would misread them as reclaimable and erase them). Pending
//      programs are flushed to the device before any allocation that could
//      trigger GC.
//
// Mapping updates (invalidate old version, flip l2p) happen strictly in
// submission order, so two writes to the same LPN in one batch behave
// exactly like two sequential per-op writes.

// BatchWrite is one page write within a WriteBatch.
type BatchWrite struct {
	LPN  uint64
	Data []byte
	Seq  uint64   // operation-log sequence stamped into the page OOB
	Hash [32]byte // content hash that log entry records, stamped beside it
}

// BatchTrim is one trim within a TrimBatch.
type BatchTrim struct {
	LPN uint64
	Seq uint64 // operation-log sequence of the trim entry
}

// StaleSeqObserver is an optional Retainer extension for the batched
// datapath. Per-op callers stage the invalidating operation's log sequence
// in the retainer before each FTL call; inside a batch the FTL performs
// many invalidations per call, so it announces each operation's sequence
// (and completion time) immediately before that operation's OnStale /
// invalidation runs. Retainers that record which operation made a page
// stale (RSSD does, for forensics) implement this; others ignore it.
type StaleSeqObserver interface {
	OnStaleContext(seq uint64, at simclock.Time)
}

// WriteBatch writes a group of pages as one submission. All writes are
// issued at time at (queued behind each other only by chip occupancy, so
// writes landing on different chips overlap); mapping updates follow
// submission order. It returns per-op completion times aligned with ops
// and the completion time of the whole batch.
//
// The batch is validated up front: an out-of-range LPN or short payload
// fails the whole call before any page is written. A device-level failure
// (ErrNoSpace) aborts at the failing op; earlier ops remain applied, like
// a partially consumed submission queue.
func (f *FTL) WriteBatch(ops []BatchWrite, at simclock.Time) ([]simclock.Time, simclock.Time, error) {
	return f.writeBatch(StreamHost, ops, at)
}

// WriteRecoveryBatch is WriteBatch on the recovery front: page i of the
// batch lands on the chip after page i-1's (while every chip has a block to
// give), so a restore chunk programs on every chip at once instead of
// filling the host's one open block. The pages count as host writes.
func (f *FTL) WriteRecoveryBatch(ops []BatchWrite, at simclock.Time) ([]simclock.Time, simclock.Time, error) {
	return f.writeBatch(StreamRecovery, ops, at)
}

func (f *FTL) writeBatch(stream Stream, ops []BatchWrite, at simclock.Time) ([]simclock.Time, simclock.Time, error) {
	times := make([]simclock.Time, len(ops))
	for i := range ops {
		if ops[i].LPN >= f.logicalPages {
			return times, at, ErrOutOfRange
		}
		if len(ops[i].Data) != f.geo.PageSize {
			return times, at, ErrBadPageSize
		}
	}
	done := at
	issue := at
	var pending []nand.PageProgram
	var pendingIdx []int

	sso, _ := f.ret.(StaleSeqObserver)
	flush := func() error {
		if len(pending) == 0 {
			return nil
		}
		ts, _, err := f.dev.ProgramBatch(pending, issue)
		if err != nil {
			return fmt.Errorf("ftl: batch program: %w", err)
		}
		for j, idx := range pendingIdx {
			op := &ops[idx]
			ppn := pending[j].PPN
			if sso != nil {
				sso.OnStaleContext(op.Seq, ts[j])
			}
			if old := f.l2p.get(op.LPN); old != NoPPN {
				f.invalidate(op.LPN, old, CauseOverwrite, ts[j])
			}
			f.l2p.set(op.LPN, ppn)
			f.rmap[ppn] = op.LPN
			f.blocks[f.geo.BlockOf(ppn)].valid++
			times[idx] = ts[j]
			f.stats.HostWrites++
			f.stats.HostWriteLatency += ts[j].Sub(at)
			if ts[j] > done {
				done = ts[j]
			}
		}
		pending, pendingIdx = pending[:0], pendingIdx[:0]
		return nil
	}

	for i := 0; i < len(ops); {
		// Invariant 2: opening a block may garbage-collect, and GC must
		// never see our allocated-but-unprogrammed pages. The GC trigger
		// is the free-list low watermark, so flush exactly when the next
		// allocation both opens a block and could fire it.
		if f.needsNewBlock(stream) && len(f.freeList) <= f.cfg.GCLowWater {
			if err := flush(); err != nil {
				return times, done, err
			}
		}
		first, n, t, err := f.alloc(stream, len(ops)-i, issue)
		if err != nil {
			// Program what was already allocated (invariant 1), then
			// report the failure.
			if ferr := flush(); ferr != nil {
				return times, done, ferr
			}
			return times, done, err
		}
		issue = t
		for j := 0; j < n; j++ {
			op := &ops[i+j]
			pending = append(pending, nand.PageProgram{
				PPN:  first + uint64(j),
				Data: op.Data,
				OOB:  nand.OOB{LPN: op.LPN, Seq: op.Seq, Hash: op.Hash},
			})
			pendingIdx = append(pendingIdx, i+j)
		}
		i += n
	}
	if err := flush(); err != nil {
		return times, done, err
	}
	return times, done, nil
}

// ReadBatch reads a group of logical pages as one submission; unmapped
// pages read as zeroes. All reads are issued at time at and scheduled
// across chips by the NAND batch scheduler. Results align with lpns.
func (f *FTL) ReadBatch(lpns []uint64, at simclock.Time) ([][]byte, []simclock.Time, simclock.Time, error) {
	out := make([][]byte, len(lpns))
	times := make([]simclock.Time, len(lpns))
	for _, lpn := range lpns {
		if lpn >= f.logicalPages {
			return out, times, at, ErrOutOfRange
		}
	}
	f.stats.HostReads += uint64(len(lpns))
	if ro, ok := f.ret.(ReadObserver); ok {
		for _, lpn := range lpns {
			ro.OnHostRead(lpn, at)
		}
	}
	var devPPNs []uint64
	var devIdx []int
	for i, lpn := range lpns {
		ppn := f.l2p.get(lpn)
		if ppn == NoPPN {
			out[i] = make([]byte, f.geo.PageSize)
			times[i] = at
			continue
		}
		devPPNs = append(devPPNs, ppn)
		devIdx = append(devIdx, i)
	}
	data, _, ts, done, err := f.dev.ReadBatch(devPPNs, at)
	if err != nil {
		return out, times, at, fmt.Errorf("ftl: batch read: %w", err)
	}
	for j, idx := range devIdx {
		out[idx] = data[j]
		times[idx] = ts[j]
		f.stats.HostReadLatency += ts[j].Sub(at)
	}
	return out, times, done, nil
}

// TrimBatch invalidates a group of logical pages as one submission.
// Already-unmapped pages are no-ops, like per-op Trim. Eager trim erases
// (when configured) run suspend-capable in the background (see
// nand.Device.Erase), so they do not advance the returned completion
// times; their latency surfaces through the erased block's readyAt if it
// is reprogrammed before the erase finishes.
func (f *FTL) TrimBatch(ops []BatchTrim, at simclock.Time) ([]simclock.Time, simclock.Time, error) {
	times := make([]simclock.Time, len(ops))
	for i := range ops {
		if ops[i].LPN >= f.logicalPages {
			return times, at, ErrOutOfRange
		}
	}
	sso, _ := f.ret.(StaleSeqObserver)
	cur := at
	for i := range ops {
		op := &ops[i]
		f.stats.Trims++
		ppn := f.l2p.get(op.LPN)
		if ppn == NoPPN {
			times[i] = cur
			continue
		}
		f.l2p.set(op.LPN, NoPPN)
		if sso != nil {
			sso.OnStaleContext(op.Seq, cur)
		}
		f.invalidate(op.LPN, ppn, CauseTrim, cur)
		if f.cfg.EagerTrimErase {
			b := f.geo.BlockOf(ppn)
			bi := &f.blocks[b]
			if bi.state == blockFull && bi.valid == 0 && bi.pinned == 0 {
				var err error
				cur, err = f.eraseBlock(b, cur)
				if err != nil {
					return times, cur, err
				}
			}
		}
		times[i] = cur
	}
	return times, cur, nil
}

// SubmitBatch makes a bare FTL a batch.Device: the batched LocalSSD
// baseline every batched RSSD measurement is compared against. Ops are
// grouped into runs of the same kind (state changes stay in submission
// order across runs); per-op validation failures land in the matching
// result, device-level failures abort the batch.
func (f *FTL) SubmitBatch(ops []batch.Op, at simclock.Time) ([]batch.Result, simclock.Time, error) {
	res := make([]batch.Result, len(ops))
	done := at
	err := batch.ForEachRun(ops, func(start, end int, kind batch.Kind) error {
		run, runRes := ops[start:end], res[start:end]
		switch kind {
		case batch.OpWrite:
			return f.submitWrites(run, runRes, at, &done)
		case batch.OpRead:
			return f.submitReads(run, runRes, at, &done)
		case batch.OpTrim:
			return f.submitTrims(run, runRes, at, &done)
		default:
			for i := range runRes {
				runRes[i] = batch.Result{Done: at, Err: fmt.Errorf("ftl: unknown batch op kind %d", kind)}
			}
			return nil
		}
	})
	if err != nil {
		return res, done, err
	}
	return res, done, nil
}

// submitWrites validates and applies one write run of a SubmitBatch.
func (f *FTL) submitWrites(run []batch.Op, res []batch.Result, at simclock.Time, done *simclock.Time) error {
	var valid []BatchWrite
	var validIdx []int
	for i := range run {
		switch {
		case run[i].LPN >= f.logicalPages:
			res[i] = batch.Result{Done: at, Err: ErrOutOfRange}
		case len(run[i].Data) != f.geo.PageSize:
			res[i] = batch.Result{Done: at, Err: ErrBadPageSize}
		default:
			valid = append(valid, BatchWrite{LPN: run[i].LPN, Data: run[i].Data})
			validIdx = append(validIdx, i)
		}
	}
	ts, d, err := f.WriteBatch(valid, at)
	if err != nil {
		return err
	}
	for j, idx := range validIdx {
		res[idx] = batch.Result{Done: ts[j]}
	}
	if d > *done {
		*done = d
	}
	return nil
}

// submitReads validates and applies one read run of a SubmitBatch.
func (f *FTL) submitReads(run []batch.Op, res []batch.Result, at simclock.Time, done *simclock.Time) error {
	var lpns []uint64
	var validIdx []int
	for i := range run {
		if run[i].LPN >= f.logicalPages {
			res[i] = batch.Result{Done: at, Err: ErrOutOfRange}
			continue
		}
		lpns = append(lpns, run[i].LPN)
		validIdx = append(validIdx, i)
	}
	data, ts, d, err := f.ReadBatch(lpns, at)
	if err != nil {
		return err
	}
	for j, idx := range validIdx {
		res[idx] = batch.Result{Data: data[j], Done: ts[j]}
	}
	if d > *done {
		*done = d
	}
	return nil
}

// submitTrims validates and applies one trim run of a SubmitBatch.
func (f *FTL) submitTrims(run []batch.Op, res []batch.Result, at simclock.Time, done *simclock.Time) error {
	var trims []BatchTrim
	var validIdx []int
	for i := range run {
		if run[i].LPN >= f.logicalPages {
			res[i] = batch.Result{Done: at, Err: ErrOutOfRange}
			continue
		}
		trims = append(trims, BatchTrim{LPN: run[i].LPN})
		validIdx = append(validIdx, i)
	}
	ts, d, err := f.TrimBatch(trims, at)
	if err != nil {
		return err
	}
	for j, idx := range validIdx {
		res[idx] = batch.Result{Done: ts[j]}
	}
	if d > *done {
		*done = d
	}
	return nil
}
