package ftl

import (
	"fmt"

	"repro/internal/batch"
	"repro/internal/nand"
	"repro/internal/simclock"
)

// This file implements the FTL's datapath: grouped write/read/trim entry
// points over the sharded L2P table and the NAND per-channel batch
// scheduler, plus the host-facing SubmitBatch that makes a bare FTL a
// batch.Device (the LocalSSD baseline). The per-op Write, Read and Trim are
// one-element SubmitBatch calls.
//
// Writes keep two invariants on whichever front they allocate:
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
// exactly like two writes in two batches.

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

// StaleSeqObserver is an optional Retainer extension: the FTL performs many
// invalidations per call, so it announces each operation's log sequence
// (BatchWrite.Seq, BatchTrim.Seq) and completion time immediately before
// that operation's OnStale runs. Retainers that record which operation made
// a page stale (RSSD does, for forensics) implement this; others ignore it.
type StaleSeqObserver interface {
	OnStaleContext(seq uint64, at simclock.Time)
}

// WriteBatch writes a group of pages as one submission. All writes are
// issued at time at (queued behind each other only by chip occupancy, so
// writes landing on different chips overlap); mapping updates follow
// submission order. It appends per-op completion times aligned with ops to
// times and returns the extended slice and the completion time of the
// whole batch.
//
// The batch is validated up front: an out-of-range LPN or short payload
// fails the whole call before any page is written. A device-level failure
// (ErrNoSpace) aborts at the failing op; earlier ops remain applied, like
// a partially consumed submission queue.
func (f *FTL) WriteBatch(times []simclock.Time, ops []BatchWrite, at simclock.Time) ([]simclock.Time, simclock.Time, error) {
	return f.writeBatch(StreamHost, times, ops, at)
}

// WriteRecoveryBatch is WriteBatch on the recovery front: page i of the
// batch lands on the chip after page i-1's (while every chip has a block to
// give), so a restore chunk programs on every chip at once instead of
// filling the host's one open block. The pages count as host writes.
func (f *FTL) WriteRecoveryBatch(times []simclock.Time, ops []BatchWrite, at simclock.Time) ([]simclock.Time, simclock.Time, error) {
	return f.writeBatch(StreamRecovery, times, ops, at)
}

func (f *FTL) writeBatch(stream Stream, times []simclock.Time, ops []BatchWrite, at simclock.Time) ([]simclock.Time, simclock.Time, error) {
	times = append(times, make([]simclock.Time, len(ops))...)
	out := times[len(times)-len(ops):]
	for i := range ops {
		if ops[i].LPN >= f.logicalPages {
			return times, at, ErrOutOfRange
		}
		if len(ops[i].Data) != f.geo.PageSize {
			return times, at, ErrBadPageSize
		}
	}
	done := at
	pending, pendingIdx := f.pending[:0], f.pendingIdx[:0]
	defer func() {
		clear(pending[:cap(pending)]) // the payloads are the caller's
		f.pending, f.pendingIdx = pending[:0], pendingIdx[:0]
	}()

	sso, _ := f.ret.(StaleSeqObserver)
	flush := func() error {
		if len(pending) == 0 {
			return nil
		}
		var err error
		f.progTimes, _, err = f.dev.ProgramBatch(f.progTimes[:0], pending, at)
		if err != nil {
			return fmt.Errorf("ftl: batch program: %w", err)
		}
		ts := f.progTimes
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
			out[idx] = ts[j]
			f.stats.HostWrites++
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
		first, n, err := f.alloc(stream, len(ops)-i, at)
		if err != nil {
			// Program what was already allocated (invariant 1), then
			// report the failure.
			if ferr := flush(); ferr != nil {
				return times, done, ferr
			}
			return times, done, err
		}
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

// ReadBatch reads a group of logical pages as one submission: lpns[i]
// lands in dst[i], which must be exactly one page, and unmapped pages read
// as zeroes. All reads are issued at time at and scheduled across chips by
// the NAND batch scheduler. It appends per-op completion times aligned with
// lpns to times.
func (f *FTL) ReadBatch(times []simclock.Time, dst [][]byte, lpns []uint64, at simclock.Time) ([]simclock.Time, simclock.Time, error) {
	times = append(times, make([]simclock.Time, len(lpns))...)
	out := times[len(times)-len(lpns):]
	for i, lpn := range lpns {
		if lpn >= f.logicalPages {
			return times, at, ErrOutOfRange
		}
		if len(dst[i]) != f.geo.PageSize {
			return times, at, ErrBadPageSize
		}
	}
	if ro, ok := f.ret.(ReadObserver); ok {
		for _, lpn := range lpns {
			ro.OnHostRead(lpn, at)
		}
	}
	ppns, devDst, devIdx := f.readPPNs[:0], f.readDst[:0], f.readIdx[:0]
	for i, lpn := range lpns {
		ppn := f.l2p.get(lpn)
		if ppn == NoPPN {
			clear(dst[i])
			out[i] = at
			continue
		}
		ppns = append(ppns, ppn)
		devDst = append(devDst, dst[i])
		devIdx = append(devIdx, i)
	}
	ts, done, err := f.dev.ReadBatch(f.readTimes[:0], devDst, ppns, at)
	clear(devDst) // the destinations are the caller's
	f.readPPNs, f.readDst, f.readIdx, f.readTimes = ppns[:0], devDst[:0], devIdx[:0], ts[:0]
	if err != nil {
		return times, at, fmt.Errorf("ftl: batch read: %w", err)
	}
	for j, idx := range devIdx {
		out[idx] = ts[j]
	}
	return times, done, nil
}

// TrimBatch invalidates a group of logical pages as one submission.
// Already-unmapped pages are no-ops. A trim touches only the mapping: the
// stale page waits for garbage collection (or the retainer's pin), so every
// op completes at the submission time. It appends per-op completion times
// aligned with ops to times.
func (f *FTL) TrimBatch(times []simclock.Time, ops []BatchTrim, at simclock.Time) ([]simclock.Time, simclock.Time, error) {
	times = append(times, make([]simclock.Time, len(ops))...)
	out := times[len(times)-len(ops):]
	for i := range ops {
		if ops[i].LPN >= f.logicalPages {
			return times, at, ErrOutOfRange
		}
	}
	sso, _ := f.ret.(StaleSeqObserver)
	for i := range ops {
		op := &ops[i]
		f.stats.Trims++
		out[i] = at
		ppn := f.l2p.get(op.LPN)
		if ppn == NoPPN {
			continue
		}
		f.l2p.set(op.LPN, NoPPN)
		if sso != nil {
			sso.OnStaleContext(op.Seq, at)
		}
		f.invalidate(op.LPN, ppn, CauseTrim, at)
	}
	return times, at, nil
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
	ts, d, err := f.WriteBatch(nil, valid, at)
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
	var dsts [][]byte
	var validIdx []int
	for i, dst := range batch.ReadDests(nil, run, f.geo.PageSize) {
		switch {
		case run[i].LPN >= f.logicalPages:
			res[i] = batch.Result{Done: at, Err: ErrOutOfRange}
		case dst == nil:
			res[i] = batch.Result{Done: at, Err: ErrBadPageSize}
		default:
			lpns = append(lpns, run[i].LPN)
			dsts = append(dsts, dst)
			validIdx = append(validIdx, i)
		}
	}
	ts, d, err := f.ReadBatch(nil, dsts, lpns, at)
	if err != nil {
		return err
	}
	for j, idx := range validIdx {
		res[idx] = batch.Result{Data: dsts[j], Done: ts[j]}
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
	ts, d, err := f.TrimBatch(nil, trims, at)
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
