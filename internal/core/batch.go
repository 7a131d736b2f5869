package core

import (
	"fmt"

	"repro/internal/batch"
	"repro/internal/entropy"
	"repro/internal/ftl"
	"repro/internal/oplog"
	"repro/internal/simclock"
)

// This file implements the RSSD half of the batched datapath. SubmitBatch
// is the firmware taking a whole submission window at once: operations are
// grouped into same-kind runs, each run's log entries are sealed under one
// lock acquisition (oplog.AppendBatch), grouped FTL operations spread the
// run across NAND channels, and the background duties — the retention
// watermark check, the offload drain, the periodic checkpoint — run once
// per batch instead of once per op. The per-op Write/Read/Trim methods in
// rssd.go are thin wrappers over one-element batches.

// Op is one operation in a submission batch (alias of the stack-wide wire
// type; see internal/batch).
type Op = batch.Op

// Result is the completion of one Op.
type Result = batch.Result

// Batched operation kinds.
const (
	OpWrite = batch.OpWrite
	OpRead  = batch.OpRead
	OpTrim  = batch.OpTrim
)

// OnStaleContext implements ftl.StaleSeqObserver: inside a grouped FTL
// operation, it is called just before each op's invalidation so the
// retention entries created by OnStale carry that op's log sequence.
func (r *RSSD) OnStaleContext(seq uint64, at simclock.Time) {
	r.curStaleSeq, r.curStaleAt = seq, at
}

// SubmitBatch executes a submission batch. Operations are applied in
// submission order with respect to state; the device overlaps them across
// NAND channels where the hardware allows. Per-op validation failures are
// reported in the matching Result; a device-level failure (out of space,
// I/O error) aborts the batch with an error, leaving earlier operations
// applied. The retention/offload check and checkpoint accounting run once
// for the whole batch.
func (r *RSSD) SubmitBatch(ops []Op, at simclock.Time) ([]Result, simclock.Time, error) {
	res := make([]Result, len(ops))
	done := at
	mutations := 0
	err := batch.ForEachRun(ops, func(start, end int, kind batch.Kind) error {
		run, runRes := ops[start:end], res[start:end]
		switch kind {
		case OpWrite:
			return r.submitWrites(run, runRes, at, &done, &mutations)
		case OpRead:
			return r.submitReads(run, runRes, at, &done)
		case OpTrim:
			return r.submitTrims(run, runRes, at, &done, &mutations)
		default:
			for i := range runRes {
				runRes[i] = Result{Done: at, Err: fmt.Errorf("core: unknown batch op kind %d", kind)}
			}
			return nil
		}
	})
	if err != nil {
		return res, done, err
	}
	if mutations > 0 {
		var err error
		if done, err = r.afterOps(mutations, done); err != nil {
			return res, done, err
		}
	}
	return res, done, nil
}

// submitWrites applies one write run. The run is split into sub-batches at
// duplicate-LPN boundaries: within a sub-batch every LPN is distinct, so
// the OldPPN recorded in each log entry (looked up before the grouped FTL
// write) is exactly what a per-op sequence would have recorded.
func (r *RSSD) submitWrites(run []Op, res []Result, at simclock.Time, done *simclock.Time, mutations *int) error {
	pageSize := r.f.PageSize()
	logical := r.f.LogicalPages()

	var sub []int
	seen := make(map[uint64]struct{}, len(run))
	flush := func() error {
		if len(sub) == 0 {
			return nil
		}
		lpns := make([]uint64, len(sub))
		for k, i := range sub {
			lpns[k] = run[i].LPN
		}
		oldPPNs := r.f.LookupBatch(lpns)
		recs := make([]oplog.Rec, len(sub))
		for k, i := range sub {
			op := &run[i]
			recs[k] = oplog.Rec{
				Kind: oplog.KindWrite, At: at, LPN: op.LPN,
				OldPPN: oldPPNs[k], NewPPN: ftl.NoPPN,
				Entropy:  float32(entropy.Sampled(op.Data, 512)),
				DataHash: oplog.HashData(op.Data),
			}
		}
		entries := r.log.AppendBatch(recs)
		writes := make([]ftl.BatchWrite, len(sub))
		for k, i := range sub {
			writes[k] = ftl.BatchWrite{LPN: run[i].LPN, Data: run[i].Data, Seq: entries[k].Seq, Hash: entries[k].DataHash}
		}
		ts, _, err := r.f.WriteBatch(writes, at)
		if err != nil {
			return err
		}
		for k, i := range sub {
			r.lpnWriteSeq[run[i].LPN] = entries[k].Seq
			r.stats.HostWrites++
			res[i] = Result{Done: ts[k]}
			if ts[k] > *done {
				*done = ts[k]
			}
		}
		*mutations += len(sub)
		sub = sub[:0]
		clear(seen)
		return nil
	}

	for i := range run {
		op := &run[i]
		switch {
		case len(op.Data) != pageSize:
			res[i] = Result{Done: at, Err: ftl.ErrBadPageSize}
			continue
		case op.LPN >= logical:
			res[i] = Result{Done: at, Err: ftl.ErrOutOfRange}
			continue
		}
		if _, dup := seen[op.LPN]; dup {
			if err := flush(); err != nil {
				return err
			}
		}
		seen[op.LPN] = struct{}{}
		sub = append(sub, i)
	}
	return flush()
}

// submitReads applies one read run: a grouped FTL read plus one batched
// append of the sampled read-log entries.
func (r *RSSD) submitReads(run []Op, res []Result, at simclock.Time, done *simclock.Time) error {
	logical := r.f.LogicalPages()
	var lpns []uint64
	var idx []int
	for i := range run {
		if run[i].LPN >= logical {
			res[i] = Result{Done: at, Err: ftl.ErrOutOfRange}
			continue
		}
		lpns = append(lpns, run[i].LPN)
		idx = append(idx, i)
	}
	data, ts, _, err := r.f.ReadBatch(lpns, at)
	if err != nil {
		return err
	}
	var recs []oplog.Rec
	for k, i := range idx {
		res[i] = Result{Data: data[k], Done: ts[k]}
		if ts[k] > *done {
			*done = ts[k]
		}
		r.stats.HostReads++
		if n := r.cfg.ReadLogSampling; n > 0 {
			r.readCounter++
			if r.readCounter%uint64(n) == 0 {
				recs = append(recs, oplog.Rec{
					Kind: oplog.KindRead, At: at, LPN: lpns[k],
					OldPPN: r.f.Lookup(lpns[k]), NewPPN: ftl.NoPPN,
				})
			}
		}
	}
	r.log.AppendBatch(recs)
	return nil
}

// submitTrims applies one trim run, split at duplicate-LPN boundaries like
// writes so each log entry's OldPPN is exact.
func (r *RSSD) submitTrims(run []Op, res []Result, at simclock.Time, done *simclock.Time, mutations *int) error {
	logical := r.f.LogicalPages()

	var sub []int
	seen := make(map[uint64]struct{}, len(run))
	flush := func() error {
		if len(sub) == 0 {
			return nil
		}
		lpns := make([]uint64, len(sub))
		for k, i := range sub {
			lpns[k] = run[i].LPN
		}
		oldPPNs := r.f.LookupBatch(lpns)
		recs := make([]oplog.Rec, len(sub))
		for k, i := range sub {
			recs[k] = oplog.Rec{
				Kind: oplog.KindTrim, At: at, LPN: run[i].LPN,
				OldPPN: oldPPNs[k], NewPPN: ftl.NoPPN,
			}
		}
		entries := r.log.AppendBatch(recs)
		trims := make([]ftl.BatchTrim, len(sub))
		for k, i := range sub {
			trims[k] = ftl.BatchTrim{LPN: run[i].LPN, Seq: entries[k].Seq}
		}
		ts, _, err := r.f.TrimBatch(trims, at)
		if err != nil {
			return err
		}
		for k, i := range sub {
			if oldPPNs[k] != ftl.NoPPN {
				r.lpnWriteSeq[run[i].LPN] = NoSeq
			}
			r.stats.HostTrims++
			res[i] = Result{Done: ts[k]}
			if ts[k] > *done {
				*done = ts[k]
			}
		}
		*mutations += len(sub)
		sub = sub[:0]
		clear(seen)
		return nil
	}

	for i := range run {
		if run[i].LPN >= logical {
			res[i] = Result{Done: at, Err: ftl.ErrOutOfRange}
			continue
		}
		if _, dup := seen[run[i].LPN]; dup {
			if err := flush(); err != nil {
				return err
			}
		}
		seen[run[i].LPN] = struct{}{}
		sub = append(sub, i)
	}
	return flush()
}
