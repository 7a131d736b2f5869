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
// rssd.go are thin wrappers over one-element batches (batch.Do).

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
func (r *RSSD) OnStaleContext(seq uint64, _ simclock.Time) {
	r.curStaleSeq = seq
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

// scratch is a batch's working memory: the LPN, index, log-record, FTL-op,
// completion-time and destination slices of one run, and the duplicate-LPN
// set that splits it. The one goroutine that drives the device reuses it
// from run to run (host runs and restore runs never nest), so a run
// allocates nothing once the slices have grown. The slots that hold a
// payload pointer, writes and dsts, are cleared before a run returns: the
// device never pins a caller's buffer.
type scratch struct {
	lpns    []uint64
	idx     []int
	oldPPNs []uint64
	recs    []oplog.Rec
	writes  []ftl.BatchWrite
	trims   []ftl.BatchTrim
	times   []simclock.Time
	dsts    [][]byte
	seen    map[uint64]struct{}
}

// resetSeen empties the duplicate-LPN set, creating it on first use.
func (s *scratch) resetSeen() {
	if s.seen == nil {
		s.seen = make(map[uint64]struct{})
	}
	clear(s.seen)
}

// lookup fills s.lpns with the LPNs of run[s.idx] and s.oldPPNs with the
// pages they map to.
func (s *scratch) lookup(f *ftl.FTL, run []Op) {
	s.lpns = s.lpns[:0]
	for _, i := range s.idx {
		s.lpns = append(s.lpns, run[i].LPN)
	}
	s.oldPPNs = f.LookupBatch(s.oldPPNs[:0], s.lpns)
}

// submitWrites applies one write run. The run is split into sub-batches at
// duplicate-LPN boundaries: within a sub-batch every LPN is distinct, so
// the OldPPN recorded in each log entry (looked up before the grouped FTL
// write) is exactly what a per-op sequence would have recorded.
func (r *RSSD) submitWrites(run []Op, res []Result, at simclock.Time, done *simclock.Time, mutations *int) error {
	pageSize := r.f.PageSize()
	logical := r.f.LogicalPages()
	s := &r.scratch
	s.idx = s.idx[:0]
	s.resetSeen()
	flush := func() error {
		if len(s.idx) == 0 {
			return nil
		}
		s.lookup(r.f, run)
		s.recs = s.recs[:0]
		for k, i := range s.idx {
			op := &run[i]
			s.recs = append(s.recs, oplog.Rec{
				Kind: oplog.KindWrite, At: at, LPN: op.LPN,
				OldPPN: s.oldPPNs[k], NewPPN: ftl.NoPPN,
				Entropy:  float32(entropy.Sampled(op.Data, 512)),
				DataHash: oplog.HashData(op.Data),
			})
		}
		first := r.log.AppendBatch(s.recs)
		s.writes = s.writes[:0]
		for k, i := range s.idx {
			s.writes = append(s.writes, ftl.BatchWrite{LPN: run[i].LPN, Data: run[i].Data, Seq: first + uint64(k), Hash: s.recs[k].DataHash})
		}
		var err error
		s.times, _, err = r.f.WriteBatch(s.times[:0], s.writes, at)
		clear(s.writes)
		if err != nil {
			return err
		}
		for k, i := range s.idx {
			r.lpnWriteSeq[run[i].LPN] = first + uint64(k)
			r.stats.HostWrites++
			res[i] = Result{Done: s.times[k]}
			if s.times[k] > *done {
				*done = s.times[k]
			}
		}
		*mutations += len(s.idx)
		s.idx = s.idx[:0]
		clear(s.seen)
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
		if _, dup := s.seen[op.LPN]; dup {
			if err := flush(); err != nil {
				return err
			}
		}
		s.seen[op.LPN] = struct{}{}
		s.idx = append(s.idx, i)
	}
	return flush()
}

// submitReads applies one read run: a grouped FTL read into the run's
// destinations (batch.ReadDests) plus one batched append of a KindRead entry
// per read, in submission order (the read-then-overwrite detector's input).
func (r *RSSD) submitReads(run []Op, res []Result, at simclock.Time, done *simclock.Time) error {
	logical := r.f.LogicalPages()
	s := &r.scratch
	s.dsts = batch.ReadDests(s.dsts[:0], run, r.f.PageSize())
	defer clear(s.dsts) // the destinations are the caller's
	// Compact the valid reads to the front of dsts, beside their LPNs.
	s.lpns, s.idx = s.lpns[:0], s.idx[:0]
	for i, dst := range s.dsts {
		switch {
		case run[i].LPN >= logical:
			res[i] = Result{Done: at, Err: ftl.ErrOutOfRange}
		case dst == nil:
			res[i] = Result{Done: at, Err: ftl.ErrBadPageSize}
		default:
			s.dsts[len(s.idx)] = dst
			s.lpns = append(s.lpns, run[i].LPN)
			s.idx = append(s.idx, i)
		}
	}
	dsts := s.dsts[:len(s.idx)]
	var err error
	s.times, _, err = r.f.ReadBatch(s.times[:0], dsts, s.lpns, at)
	if err != nil {
		return err
	}
	s.recs = s.recs[:0]
	for k, i := range s.idx {
		res[i] = Result{Data: dsts[k], Done: s.times[k]}
		if s.times[k] > *done {
			*done = s.times[k]
		}
		r.stats.HostReads++
		s.recs = append(s.recs, oplog.Rec{
			Kind: oplog.KindRead, At: at, LPN: s.lpns[k],
			OldPPN: r.f.Lookup(s.lpns[k]), NewPPN: ftl.NoPPN,
		})
	}
	r.log.AppendBatch(s.recs)
	return nil
}

// submitTrims applies one trim run, split at duplicate-LPN boundaries like
// writes so each log entry's OldPPN is exact.
func (r *RSSD) submitTrims(run []Op, res []Result, at simclock.Time, done *simclock.Time, mutations *int) error {
	logical := r.f.LogicalPages()
	s := &r.scratch
	s.idx = s.idx[:0]
	s.resetSeen()
	flush := func() error {
		if len(s.idx) == 0 {
			return nil
		}
		s.lookup(r.f, run)
		s.recs = s.recs[:0]
		for k, i := range s.idx {
			s.recs = append(s.recs, oplog.Rec{
				Kind: oplog.KindTrim, At: at, LPN: run[i].LPN,
				OldPPN: s.oldPPNs[k], NewPPN: ftl.NoPPN,
			})
		}
		first := r.log.AppendBatch(s.recs)
		s.trims = s.trims[:0]
		for k, i := range s.idx {
			s.trims = append(s.trims, ftl.BatchTrim{LPN: run[i].LPN, Seq: first + uint64(k)})
		}
		var err error
		s.times, _, err = r.f.TrimBatch(s.times[:0], s.trims, at)
		if err != nil {
			return err
		}
		ts := s.times
		for k, i := range s.idx {
			if s.oldPPNs[k] != ftl.NoPPN {
				r.lpnWriteSeq[run[i].LPN] = NoSeq
			}
			r.stats.HostTrims++
			res[i] = Result{Done: ts[k]}
			if ts[k] > *done {
				*done = ts[k]
			}
		}
		*mutations += len(s.idx)
		s.idx = s.idx[:0]
		clear(s.seen)
		return nil
	}

	for i := range run {
		if run[i].LPN >= logical {
			res[i] = Result{Done: at, Err: ftl.ErrOutOfRange}
			continue
		}
		if _, dup := s.seen[run[i].LPN]; dup {
			if err := flush(); err != nil {
				return err
			}
		}
		s.seen[run[i].LPN] = struct{}{}
		s.idx = append(s.idx, i)
	}
	return flush()
}
