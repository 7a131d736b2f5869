package nand

import "repro/internal/simclock"

// This file implements the per-channel batch scheduler: grouped page
// programs and reads that are interleaved across chips by next-free
// timestamp instead of being serialized in arrival order.
//
// The per-op entry points (Read, Program) model a firmware loop that waits
// for each flash operation to finish before issuing the next, so two
// operations on different chips never overlap even though the hardware
// could run them concurrently. The batch entry points model what the real
// controller does with a full submission queue: every chip with pending
// work is kept busy, and the scheduler always advances the chip that
// becomes free earliest. Operations targeting the same chip still
// serialize (and, within a block, still program in page order); operations
// on different chips overlap in simulated time.

// PageProgram describes one page program in a ProgramBatch.
type PageProgram struct {
	PPN  uint64
	Data []byte
	OOB  OOB
}

// chipQueue indexes a batch's operations for one chip, in submission order.
// The device keeps one per chip (Device.sched) and reuses its index slice, so
// scheduling a batch allocates nothing once the slices have grown.
type chipQueue struct {
	ops  []int // indexes into the batch
	next int   // next unissued op
}

// schedule runs a batch through the per-chip scheduler. ops[i] is issued by
// calling issue(i, start) where start is when the chip picks the operation
// up; issue returns the completion time (which the scheduler records as the
// chip's next-free time) or an error, which aborts the batch. chipOf maps a
// batch index to its chip. Per-op completion times are written into times.
// Called with d.mu held, which also guards the scratch queues.
func (d *Device) schedule(n int, chipOf func(int) int, times []simclock.Time,
	issue func(op int, start simclock.Time) (simclock.Time, error)) error {
	// Group the batch by chip, preserving submission order within a chip —
	// NAND requires in-order programming within a block, and same-chip
	// operations serialize anyway.
	for c := range d.sched {
		d.sched[c].ops, d.sched[c].next = d.sched[c].ops[:0], 0
	}
	for i := 0; i < n; i++ {
		q := &d.sched[chipOf(i)]
		q.ops = append(q.ops, i)
	}
	// Interleave: always advance the chip that frees up earliest (ties go
	// to the lower chip index, keeping the schedule deterministic).
	for {
		pick := -1
		var pickFree simclock.Time
		for c := range d.sched {
			if q := &d.sched[c]; q.next >= len(q.ops) {
				continue
			}
			if free := d.chipBusy[c]; pick < 0 || free < pickFree {
				pick, pickFree = c, free
			}
		}
		if pick < 0 {
			return nil
		}
		q := &d.sched[pick]
		op := q.ops[q.next]
		q.next++
		done, err := issue(op, pickFree)
		if err != nil {
			return err
		}
		times[op] = done
	}
}

// ProgramBatch programs a group of pages as one submission. Each program
// starts no earlier than at and no earlier than its chip's next-free time;
// chips proceed independently, so programs on different chips overlap. It
// returns per-operation completion times (aligned with ops) and the batch
// completion time (the latest of them, or at for an empty batch).
//
// An error aborts the batch at the failing operation: earlier operations
// remain programmed, and their entries in the returned times are valid.
func (d *Device) ProgramBatch(ops []PageProgram, at simclock.Time) ([]simclock.Time, simclock.Time, error) {
	times := make([]simclock.Time, len(ops))
	if len(ops) == 0 {
		return times, at, nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	err := d.schedule(len(ops), func(i int) int {
		return d.geo.ChipOfBlock(d.geo.BlockOf(ops[i].PPN))
	}, times, func(i int, start simclock.Time) (simclock.Time, error) {
		op := ops[i]
		return d.programLocked(op.PPN, op.Data, op.OOB, simclock.Max(at, start))
	})
	done := at
	for _, t := range times {
		if t > done {
			done = t
		}
	}
	return times, done, err
}

// ReadBatch reads a group of pages as one submission, with the same
// scheduling and error semantics as ProgramBatch. It returns the page
// contents and OOB areas aligned with ppns.
func (d *Device) ReadBatch(ppns []uint64, at simclock.Time) ([][]byte, []OOB, []simclock.Time, simclock.Time, error) {
	data := make([][]byte, len(ppns))
	oobs := make([]OOB, len(ppns))
	times := make([]simclock.Time, len(ppns))
	if len(ppns) == 0 {
		return data, oobs, times, at, nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	// Out-of-range PPNs would panic inside chipOf; reject them up front.
	for _, ppn := range ppns {
		if ppn >= uint64(len(d.pages)) {
			return data, oobs, times, at, ErrOutOfRange
		}
	}
	err := d.schedule(len(ppns), func(i int) int {
		return d.geo.ChipOfBlock(d.geo.BlockOf(ppns[i]))
	}, times, func(i int, start simclock.Time) (simclock.Time, error) {
		pg, oob, done, err := d.readLocked(ppns[i], simclock.Max(at, start))
		if err != nil {
			return at, err
		}
		data[i], oobs[i] = pg, oob
		return done, nil
	})
	done := at
	for _, t := range times {
		if t > done {
			done = t
		}
	}
	return data, oobs, times, done, err
}
