package nvme

import (
	"fmt"

	"repro/internal/batch"
	"repro/internal/simclock"
)

// MultiQueue is an N-queue-pair NVMe front: one submission/completion
// queue pair per host core, arbitrated round-robin the way an NVMe
// controller arbitrates between submission queues (burst size 1). The
// original single QueuePair remains available for hosts that only want
// one queue; a MultiQueue of one queue behaves identically to it.
type MultiQueue struct {
	ctrl *Controller
	qps  []*QueuePair
	rr   int // arbitration cursor: index of the next queue to serve
}

// MultiQueue creates n queue pairs of the given depth, sharing this
// controller. n defaults to 1, depth to 64 (as in QueuePair).
func (c *Controller) MultiQueue(n, depth int) *MultiQueue {
	if n <= 0 {
		n = 1
	}
	m := &MultiQueue{ctrl: c, qps: make([]*QueuePair, n)}
	for i := range m.qps {
		m.qps[i] = c.QueuePair(depth)
	}
	return m
}

// Queues returns the number of queue pairs.
func (m *MultiQueue) Queues() int { return len(m.qps) }

// Queue returns queue pair i; hosts submit to and reap from it directly.
func (m *MultiQueue) Queue(i int) *QueuePair { return m.qps[i] }

// Outstanding returns the total number of unprocessed submissions across
// all queues.
func (m *MultiQueue) Outstanding() int {
	n := 0
	for _, q := range m.qps {
		n += q.Outstanding()
	}
	return n
}

// Process is the doorbell: it executes up to n submitted commands (n <= 0
// means all currently outstanding), drawing one command per non-empty
// submission queue per round-robin arbitration round, starting where the
// previous call left off. Completions land on each command's own queue in
// that arbitration order. It returns the simulated time after the last
// executed command.
func (m *MultiQueue) Process(n int, at simclock.Time) simclock.Time {
	if n <= 0 {
		n = m.Outstanding()
	}
	for n > 0 {
		served := false
		for k := 0; k < len(m.qps) && n > 0; k++ {
			q := m.qps[m.rr]
			m.rr = (m.rr + 1) % len(m.qps)
			if q.Outstanding() > 0 {
				at = q.Process(1, at)
				n--
				served = true
			}
		}
		if !served {
			break
		}
	}
	return at
}

// ProcessAll drains every submission queue: Process(0, at).
func (m *MultiQueue) ProcessAll(at simclock.Time) simclock.Time { return m.Process(0, at) }

// --- batched command execution ---------------------------------------------

// executeBatched runs a command's page operations through the device's
// submission-batch interface when the device supports it: a multi-page
// NVMe command becomes one device batch, scheduled across NAND channels,
// instead of a page-at-a-time loop. A read's pages land in the completion's
// one buffer, each op pointed at its own page of it. It reports
// handled=false when the command must take the per-op path (partial-page
// edges, flush, or a device without batch support).
func (c *Controller) executeBatched(cmd Command, at *simclock.Time) (comp Completion, handled bool) {
	dev, ok := c.dev.(batch.Device)
	if !ok {
		return Completion{}, false
	}
	end := cmd.SLBA + uint64(cmd.NLB)
	if cmd.SLBA%c.lbasPerPage != 0 || end%c.lbasPerPage != 0 {
		// Partial pages need read-modify-write (or are skipped, for DSM);
		// keep those on the per-op path rather than duplicating the edge
		// handling here.
		return Completion{}, false
	}
	firstPage := cmd.SLBA / c.lbasPerPage
	pages := int(uint64(cmd.NLB) / c.lbasPerPage)
	ops := c.ops[:0]
	var data []byte
	switch cmd.Opcode {
	case OpWrite:
		if len(cmd.Data) != int(cmd.NLB)*LBASize {
			return Completion{CID: cmd.CID, Status: StatusInvalid, At: *at}, true
		}
		for p := 0; p < pages; p++ {
			ops = append(ops, batch.Op{
				Kind: batch.OpWrite, LPN: firstPage + uint64(p),
				Data: cmd.Data[p*c.pageSize : (p+1)*c.pageSize],
			})
		}
	case OpRead:
		data = make([]byte, int(cmd.NLB)*LBASize)
		for p := 0; p < pages; p++ {
			ops = append(ops, batch.Op{
				Kind: batch.OpRead, LPN: firstPage + uint64(p),
				Data: data[p*c.pageSize : (p+1)*c.pageSize],
			})
		}
	case OpDSM:
		for p := 0; p < pages; p++ {
			ops = append(ops, batch.Op{Kind: batch.OpTrim, LPN: firstPage + uint64(p)})
		}
	default:
		return Completion{}, false
	}
	res, done, err := dev.SubmitBatch(ops, *at)
	clear(ops) // the payloads are the command's
	c.ops = ops[:0]
	*at = done
	if err != nil {
		return Completion{CID: cmd.CID, Status: StatusInternal, At: *at}, true
	}
	for i := range res {
		if res[i].Err != nil {
			return Completion{CID: cmd.CID, Status: StatusInternal, At: *at}, true
		}
	}
	return Completion{CID: cmd.CID, Status: StatusSuccess, Data: data, At: *at}, true
}

// String aids debugging of arbitration traces.
func (m *MultiQueue) String() string {
	return fmt.Sprintf("nvme.MultiQueue{queues: %d, outstanding: %d, cursor: %d}", len(m.qps), m.Outstanding(), m.rr)
}
