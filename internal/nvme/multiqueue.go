package nvme

import (
	"fmt"

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

// String aids debugging of arbitration traces.
func (m *MultiQueue) String() string {
	return fmt.Sprintf("nvme.MultiQueue{queues: %d, outstanding: %d, cursor: %d}", len(m.qps), m.Outstanding(), m.rr)
}
