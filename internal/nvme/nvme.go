// Package nvme models the block I/O interface of Figure 1: an NVMe-style
// command set with submission/completion queues between the (untrusted)
// host and the device firmware.
//
// Commands address 512-byte logical blocks, as NVMe does; the controller
// translates them to the device's flash pages. The device is a batch.Device
// and nothing else: a command's pages go to it as one submission batch,
// scheduled across NAND channels, and a write with partial pages at its
// edges is two — the edge pages read, then every page written. Trims map to
// Dataset Management deallocations of whole pages, and completions preserve
// submission order per queue — the firmware event loop processes one
// submission queue entry at a time, which is also the concurrency model the
// rest of the simulation assumes.
//
// A read lands in a buffer its queue pair lends, as an NVMe host's
// pre-registered DMA buffers or io_uring's provided buffers: a completion's
// Data is valid until the next Reap on the same queue, which takes its
// buffer back for a later command. A queue keeps at most depth+1 buffers,
// and the bounce buffer of an unaligned write is one of them, taken and
// given back within the command, so no command allocates its payload.
package nvme

import (
	"errors"
	"fmt"

	"repro/internal/batch"
	"repro/internal/host"
	"repro/internal/simclock"
)

// Opcode is an NVMe I/O command opcode (the subset the evaluation needs).
type Opcode uint8

// Supported opcodes.
const (
	OpFlush Opcode = 0x00
	OpWrite Opcode = 0x01
	OpRead  Opcode = 0x02
	// OpDSM is Dataset Management with the Deallocate attribute: trim.
	OpDSM Opcode = 0x09
)

func (o Opcode) String() string {
	switch o {
	case OpFlush:
		return "flush"
	case OpWrite:
		return "write"
	case OpRead:
		return "read"
	case OpDSM:
		return "dsm-deallocate"
	default:
		return fmt.Sprintf("Opcode(%#x)", uint8(o))
	}
}

// Status is an NVMe completion status code (simplified).
type Status uint16

// Completion statuses.
const (
	StatusSuccess  Status = 0x0
	StatusLBARange Status = 0x80 // LBA out of range
	StatusInternal Status = 0x6
	StatusInvalid  Status = 0x2 // invalid field (bad size, nil buffer)
)

// LBASize is the logical block size exposed by the controller.
const LBASize = 512

// Command is one submission-queue entry.
type Command struct {
	Opcode Opcode
	CID    uint16 // command identifier, echoed in the completion
	SLBA   uint64 // starting LBA
	NLB    uint32 // number of logical blocks
	Data   []byte // write payload (len == NLB*LBASize)
}

// Completion is one completion-queue entry.
type Completion struct {
	CID    uint16
	Status Status
	// Data is a read's payload, in a buffer the queue lends: valid until
	// the next Reap on the same queue, which takes the buffer back.
	Data   []byte
	SQHead int // submission queue head after this completion
	At     simclock.Time
	buf    []byte // the queue's buffer behind Data
}

// Errors returned by queue operations.
var (
	ErrQueueFull  = errors.New("nvme: submission queue full")
	ErrQueueEmpty = errors.New("nvme: completion queue empty")
)

// Controller fronts a block device with NVMe-style queue pairs. Like the
// firmware event loop it models, it is driven by one goroutine.
type Controller struct {
	dev         host.BlockDevice
	pageSize    int
	lbasPerPage uint64
	maxLBA      uint64
	ops         []batch.Op // a command's page operations, reused
}

// NewController wraps a block device. The device's page size must be a
// multiple of the 512-byte LBA size (flash pages always are).
func NewController(dev host.BlockDevice) *Controller {
	ps := dev.PageSize()
	if ps%LBASize != 0 {
		panic(fmt.Sprintf("nvme: page size %d not a multiple of %d", ps, LBASize))
	}
	lpp := uint64(ps / LBASize)
	return &Controller{
		dev:         dev,
		pageSize:    ps,
		lbasPerPage: lpp,
		maxLBA:      dev.LogicalPages() * lpp,
	}
}

// QueuePair creates a submission/completion queue pair of the given depth.
func (c *Controller) QueuePair(depth int) *QueuePair {
	if depth <= 0 {
		depth = 64
	}
	return &QueuePair{ctrl: c, depth: depth}
}

// QueuePair is one NVMe SQ/CQ pair. Not safe for concurrent use, like a
// per-core NVMe queue. It owns the buffers its reads land in: each is
// spare, behind a completion on the queue, or lent to the last one reaped.
type QueuePair struct {
	ctrl  *Controller
	depth int
	sq    []Command
	cq    []Completion
	spare [][]byte // buffers no completion holds
	lent  []byte   // the buffer behind the last reaped completion's Data
}

// Submit places a command on the submission queue.
func (q *QueuePair) Submit(cmd Command) error {
	if len(q.sq)+len(q.cq) >= q.depth {
		return ErrQueueFull
	}
	q.sq = append(q.sq, cmd)
	return nil
}

// Process executes up to n submitted commands (n <= 0 means all),
// appending completions in submission order. It returns the simulated time
// after the last executed command.
func (q *QueuePair) Process(n int, at simclock.Time) simclock.Time {
	if n <= 0 || n > len(q.sq) {
		n = len(q.sq)
	}
	for i := 0; i < n; i++ {
		cmd := q.sq[i]
		comp := q.ctrl.execute(q, cmd, &at)
		comp.SQHead = len(q.sq) - (i + 1)
		q.cq = append(q.cq, comp)
	}
	q.sq = shift(q.sq, n)
	return at
}

// shift drops the first n entries of a queue in place, clearing the slots it
// vacates so a queue never keeps a finished command's buffer alive.
func shift[T any](s []T, n int) []T {
	k := copy(s, s[n:])
	clear(s[k:])
	return s[:k]
}

// Reap pops the oldest completion and takes back the buffer of the one it
// popped before, whose Data a later command may overwrite.
func (q *QueuePair) Reap() (Completion, error) {
	if len(q.cq) == 0 {
		return Completion{}, ErrQueueEmpty
	}
	comp := q.cq[0]
	q.cq = shift(q.cq, 1)
	q.giveBack(q.lent)
	q.lent = comp.buf
	return comp, nil
}

// buffer takes a spare buffer of n bytes, replacing it with a longer one if
// it is too short, or makes one if the queue has none spare. It is the
// package's one source of payload buffers. A buffer is made only when none
// is spare, and at most depth+1 are in use at once: one per completion
// queued or command running, which Submit caps at depth together, and the
// one lent to the last reaped.
func (q *QueuePair) buffer(n int) []byte {
	if k := len(q.spare) - 1; k >= 0 {
		b := q.spare[k]
		q.spare[k] = nil
		q.spare = q.spare[:k]
		if cap(b) >= n {
			return b[:n]
		}
	}
	return make([]byte, n)
}

// giveBack makes a buffer spare again.
func (q *QueuePair) giveBack(b []byte) {
	if b != nil {
		q.spare = append(q.spare, b)
	}
}

// Outstanding returns the number of unprocessed submissions.
func (q *QueuePair) Outstanding() int { return len(q.sq) }

// execute runs one command of queue q against the device.
func (c *Controller) execute(q *QueuePair, cmd Command, at *simclock.Time) Completion {
	comp := Completion{CID: cmd.CID, Status: StatusSuccess}
	end := cmd.SLBA + uint64(cmd.NLB)
	if cmd.Opcode != OpFlush && (cmd.NLB == 0 || end > c.maxLBA || end < cmd.SLBA) {
		comp.Status = StatusLBARange
		comp.At = *at
		return comp
	}
	var err error
	switch cmd.Opcode {
	case OpFlush:
		// All writes are durable on completion in this model.
	case OpWrite:
		if len(cmd.Data) != int(cmd.NLB)*LBASize {
			comp.Status = StatusInvalid
			break
		}
		err = c.write(q, cmd, at)
	case OpRead:
		comp.buf, comp.Data, err = c.read(q, cmd, at)
	case OpDSM:
		// Deallocate: whole pages are trimmed; partial pages at the
		// edges are left alone (deallocation is advisory in NVMe).
		first := (cmd.SLBA + c.lbasPerPage - 1) / c.lbasPerPage
		for p := first; p < end/c.lbasPerPage; p++ {
			c.ops = append(c.ops, batch.Op{Kind: batch.OpTrim, LPN: p})
		}
		err = c.submit(at)
	default:
		comp.Status = StatusInvalid
	}
	if err != nil {
		comp = Completion{CID: cmd.CID, Status: StatusInternal}
	}
	comp.At = *at
	return comp
}

// span returns the first page a command touches, how many pages it spans,
// and its byte offset into the first of them.
func (c *Controller) span(cmd Command) (first uint64, pages, head int) {
	first = cmd.SLBA / c.lbasPerPage
	last := (cmd.SLBA + uint64(cmd.NLB) - 1) / c.lbasPerPage
	return first, int(last-first) + 1, int(cmd.SLBA-first*c.lbasPerPage) * LBASize
}

// pageOps appends one op of the given kind per page of buf, from page first.
func (c *Controller) pageOps(kind batch.Kind, first uint64, buf []byte) {
	for p := 0; p*c.pageSize < len(buf); p++ {
		c.ops = append(c.ops, batch.Op{Kind: kind, LPN: first + uint64(p), Data: buf[p*c.pageSize : (p+1)*c.pageSize]})
	}
}

// read lands every page the command spans in one of q's buffers and returns
// that buffer and the command's blocks of it.
func (c *Controller) read(q *QueuePair, cmd Command, at *simclock.Time) (buf, data []byte, err error) {
	first, pages, head := c.span(cmd)
	buf = q.buffer(pages * c.pageSize)
	c.pageOps(batch.OpRead, first, buf)
	if err := c.submit(at); err != nil {
		q.giveBack(buf)
		return nil, nil, err
	}
	n := int(cmd.NLB) * LBASize
	return buf, buf[head : head+n : head+n], nil
}

// write programs every page the command spans. Partial pages at the edges
// are read-modify-write, exactly what a controller does: the edge pages are
// read first, as one batch, into a buffer of q's that the command gives back
// when it ends, and the command's blocks copied over them.
func (c *Controller) write(q *QueuePair, cmd Command, at *simclock.Time) error {
	first, pages, head := c.span(cmd)
	src := cmd.Data
	if tail := pages*c.pageSize - head - len(src); head > 0 || tail > 0 {
		src = q.buffer(pages * c.pageSize)
		defer q.giveBack(src)
		if head > 0 {
			c.pageOps(batch.OpRead, first, src[:c.pageSize])
		}
		if tail > 0 && (pages > 1 || head == 0) {
			c.pageOps(batch.OpRead, first+uint64(pages-1), src[len(src)-c.pageSize:])
		}
		if err := c.submit(at); err != nil {
			return err
		}
		copy(src[head:], cmd.Data)
	}
	c.pageOps(batch.OpWrite, first, src)
	return c.submit(at)
}

// submit hands the pending page operations to the device as one batch and
// moves *at to its completion. Any failed operation fails the command.
func (c *Controller) submit(at *simclock.Time) error {
	ops := c.ops
	if len(ops) == 0 {
		return nil
	}
	res, done, err := c.dev.SubmitBatch(ops, *at)
	clear(ops) // the payloads are the command's
	c.ops = ops[:0]
	*at = done
	if err != nil {
		return err
	}
	for i := range res {
		if res[i].Err != nil {
			return res[i].Err
		}
	}
	return nil
}
