// Package batch defines the one way into a device: the submission-batch
// operations and completions every layer of the stack (host filesystem, NVMe
// controller, RSSD core, bare FTL) exchanges, and the Device interface that
// takes them.
//
// The paper's prototype gets its performance from device-level parallelism
// — multiple NAND channels, a deep NVMe queue — which a strictly per-op
// interface can never express: each call completes before the next is
// issued, so the device sees a queue depth of one. An Op slice is the host
// handing the device a whole submission window at once; the device is free
// to schedule it across channels and amortize per-op costs (locking, log
// sealing, retention checks) over the batch. No layer keeps a per-op path
// beside it: a device's per-op methods are one-element batches (Do), and
// host.BlockDevice and the NVMe controller take a Device and nothing else.
//
// The package sits below every other layer (it depends only on simclock)
// so that devices (internal/ftl, internal/core) and consumers
// (internal/host, internal/nvme, internal/experiment) can share the types
// without import cycles.
package batch

import "repro/internal/simclock"

// Kind enumerates batched block operations.
type Kind uint8

// Batched operation kinds.
const (
	OpWrite Kind = iota + 1
	OpRead
	OpTrim
)

// Op is one page-granular operation within a submission batch.
type Op struct {
	Kind Kind
	LPN  uint64
	// Data is a write's payload, exactly one page, and a read's destination:
	// a read with exactly one page of Data lands in it, one with nil Data
	// lands in a page the device allocates (see ReadDests), and any other
	// length fails the op with a bad page size. Trims ignore it.
	Data []byte
}

// Result is the completion for one Op, aligned by index.
type Result struct {
	Data []byte        // read payload: the op's destination
	Done simclock.Time // simulated completion time of this operation
	Err  error         // per-op failure (bad size, out of range); nil on success
}

// ReadDests appends to dst where each read of run lands: its own Data when
// that is exactly pageSize bytes, nil for any other non-nil length (the
// device fails that op), and for every op with nil Data a page of one zeroed
// buffer allocated for the whole run. Those pages have their capacity capped
// at the page, so appending to one read's result never writes into the next.
func ReadDests(dst [][]byte, run []Op, pageSize int) [][]byte {
	n := 0
	for i := range run {
		if run[i].Data == nil {
			n++
		}
	}
	var buf []byte
	if n > 0 {
		buf = make([]byte, n*pageSize)
	}
	for i := range run {
		d := run[i].Data
		switch {
		case d == nil:
			d, buf = buf[:pageSize:pageSize], buf[pageSize:]
		case len(d) != pageSize:
			d = nil
		}
		dst = append(dst, d)
	}
	return dst
}

// Device accepts submission batches. SubmitBatch applies ops in submission
// order with respect to state (a read after a write to the same page sees
// the new data) while letting the device overlap operations on independent
// hardware resources. It returns per-op results, the completion time of
// the whole batch, and a batch-level error for failures that abort the
// remainder of the batch (device full, I/O error); per-op validation
// failures land in the matching Result instead and do not stop the batch.
type Device interface {
	SubmitBatch(ops []Op, at simclock.Time) ([]Result, simclock.Time, error)
}

// ForEachRun segments ops into maximal runs of the same kind and calls fn
// for each, in order, stopping at the first error. Devices use it to
// dispatch a mixed batch kind by kind while keeping state changes in
// submission order.
func ForEachRun(ops []Op, fn func(start, end int, kind Kind) error) error {
	for start := 0; start < len(ops); {
		end := start + 1
		for end < len(ops) && ops[end].Kind == ops[start].Kind {
			end++
		}
		if err := fn(start, end, ops[start].Kind); err != nil {
			return err
		}
		start = end
	}
	return nil
}

// SubmitOne adapts a single per-op call onto a Device: the per-op methods
// of batch-capable devices are thin wrappers over one-element batches, and
// this helper is that wrapper.
func SubmitOne(dev Device, op Op, at simclock.Time) (Result, simclock.Time, error) {
	res, done, err := dev.SubmitBatch([]Op{op}, at)
	if err != nil {
		return Result{Done: at, Err: err}, done, err
	}
	return res[0], done, nil
}

// Do is SubmitOne with the op's own failure folded into the error: it
// returns a read's data and the batch's completion, or the op's completion
// and error when the op failed.
func Do(dev Device, op Op, at simclock.Time) ([]byte, simclock.Time, error) {
	res, done, err := SubmitOne(dev, op, at)
	if err != nil {
		return nil, done, err
	}
	if res.Err != nil {
		return nil, res.Done, res.Err
	}
	return res.Data, done, nil
}
