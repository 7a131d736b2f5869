package nvme

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/simclock"
)

// TestProcessMoreThanOutstanding: Process(n) with n beyond the queue's
// outstanding submissions executes what is there and no more.
func TestProcessMoreThanOutstanding(t *testing.T) {
	q := newCtrl().QueuePair(32)
	for i := 0; i < 3; i++ {
		if err := q.Submit(Command{Opcode: OpFlush, CID: uint16(i)}); err != nil {
			t.Fatal(err)
		}
	}
	q.Process(100, 0)
	if q.Outstanding() != 0 || len(q.cq) != 3 {
		t.Fatalf("outstanding=%d completions=%d after over-asking", q.Outstanding(), len(q.cq))
	}
	// A second over-ask on an empty SQ is a no-op.
	q.Process(5, 0)
	if len(q.cq) != 3 {
		t.Fatal("processing an empty queue produced completions")
	}
}

// TestReapEmptyCQ: reaping with nothing completed fails cleanly.
func TestReapEmptyCQ(t *testing.T) {
	q := newCtrl().QueuePair(8)
	if _, err := q.Reap(); !errors.Is(err, ErrQueueEmpty) {
		t.Fatalf("err = %v, want ErrQueueEmpty", err)
	}
	// Submitted but unprocessed commands still reap nothing.
	if err := q.Submit(Command{Opcode: OpFlush}); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Reap(); !errors.Is(err, ErrQueueEmpty) {
		t.Fatalf("err = %v, want ErrQueueEmpty before Process", err)
	}
}

// TestSubmitToFullSQAcrossQueues: depth is enforced per queue pair, not
// shared across the MultiQueue.
func TestSubmitToFullSQAcrossQueues(t *testing.T) {
	m := newCtrl().MultiQueue(2, 2)
	q0, q1 := m.Queue(0), m.Queue(1)
	for i := 0; i < 2; i++ {
		if err := q0.Submit(Command{Opcode: OpFlush}); err != nil {
			t.Fatal(err)
		}
	}
	if err := q0.Submit(Command{Opcode: OpFlush}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("q0: err = %v, want ErrQueueFull", err)
	}
	// The sibling queue still has room.
	if err := q1.Submit(Command{Opcode: OpFlush}); err != nil {
		t.Fatalf("q1 rejected despite empty SQ: %v", err)
	}
}

// TestMultiQueueRoundRobinOrder submits two write commands to each of
// three queues and verifies the controller serves them one per queue per
// arbitration round: q0[0], q1[0], q2[0], q0[1], q1[1], q2[1] — visible in
// the monotone completion timestamps across queues.
func TestMultiQueueRoundRobinOrder(t *testing.T) {
	m := newCtrl().MultiQueue(3, 16)
	for qi := 0; qi < 3; qi++ {
		for c := 0; c < 2; c++ {
			cmd := Command{
				Opcode: OpWrite, CID: uint16(qi*10 + c),
				SLBA: uint64((qi*2 + c) * 8), NLB: 8, Data: lbas(byte(qi), 8),
			}
			if err := m.Queue(qi).Submit(cmd); err != nil {
				t.Fatal(err)
			}
		}
	}
	end := m.Process(0, 0)
	if end <= 0 {
		t.Fatal("processing consumed no simulated time")
	}
	if m.Outstanding() != 0 {
		t.Fatalf("outstanding = %d after Process", m.Outstanding())
	}
	// Reap per queue; each queue's completions are in its own submission
	// order, and the k-th completion of queue i must have finished before
	// the k-th completion of queue i+1 (round-robin service order).
	var comps [3][]Completion
	for qi := 0; qi < 3; qi++ {
		for {
			c, err := m.Queue(qi).Reap()
			if err != nil {
				break
			}
			comps[qi] = append(comps[qi], c)
		}
		if len(comps[qi]) != 2 {
			t.Fatalf("queue %d: %d completions, want 2", qi, len(comps[qi]))
		}
	}
	for round := 0; round < 2; round++ {
		for qi := 0; qi < 2; qi++ {
			if comps[qi][round].At >= comps[qi+1][round].At {
				t.Fatalf("round %d: queue %d completed at %v, not before queue %d at %v",
					round, qi, comps[qi][round].At, qi+1, comps[qi+1][round].At)
			}
		}
	}
	// And round 1 of queue 0 comes after round 0 of queue 2.
	if comps[0][1].At <= comps[2][0].At {
		t.Fatal("second arbitration round started before the first finished")
	}
}

// TestMultiQueueCursorResumes: arbitration continues where the previous
// Process left off instead of always restarting at queue 0.
func TestMultiQueueCursorResumes(t *testing.T) {
	m := newCtrl().MultiQueue(2, 8)
	m.Queue(0).Submit(Command{Opcode: OpFlush, CID: 1})
	m.Queue(1).Submit(Command{Opcode: OpFlush, CID: 2})
	m.Process(1, 0) // serves queue 0
	if len(m.Queue(0).cq) != 1 || len(m.Queue(1).cq) != 0 {
		t.Fatal("first Process(1) did not serve queue 0")
	}
	m.Queue(0).Submit(Command{Opcode: OpFlush, CID: 3})
	m.Process(1, 0) // cursor is at queue 1: its command goes first
	if len(m.Queue(1).cq) != 1 {
		t.Fatal("arbitration cursor did not resume at queue 1")
	}
}

// TestMultiQueueDataIntegrity pushes interleaved writes through many
// queues and reads everything back through another queue: the batched
// doorbell path must preserve contents exactly.
func TestMultiQueueDataIntegrity(t *testing.T) {
	ctrl := newCtrl()
	m := ctrl.MultiQueue(4, 32)
	// 16 pages, striped across queues, written as full-page commands
	// (8 LBAs per 4 KiB page at 512-byte LBAs = NLB 8).
	for p := 0; p < 16; p++ {
		cmd := Command{Opcode: OpWrite, CID: uint16(p), SLBA: uint64(p * 8), NLB: 8, Data: lbas(byte(p), 8)}
		if err := m.Queue(p % 4).Submit(cmd); err != nil {
			t.Fatal(err)
		}
	}
	m.Process(0, 0)
	q := m.Queue(0)
	if err := q.Submit(Command{Opcode: OpRead, CID: 99, SLBA: 0, NLB: 16 * 8}); err != nil {
		t.Fatal(err)
	}
	m.Process(0, simclock.Time(simclock.Second))
	var read Completion
	for {
		c, err := q.Reap()
		if err != nil {
			t.Fatal("read completion not found")
		}
		if c.CID == 99 {
			read = c
			break
		}
	}
	if read.Status != StatusSuccess {
		t.Fatalf("read status %v", read.Status)
	}
	for p := 0; p < 16; p++ {
		if !bytes.Equal(read.Data[p*8*LBASize:(p+1)*8*LBASize], lbas(byte(p), 8)) {
			t.Fatalf("page %d content mismatch", p)
		}
	}
}
