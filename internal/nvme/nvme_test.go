package nvme

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/ftl"
	"repro/internal/nand"
	"repro/internal/simclock"
)

// newCtrl returns a controller over a plain FTL with 4 KiB pages.
func newCtrl() *Controller {
	cfg := ftl.Config{
		NAND: nand.Config{
			Geometry: nand.Geometry{
				Channels: 2, ChipsPerChannel: 2, DiesPerChip: 1, PlanesPerDie: 1,
				BlocksPerPlane: 32, PagesPerBlock: 16, PageSize: 4096,
			},
			Timing: nand.DefaultTiming(),
		},
		OverProvision: 0.2,
	}
	return NewController(ftl.New(cfg, nil))
}

func lbas(b byte, n int) []byte {
	p := make([]byte, n*LBASize)
	for i := range p {
		p[i] = b
	}
	return p
}

func submitAndRun(t *testing.T, q *QueuePair, cmd Command) Completion {
	t.Helper()
	if err := q.Submit(cmd); err != nil {
		t.Fatal(err)
	}
	q.Process(0, 0)
	comp, err := q.Reap()
	if err != nil {
		t.Fatal(err)
	}
	return comp
}

func TestWriteReadAligned(t *testing.T) {
	q := newCtrl().QueuePair(32)
	data := lbas(0xAB, 16) // exactly two pages
	w := submitAndRun(t, q, Command{Opcode: OpWrite, CID: 1, SLBA: 0, NLB: 16, Data: data})
	if w.Status != StatusSuccess || w.CID != 1 {
		t.Fatalf("write completion: %+v", w)
	}
	r := submitAndRun(t, q, Command{Opcode: OpRead, CID: 2, SLBA: 0, NLB: 16})
	if r.Status != StatusSuccess || !bytes.Equal(r.Data, data) {
		t.Fatalf("read mismatch: status %v, %d bytes", r.Status, len(r.Data))
	}
}

func TestUnalignedWriteReadModifyWrite(t *testing.T) {
	q := newCtrl().QueuePair(32)
	// Fill page 0 with background, then overwrite LBAs 2..5 only.
	submitAndRun(t, q, Command{Opcode: OpWrite, CID: 1, SLBA: 0, NLB: 8, Data: lbas(0x11, 8)})
	w := submitAndRun(t, q, Command{Opcode: OpWrite, CID: 2, SLBA: 2, NLB: 3, Data: lbas(0x22, 3)})
	if w.Status != StatusSuccess {
		t.Fatalf("partial write: %+v", w)
	}
	r := submitAndRun(t, q, Command{Opcode: OpRead, CID: 3, SLBA: 0, NLB: 8})
	for i := 0; i < 8; i++ {
		want := byte(0x11)
		if i >= 2 && i < 5 {
			want = 0x22
		}
		if r.Data[i*LBASize] != want {
			t.Fatalf("lba %d = %#x, want %#x", i, r.Data[i*LBASize], want)
		}
	}
}

func TestCrossPageUnalignedRead(t *testing.T) {
	q := newCtrl().QueuePair(32)
	submitAndRun(t, q, Command{Opcode: OpWrite, CID: 1, SLBA: 0, NLB: 24, Data: func() []byte {
		p := make([]byte, 24*LBASize)
		for i := 0; i < 24; i++ {
			p[i*LBASize] = byte(i)
		}
		return p
	}()})
	// Read LBAs 6..18: spans three pages, unaligned on both ends.
	r := submitAndRun(t, q, Command{Opcode: OpRead, CID: 2, SLBA: 6, NLB: 12})
	if r.Status != StatusSuccess || len(r.Data) != 12*LBASize {
		t.Fatalf("read: %+v (%d bytes)", r.Status, len(r.Data))
	}
	for i := 0; i < 12; i++ {
		if r.Data[i*LBASize] != byte(6+i) {
			t.Fatalf("lba %d = %d, want %d", 6+i, r.Data[i*LBASize], 6+i)
		}
	}
}

func TestDSMTrimsWholePagesOnly(t *testing.T) {
	ctrl := newCtrl()
	q := ctrl.QueuePair(32)
	submitAndRun(t, q, Command{Opcode: OpWrite, CID: 1, SLBA: 0, NLB: 24, Data: lbas(0x33, 24)})
	// Deallocate LBAs 4..20: only page 1 (LBAs 8..15) is fully covered.
	d := submitAndRun(t, q, Command{Opcode: OpDSM, CID: 2, SLBA: 4, NLB: 16})
	if d.Status != StatusSuccess {
		t.Fatalf("dsm: %+v", d)
	}
	r := submitAndRun(t, q, Command{Opcode: OpRead, CID: 3, SLBA: 0, NLB: 24})
	if r.Data[0] != 0x33 || r.Data[23*LBASize] != 0x33 {
		t.Fatal("partial pages were trimmed")
	}
	if r.Data[8*LBASize] != 0 || r.Data[15*LBASize] != 0 {
		t.Fatal("fully covered page not trimmed")
	}
}

func TestFlushCompletes(t *testing.T) {
	q := newCtrl().QueuePair(32)
	c := submitAndRun(t, q, Command{Opcode: OpFlush, CID: 9})
	if c.Status != StatusSuccess || c.CID != 9 {
		t.Fatalf("flush: %+v", c)
	}
}

func TestLBARangeErrors(t *testing.T) {
	ctrl := newCtrl()
	q := ctrl.QueuePair(32)
	max := ctrl.maxLBA
	cases := []Command{
		{Opcode: OpRead, SLBA: max, NLB: 1},
		{Opcode: OpWrite, SLBA: max - 1, NLB: 2, Data: lbas(0, 2)},
		{Opcode: OpRead, SLBA: 0, NLB: 0},
		{Opcode: OpDSM, SLBA: ^uint64(0) - 1, NLB: 4},
	}
	for i, cmd := range cases {
		cmd.CID = uint16(i)
		if c := submitAndRun(t, q, cmd); c.Status != StatusLBARange {
			t.Errorf("case %d: status %v, want LBARange", i, c.Status)
		}
	}
}

func TestInvalidWritePayload(t *testing.T) {
	q := newCtrl().QueuePair(32)
	c := submitAndRun(t, q, Command{Opcode: OpWrite, SLBA: 0, NLB: 4, Data: lbas(0, 3)})
	if c.Status != StatusInvalid {
		t.Fatalf("status = %v", c.Status)
	}
}

func TestUnknownOpcode(t *testing.T) {
	q := newCtrl().QueuePair(32)
	c := submitAndRun(t, q, Command{Opcode: Opcode(0x7F), SLBA: 0, NLB: 1})
	if c.Status != StatusInvalid {
		t.Fatalf("status = %v", c.Status)
	}
}

func TestQueueDepthEnforced(t *testing.T) {
	q := newCtrl().QueuePair(2)
	if err := q.Submit(Command{Opcode: OpFlush}); err != nil {
		t.Fatal(err)
	}
	if err := q.Submit(Command{Opcode: OpFlush}); err != nil {
		t.Fatal(err)
	}
	if err := q.Submit(Command{Opcode: OpFlush}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v", err)
	}
	// Processing does not free depth until completions are reaped.
	q.Process(0, 0)
	if err := q.Submit(Command{Opcode: OpFlush}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("unreaped completions should hold depth: %v", err)
	}
	q.Reap()
	if err := q.Submit(Command{Opcode: OpFlush}); err != nil {
		t.Fatalf("after reap: %v", err)
	}
}

func TestCompletionOrderMatchesSubmission(t *testing.T) {
	q := newCtrl().QueuePair(32)
	for i := 0; i < 5; i++ {
		if err := q.Submit(Command{Opcode: OpWrite, CID: uint16(i), SLBA: uint64(i * 8), NLB: 8, Data: lbas(byte(i), 8)}); err != nil {
			t.Fatal(err)
		}
	}
	q.Process(0, 0)
	for i := 0; i < 5; i++ {
		c, err := q.Reap()
		if err != nil || c.CID != uint16(i) {
			t.Fatalf("completion %d: cid %d err %v", i, c.CID, err)
		}
	}
	if _, err := q.Reap(); !errors.Is(err, ErrQueueEmpty) {
		t.Fatalf("err = %v", err)
	}
}

func TestPartialProcessing(t *testing.T) {
	q := newCtrl().QueuePair(32)
	for i := 0; i < 4; i++ {
		q.Submit(Command{Opcode: OpFlush, CID: uint16(i)})
	}
	q.Process(2, 0)
	if q.Outstanding() != 2 || len(q.cq) != 2 {
		t.Fatalf("outstanding=%d completions=%d", q.Outstanding(), len(q.cq))
	}
}

func TestSimTimeAdvancesThroughQueue(t *testing.T) {
	q := newCtrl().QueuePair(32)
	q.Submit(Command{Opcode: OpWrite, CID: 1, SLBA: 0, NLB: 8, Data: lbas(1, 8)})
	end := q.Process(0, simclock.Time(1000))
	if end <= simclock.Time(1000) {
		t.Fatal("processing consumed no simulated time")
	}
	c, _ := q.Reap()
	if c.At != end {
		t.Fatalf("completion at %v, processing ended %v", c.At, end)
	}
}

// Property: any aligned write/read pair round-trips through the LBA layer.
func TestLBARoundTripProperty(t *testing.T) {
	ctrl := newCtrl()
	q := ctrl.QueuePair(64)
	f := func(slba16 uint16, nlb8 uint8, fill byte) bool {
		nlb := uint32(nlb8%32) + 1
		slba := uint64(slba16) % (ctrl.maxLBA - uint64(nlb))
		data := lbas(fill, int(nlb))
		if err := q.Submit(Command{Opcode: OpWrite, SLBA: slba, NLB: nlb, Data: data}); err != nil {
			return false
		}
		q.Process(0, 0)
		if c, _ := q.Reap(); c.Status != StatusSuccess {
			return false
		}
		if err := q.Submit(Command{Opcode: OpRead, SLBA: slba, NLB: nlb}); err != nil {
			return false
		}
		q.Process(0, 0)
		c, _ := q.Reap()
		return c.Status == StatusSuccess && bytes.Equal(c.Data, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// buffers lists every buffer q holds: spare, behind a queued completion, or
// lent to the last one reaped.
func buffers(q *QueuePair) [][]byte {
	bufs := append([][]byte(nil), q.spare...)
	for _, c := range q.cq {
		if c.buf != nil {
			bufs = append(bufs, c.buf)
		}
	}
	if q.lent != nil {
		bufs = append(bufs, q.lent)
	}
	return bufs
}

func held(q *QueuePair) int { return len(buffers(q)) }

// base returns the address of a buffer's backing array.
func base(b []byte) *byte { return unsafe.SliceData(b) }

// TestReadDataLentUntilNextReap: a read's Data lives in a buffer its queue
// lends until the queue's next Reap. Commands processed meanwhile, on this
// queue or another, leave it alone; after that Reap a later read lands in
// the same backing array; two queues never share a buffer; and a queue never
// holds more than depth+1 buffers.
func TestReadDataLentUntilNextReap(t *testing.T) {
	const depth = 4
	ctrl := newCtrl()
	m := ctrl.MultiQueue(2, depth)
	q0, q1 := m.Queue(0), m.Queue(1)
	run := func(q *QueuePair, cmd Command) Completion {
		t.Helper()
		if err := q.Submit(cmd); err != nil {
			t.Fatal(err)
		}
		m.Process(0, 0)
		c, err := q.Reap()
		if err != nil || c.Status != StatusSuccess {
			t.Fatalf("%v: status %v, err %v", cmd.Opcode, c.Status, err)
		}
		return c
	}
	run(q0, Command{Opcode: OpWrite, SLBA: 0, NLB: 32, Data: lbas(0x11, 32)})
	first := run(q0, Command{Opcode: OpRead, SLBA: 0, NLB: 16})

	// Overwrite the pages it read, through the other queue, and read them
	// back there; then queue more reads on q0 without reaping them.
	run(q1, Command{Opcode: OpWrite, SLBA: 0, NLB: 32, Data: lbas(0x22, 32)})
	other := run(q1, Command{Opcode: OpRead, SLBA: 0, NLB: 16})
	for i := range depth - 1 {
		if err := q0.Submit(Command{Opcode: OpRead, CID: uint16(i), SLBA: 16, NLB: 16}); err != nil {
			t.Fatal(err)
		}
	}
	m.Process(0, 0)
	if !bytes.Equal(first.Data, lbas(0x11, 16)) {
		t.Fatal("a read's data changed before its queue's next Reap")
	}
	if !bytes.Equal(other.Data, lbas(0x22, 16)) {
		t.Fatal("the other queue's read returned the wrong data")
	}

	// The next Reap takes first's buffer back, and the read after it lands
	// there.
	if _, err := q0.Reap(); err != nil {
		t.Fatal(err)
	}
	if err := q0.Submit(Command{Opcode: OpRead, SLBA: 0, NLB: 16}); err != nil {
		t.Fatal(err)
	}
	m.Process(0, 0)
	var again Completion
	for range depth - 1 {
		var err error
		if again, err = q0.Reap(); err != nil {
			t.Fatal(err)
		}
	}
	if base(again.Data) != base(first.Data) {
		t.Fatal("a buffer taken back at Reap was not reused")
	}
	if !bytes.Equal(again.Data, lbas(0x22, 16)) {
		t.Fatal("a reused buffer returned the wrong data")
	}

	// 1 000 reads of 1–16 pages, at any LBA, up to depth at a time.
	rng := rand.New(rand.NewSource(1))
	lpp := int(ctrl.lbasPerPage)
	for i := 0; i < 1000; {
		k := 1 + rng.Intn(depth)
		for j := 0; j < k && i < 1000; j, i = j+1, i+1 {
			nlb := lpp * (1 + rng.Intn(16))
			if rng.Intn(2) == 0 {
				nlb -= rng.Intn(lpp)
			}
			slba := rng.Intn(int(ctrl.maxLBA) - nlb)
			q := m.Queue(i % 2)
			if err := q.Submit(Command{Opcode: OpRead, SLBA: uint64(slba), NLB: uint32(nlb)}); err != nil {
				t.Fatal(err)
			}
		}
		m.Process(0, 0)
		for _, q := range []*QueuePair{q0, q1} {
			for {
				c, err := q.Reap()
				if err != nil {
					break
				}
				if c.Status != StatusSuccess {
					t.Fatalf("read status %v", c.Status)
				}
			}
			if n := held(q); n > depth+1 {
				t.Fatalf("after %d reads a queue holds %d buffers, over depth+1 = %d", i, n, depth+1)
			}
		}
	}
	owner := map[*byte]int{}
	for qi, q := range []*QueuePair{q0, q1} {
		for _, b := range buffers(q) {
			if o, ok := owner[base(b)]; ok && o != qi {
				t.Fatalf("queues %d and %d share a buffer", o, qi)
			}
			owner[base(b)] = qi
		}
	}
}
