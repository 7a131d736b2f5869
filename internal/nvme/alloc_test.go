package nvme

import (
	"bytes"
	"runtime"
	"testing"
	"weak"

	"repro/internal/bufpool"
	"repro/internal/core"
	"repro/internal/ftl"
	"repro/internal/nand"
)

// newRSSDCtrl returns a controller over the firmware itself: an RSSD with
// 4 KiB pages and no remote attached.
func newRSSDCtrl() *Controller {
	cfg := core.DefaultConfig()
	cfg.FTL = ftl.Config{
		NAND: nand.Config{
			Geometry: nand.Geometry{
				Channels: 2, ChipsPerChannel: 2, DiesPerChip: 1, PlanesPerDie: 1,
				BlocksPerPlane: 32, PagesPerBlock: 16, PageSize: 4096,
			},
			Timing: nand.DefaultTiming(),
		},
		OverProvision: 0.2,
	}
	return NewController(core.New(cfg, nil))
}

// TestReadCommandSteadyStateAllocs: a page-aligned read command crosses
// nvme, core, oplog, ftl and nand on scratch each layer reuses, and its pages
// land straight in a buffer the queue lends. The command allocates the
// device's []Result, nothing else.
func TestReadCommandSteadyStateAllocs(t *testing.T) {
	if bufpool.RaceEnabled {
		t.Skip("race instrumentation allocates; alloc assertions run in the non-race job")
	}
	q := newRSSDCtrl().QueuePair(8)
	data := lbas(0x5A, 64) // eight pages
	if w := submitAndRun(t, q, Command{Opcode: OpWrite, CID: 1, SLBA: 0, NLB: 64, Data: data}); w.Status != StatusSuccess {
		t.Fatalf("write status %v", w.Status)
	}
	var comp Completion
	read := func() {
		if err := q.Submit(Command{Opcode: OpRead, CID: 2, SLBA: 0, NLB: 64}); err != nil {
			t.Fatal(err)
		}
		q.Process(0, 0)
		comp, _ = q.Reap()
	}
	read()
	if got := testing.AllocsPerRun(20, read); got != 1 {
		t.Fatalf("read command of 8 pages: %.1f allocs, want 1 (the results)", got)
	}
	if comp.Status != StatusSuccess || !bytes.Equal(comp.Data, data) {
		t.Fatalf("read mismatch: status %v", comp.Status)
	}
}

// TestUnalignedWriteSteadyStateAllocs: a write with partial pages at both
// edges reads them into a bounce buffer the queue lends and takes back
// within the command. It allocates the device's two []Results, the edge
// read's and the write's, nothing else.
func TestUnalignedWriteSteadyStateAllocs(t *testing.T) {
	if bufpool.RaceEnabled {
		t.Skip("race instrumentation allocates; alloc assertions run in the non-race job")
	}
	q := newRSSDCtrl().QueuePair(8)
	data := lbas(0x6B, 8) // one page's worth, straddling pages 0 and 1
	write := func() {
		if c := submitAndRun(t, q, Command{Opcode: OpWrite, CID: 1, SLBA: 4, NLB: 8, Data: data}); c.Status != StatusSuccess {
			t.Fatalf("write status %v", c.Status)
		}
	}
	for range 64 {
		write()
	}
	if got := testing.AllocsPerRun(100, write); got != 2 {
		t.Fatalf("unaligned write over 2 pages: %.1f allocs, want 2 (the edge read's and the write's results)", got)
	}
	if n := held(q); n != 1 {
		t.Fatalf("the queue holds %d buffers after unaligned writes alone, want the one bounce buffer", n)
	}
}

// TestControllerDoesNotPinCommandBuffers: neither the controller's reused op
// slice nor the queues keep a command's payload alive. A read's buffer is the
// queue's, which holds at most depth+1 of them and drops one it outgrows.
func TestControllerDoesNotPinCommandBuffers(t *testing.T) {
	const depth = 2
	q := newRSSDCtrl().QueuePair(depth)
	var payload, outgrown weak.Pointer[byte]
	func() {
		data := lbas(0x3C, 16)
		payload = weak.Make(&data[0])
		submitAndRun(t, q, Command{Opcode: OpWrite, CID: 1, SLBA: 0, NLB: 16, Data: data})
		// Two pages into the first buffer; eight into a second, since the
		// first is lent until the next Reap; eight more into the first,
		// which is too short and is replaced.
		r := submitAndRun(t, q, Command{Opcode: OpRead, CID: 2, SLBA: 0, NLB: 16})
		outgrown = weak.Make(&r.Data[0])
		submitAndRun(t, q, Command{Opcode: OpRead, CID: 3, SLBA: 0, NLB: 64})
		submitAndRun(t, q, Command{Opcode: OpRead, CID: 4, SLBA: 0, NLB: 64})
	}()
	runtime.GC()
	runtime.GC()
	if payload.Value() != nil {
		t.Fatal("the controller still holds a write command's payload")
	}
	if outgrown.Value() != nil {
		t.Fatal("the queue still holds a read buffer it outgrew")
	}
	if n := held(q); n > depth+1 {
		t.Fatalf("the queue holds %d buffers, want at most depth+1 = %d", n, depth+1)
	}
	runtime.KeepAlive(q)
}
