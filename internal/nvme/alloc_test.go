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
// land straight in the completion's buffer. The command allocates that
// buffer and the device's []Result, nothing else.
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
	if got := testing.AllocsPerRun(20, read); got != 2 {
		t.Fatalf("read command of 8 pages: %.1f allocs, want 2 (the results and comp.Data)", got)
	}
	if comp.Status != StatusSuccess || !bytes.Equal(comp.Data, data) {
		t.Fatalf("read mismatch: status %v", comp.Status)
	}
}

// TestControllerDoesNotPinCommandBuffers: neither the controller's reused op
// slice nor the queues keep a command's payload or its completion's data
// alive.
func TestControllerDoesNotPinCommandBuffers(t *testing.T) {
	q := newRSSDCtrl().QueuePair(8)
	var payload, readBack weak.Pointer[byte]
	func() {
		data := lbas(0x3C, 16)
		payload = weak.Make(&data[0])
		submitAndRun(t, q, Command{Opcode: OpWrite, CID: 1, SLBA: 0, NLB: 16, Data: data})
		r := submitAndRun(t, q, Command{Opcode: OpRead, CID: 2, SLBA: 0, NLB: 16})
		readBack = weak.Make(&r.Data[0])
	}()
	runtime.GC()
	runtime.GC()
	if payload.Value() != nil || readBack.Value() != nil {
		t.Fatal("the controller still holds a command's buffer")
	}
	runtime.KeepAlive(q)
}
