package nand

import (
	"testing"

	"repro/internal/bufpool"
	"repro/internal/simclock"
)

func schedConfig() Config {
	return Config{
		Geometry: Geometry{
			Channels: 4, ChipsPerChannel: 1, DiesPerChip: 1, PlanesPerDie: 1,
			BlocksPerPlane: 4, PagesPerBlock: 4, PageSize: 512,
		},
		Timing: DefaultTiming(),
	}
}

func schedPage(b byte) []byte {
	p := make([]byte, 512)
	for i := range p {
		p[i] = b
	}
	return p
}

// TestProgramBatchOverlapsAcrossChips programs one page on each of four
// chips as a batch: the batch must finish in one program latency, not
// four, because the chips proceed independently.
func TestProgramBatchOverlapsAcrossChips(t *testing.T) {
	d := New(schedConfig())
	g := d.Geometry()
	perOp := d.timing.ProgramLatency + d.timing.Transfer
	var ops []PageProgram
	for chip := 0; chip < g.Chips(); chip++ {
		// Block numbers are striped across chips: block i lives on chip i.
		ops = append(ops, PageProgram{PPN: g.PPN(uint64(chip), 0), Data: schedPage(byte(chip))})
	}
	times, done, err := d.ProgramBatch(ops, 0)
	if err != nil {
		t.Fatal(err)
	}
	if done != simclock.Time(perOp) {
		t.Fatalf("batch across %d chips took %v, want one program latency %v", g.Chips(), simclock.Duration(done), perOp)
	}
	for i, ts := range times {
		if ts != simclock.Time(perOp) {
			t.Fatalf("op %d done at %v, want %v", i, ts, simclock.Time(perOp))
		}
	}
}

// TestProgramBatchSerializesWithinChip programs two pages of one block:
// they must serialize on the chip and program in page order.
func TestProgramBatchSerializesWithinChip(t *testing.T) {
	d := New(schedConfig())
	g := d.Geometry()
	perOp := simclock.Duration(d.timing.ProgramLatency + d.timing.Transfer)
	ops := []PageProgram{
		{PPN: g.PPN(0, 0), Data: schedPage(1)},
		{PPN: g.PPN(0, 1), Data: schedPage(2)},
	}
	times, done, err := d.ProgramBatch(ops, 0)
	if err != nil {
		t.Fatal(err)
	}
	if times[1] != times[0].Add(perOp) || done != times[1] {
		t.Fatalf("same-chip ops did not serialize: %v then %v", times[0], times[1])
	}
}

// TestReadBatchInterleavesByNextFree seeds different queue depths on two
// chips and checks the scheduler issues on the chip that frees earliest.
func TestReadBatchInterleavesByNextFree(t *testing.T) {
	d := New(schedConfig())
	g := d.Geometry()
	// Two pages on chip 0, one page on chip 1.
	progs := []PageProgram{
		{PPN: g.PPN(0, 0), Data: schedPage(1)},
		{PPN: g.PPN(0, 1), Data: schedPage(2)},
		{PPN: g.PPN(1, 0), Data: schedPage(3)},
	}
	if _, _, err := d.ProgramBatch(progs, 0); err != nil {
		t.Fatal(err)
	}
	// Reading all three at once: chip-0 reads serialize, chip-1 read rides
	// in parallel, so the batch takes two read slots, not three.
	readOp := simclock.Duration(d.timing.ReadLatency + d.timing.Transfer)
	base := simclock.Time(0).Add(simclock.Duration(d.timing.ProgramLatency+d.timing.Transfer) * 2)
	_, _, times, done, err := d.ReadBatch([]uint64{g.PPN(0, 0), g.PPN(0, 1), g.PPN(1, 0)}, base)
	if err != nil {
		t.Fatal(err)
	}
	if want := base.Add(2 * readOp); done != want {
		t.Fatalf("batch done %v, want %v (2 read slots)", done, want)
	}
	if times[2] >= times[1] {
		t.Fatal("chip-1 read should complete before chip-0's second read")
	}
}

// TestBackgroundReadDoesNotDelayHost checks the offload engine's lane:
// a background read occupies only the background lane, so a host read
// issued at the same instant is unaffected; a second background read
// queues behind the first.
func TestBackgroundReadDoesNotDelayHost(t *testing.T) {
	d := New(schedConfig())
	g := d.Geometry()
	if _, err := d.Program(g.PPN(0, 0), schedPage(1), OOB{}, 0); err != nil {
		t.Fatal(err)
	}
	start := simclock.Time(simclock.Second)
	readOp := simclock.Duration(d.timing.ReadLatency + d.timing.Transfer)
	bgData, _, bgDone, err := d.ReadBackground(g.PPN(0, 0), start)
	if err != nil {
		t.Fatal(err)
	}
	if string(bgData.B) != string(schedPage(1)) {
		t.Fatal("background read returned wrong data")
	}
	bgData.Release()
	if bgDone != start.Add(readOp) {
		t.Fatalf("bg read done %v, want %v", bgDone, start.Add(readOp))
	}
	_, _, hostDone, err := d.Read(g.PPN(0, 0), start)
	if err != nil {
		t.Fatal(err)
	}
	if hostDone != start.Add(readOp) {
		t.Fatalf("host read delayed by background read: done %v, want %v", hostDone, start.Add(readOp))
	}
	bg2Data, _, bg2, err := d.ReadBackground(g.PPN(0, 0), start)
	if err != nil {
		t.Fatal(err)
	}
	bg2Data.Release()
	// The second background read queues behind the first AND behind the
	// host lane (host traffic has priority).
	if bg2 <= bgDone {
		t.Fatalf("second bg read did not queue: %v after first %v", bg2, bgDone)
	}
}

// TestEraseSuspend checks the suspend model: an in-flight erase delays
// neither reads nor programs to other blocks on the chip, but a program
// to the freshly erased block waits for the erase to complete.
func TestEraseSuspend(t *testing.T) {
	d := New(schedConfig())
	g := d.Geometry()
	// Block 0 and block 4 share chip 0 (4 chips, striped).
	if _, err := d.Program(g.PPN(0, 0), schedPage(1), OOB{}, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Program(g.PPN(4, 0), schedPage(2), OOB{}, 0); err != nil {
		t.Fatal(err)
	}
	base := simclock.Time(simclock.Second)
	eraseDone, err := d.Erase(0, base)
	if err != nil {
		t.Fatal(err)
	}
	if eraseDone != base.Add(d.timing.EraseLatency) {
		t.Fatalf("erase done %v, want %v", eraseDone, base.Add(d.timing.EraseLatency))
	}
	// Read of the *other* block on the same chip: not delayed.
	readOp := simclock.Duration(d.timing.ReadLatency + d.timing.Transfer)
	_, _, readDone, err := d.Read(g.PPN(4, 0), base)
	if err != nil {
		t.Fatal(err)
	}
	if readDone != base.Add(readOp) {
		t.Fatalf("read behind suspended erase: done %v, want %v", readDone, base.Add(readOp))
	}
	// Program to the erased block: must wait for the erase to finish.
	progDone, err := d.Program(g.PPN(0, 0), schedPage(3), OOB{}, base)
	if err != nil {
		t.Fatal(err)
	}
	if progDone.Before(eraseDone) {
		t.Fatalf("program to erasing block completed at %v, before erase done %v", progDone, eraseDone)
	}
}

// TestBatchSteadyStateAllocs: the scheduler groups and interleaves a batch in
// per-device scratch, so a grouped program allocates only the completion
// times it returns (page storage is pooled and recycled by the erase), and a
// grouped read only its three result slices and the page copies it hands out.
func TestBatchSteadyStateAllocs(t *testing.T) {
	if bufpool.RaceEnabled {
		t.Skip("race instrumentation allocates; alloc assertions run in the non-race job")
	}
	d := New(schedConfig())
	g := d.Geometry()
	var progs []PageProgram
	var ppns []uint64
	for block := uint64(0); block < 2*uint64(g.Chips()); block++ {
		for i := 0; i < g.PagesPerBlock; i++ {
			progs = append(progs, PageProgram{PPN: g.PPN(block, i), Data: schedPage(byte(i))})
			ppns = append(ppns, g.PPN(block, i))
		}
	}
	cycle := func(read bool) func() {
		return func() {
			if _, _, err := d.ProgramBatch(progs, 0); err != nil {
				t.Fatal(err)
			}
			if read {
				if _, _, _, _, err := d.ReadBatch(ppns, 0); err != nil {
					t.Fatal(err)
				}
			}
			for block := uint64(0); block < 2*uint64(g.Chips()); block++ {
				if _, err := d.Erase(block, 0); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	cycle(true)() // grow the scratch queues and the page pool
	if got := testing.AllocsPerRun(20, cycle(false)); got > 1 {
		t.Fatalf("ProgramBatch of %d pages: %.1f allocs, want 1 (the times it returns)", len(progs), got)
	}
	if got, want := testing.AllocsPerRun(20, cycle(true)), float64(1+3+len(ppns)); got > want {
		t.Fatalf("ProgramBatch + ReadBatch of %d pages: %.1f allocs, want at most %.0f", len(ppns), got, want)
	}
}
