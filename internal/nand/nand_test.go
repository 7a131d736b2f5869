package nand

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/simclock"
)

func testConfig() Config {
	return Config{
		Geometry: Geometry{
			Channels: 2, ChipsPerChannel: 1, DiesPerChip: 1, PlanesPerDie: 1,
			BlocksPerPlane: 8, PagesPerBlock: 4, PageSize: 512,
		},
		Timing:         DefaultTiming(),
		EnduranceLimit: 3,
	}
}

func page(b byte, size int) []byte {
	p := make([]byte, size)
	for i := range p {
		p[i] = b
	}
	return p
}

func TestGeometryValidate(t *testing.T) {
	if err := DefaultGeometry().Validate(); err != nil {
		t.Fatalf("default geometry invalid: %v", err)
	}
	bad := DefaultGeometry()
	bad.Channels = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero channels accepted")
	}
	bad = DefaultGeometry()
	bad.PageSize = 1000
	if err := bad.Validate(); err == nil {
		t.Fatal("non-512-multiple page size accepted")
	}
}

func TestGeometryArithmetic(t *testing.T) {
	g := testConfig().Geometry
	if got := g.TotalBlocks(); got != 16 {
		t.Fatalf("TotalBlocks = %d, want 16", got)
	}
	if got := g.TotalPages(); got != 64 {
		t.Fatalf("TotalPages = %d, want 64", got)
	}
	if got := g.CapacityBytes(); got != 64*512 {
		t.Fatalf("CapacityBytes = %d", got)
	}
	ppn := g.PPN(3, 2)
	if g.BlockOf(ppn) != 3 || g.PageIndexOf(ppn) != 2 {
		t.Fatalf("PPN round trip broken: ppn=%d block=%d page=%d", ppn, g.BlockOf(ppn), g.PageIndexOf(ppn))
	}
}

func TestGeometryPPNRoundTripProperty(t *testing.T) {
	g := DefaultGeometry()
	f := func(blk uint32, pg uint8) bool {
		block := uint64(blk) % uint64(g.TotalBlocks())
		pageIdx := int(pg) % g.PagesPerBlock
		ppn := g.PPN(block, pageIdx)
		return g.BlockOf(ppn) == block && g.PageIndexOf(ppn) == pageIdx
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestProgramReadRoundTrip(t *testing.T) {
	d := New(testConfig())
	data := page(0xAB, 512)
	oob := OOB{LPN: 42, Seq: 7, Kind: 1}
	if _, err := d.Program(0, data, oob, 0); err != nil {
		t.Fatal(err)
	}
	got, gotOOB, _, err := d.Read(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read data mismatch")
	}
	if gotOOB != oob {
		t.Fatalf("OOB = %+v, want %+v", gotOOB, oob)
	}
}

func TestReadReturnsCopy(t *testing.T) {
	d := New(testConfig())
	if _, err := d.Program(0, page(1, 512), OOB{}, 0); err != nil {
		t.Fatal(err)
	}
	got, _, _, _ := d.Read(0, 0)
	got[0] = 99
	again, _, _, _ := d.Read(0, 0)
	if again[0] != 1 {
		t.Fatal("Read exposed internal buffer")
	}
}

func TestProgramRejectsInPlaceUpdate(t *testing.T) {
	d := New(testConfig())
	if _, err := d.Program(0, page(1, 512), OOB{}, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Program(0, page(2, 512), OOB{}, 0); !errors.Is(err, ErrNotErased) {
		t.Fatalf("in-place program err = %v, want ErrNotErased", err)
	}
}

func TestProgramRejectsNonSequential(t *testing.T) {
	d := New(testConfig())
	if _, err := d.Program(2, page(1, 512), OOB{}, 0); !errors.Is(err, ErrNonSequential) {
		t.Fatalf("out-of-order program err = %v, want ErrNonSequential", err)
	}
	// Sequential within the block succeeds.
	for i := uint64(0); i < 4; i++ {
		if _, err := d.Program(i, page(byte(i), 512), OOB{}, 0); err != nil {
			t.Fatalf("sequential program page %d: %v", i, err)
		}
	}
}

func TestProgramRejectsWrongSize(t *testing.T) {
	d := New(testConfig())
	if _, err := d.Program(0, page(1, 100), OOB{}, 0); !errors.Is(err, ErrPageSize) {
		t.Fatalf("err = %v, want ErrPageSize", err)
	}
}

func TestReadUnwritten(t *testing.T) {
	d := New(testConfig())
	if _, _, _, err := d.Read(0, 0); !errors.Is(err, ErrUnwritten) {
		t.Fatalf("err = %v, want ErrUnwritten", err)
	}
}

func TestOutOfRange(t *testing.T) {
	d := New(testConfig())
	if _, _, _, err := d.Read(1<<40, 0); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("read err = %v", err)
	}
	if _, err := d.Program(1<<40, page(0, 512), OOB{}, 0); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("program err = %v", err)
	}
	if _, err := d.Erase(1<<40, 0); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("erase err = %v", err)
	}
}

func TestEraseResetsBlock(t *testing.T) {
	d := New(testConfig())
	for i := uint64(0); i < 4; i++ {
		if _, err := d.Program(i, page(byte(i), 512), OOB{LPN: i}, 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.Erase(0, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := d.Read(0, 0); !errors.Is(err, ErrUnwritten) {
		t.Fatal("page still readable after erase")
	}
	// Block is programmable again from page 0.
	if _, err := d.Program(0, page(9, 512), OOB{}, 0); err != nil {
		t.Fatalf("program after erase: %v", err)
	}
	if d.EraseCount(0) != 1 {
		t.Fatalf("erase count = %d, want 1", d.EraseCount(0))
	}
}

func TestEnduranceLimit(t *testing.T) {
	d := New(testConfig()) // limit 3
	for i := 0; i < 3; i++ {
		if _, err := d.Erase(0, 0); err != nil {
			t.Fatalf("erase %d: %v", i, err)
		}
	}
	if !d.Bad(0) {
		t.Fatal("block not marked bad at endurance limit")
	}
	if _, err := d.Erase(0, 0); !errors.Is(err, ErrBadBlock) {
		t.Fatalf("erase of bad block err = %v", err)
	}
	if _, err := d.Program(0, page(0, 512), OOB{}, 0); !errors.Is(err, ErrBadBlock) {
		t.Fatalf("program of bad block err = %v", err)
	}
}

func TestChipSerialization(t *testing.T) {
	cfg := testConfig()
	d := New(cfg)
	// Blocks 0 and 2 are on chip 0 (striped over 2 chips); block 1 on chip 1.
	done0, err := d.Program(cfg.Geometry.PPN(0, 0), page(0, 512), OOB{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Same chip: serializes after done0.
	done2, err := d.Program(cfg.Geometry.PPN(2, 0), page(0, 512), OOB{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !done2.After(done0) {
		t.Fatalf("same-chip ops did not serialize: %v then %v", done0, done2)
	}
	// Different chip: overlaps, completes at the bare program latency.
	done1, err := d.Program(cfg.Geometry.PPN(1, 0), page(0, 512), OOB{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := simclock.Time(0).Add(cfg.Timing.ProgramLatency + cfg.Timing.Transfer)
	if done1 != want {
		t.Fatalf("different-chip op done at %v, want %v", done1, want)
	}
}

func TestLatencyAccounting(t *testing.T) {
	cfg := testConfig()
	d := New(cfg)
	at := simclock.Time(1000)
	done, err := d.Program(0, page(0, 512), OOB{}, at)
	if err != nil {
		t.Fatal(err)
	}
	want := at.Add(cfg.Timing.ProgramLatency + cfg.Timing.Transfer)
	if done != want {
		t.Fatalf("program done at %v, want %v", done, want)
	}
}

func TestStats(t *testing.T) {
	d := New(testConfig())
	d.Program(0, page(0, 512), OOB{}, 0)
	d.Read(0, 0)
	d.Read(0, 0)
	d.Erase(0, 0)
	s := d.Stats()
	if s.Programs != 1 || s.Reads != 2 || s.Erases != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestBitErrorInjection(t *testing.T) {
	cfg := testConfig()
	cfg.BitErrorProb = 1.0 // every read corrupts
	d := New(cfg)
	orig := page(0x00, 512)
	d.Program(0, orig, OOB{}, 0)
	got, _, _, err := d.Read(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	diff := 0
	for i := range got {
		if got[i] != orig[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("expected exactly one corrupted byte, got %d", diff)
	}
	if d.Stats().BitErrors != 1 {
		t.Fatalf("BitErrors = %d", d.Stats().BitErrors)
	}
}

func TestWearSummary(t *testing.T) {
	d := New(Config{Geometry: testConfig().Geometry, Timing: DefaultTiming()})
	d.Erase(0, 0)
	d.Erase(0, 0)
	d.Erase(1, 0)
	min, max, mean := d.WearSummary()
	if min != 0 || max != 2 {
		t.Fatalf("min=%d max=%d", min, max)
	}
	wantMean := 3.0 / 16.0
	if mean != wantMean {
		t.Fatalf("mean = %v, want %v", mean, wantMean)
	}
}

// Property: program-then-read round-trips arbitrary page contents.
func TestRoundTripProperty(t *testing.T) {
	cfg := testConfig()
	f := func(seed []byte) bool {
		d := New(cfg)
		data := make([]byte, 512)
		copy(data, seed)
		if _, err := d.Program(0, data, OOB{}, 0); err != nil {
			return false
		}
		got, _, _, err := d.Read(0, 0)
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: erase count only ever increases, and Programmed resets to 0.
func TestEraseMonotonicProperty(t *testing.T) {
	d := New(Config{Geometry: testConfig().Geometry, Timing: DefaultTiming()})
	prev := 0
	for i := 0; i < 10; i++ {
		d.Program(0, page(1, 512), OOB{}, 0)
		if _, err := d.Erase(0, 0); err != nil {
			t.Fatal(err)
		}
		if c := d.EraseCount(0); c <= prev {
			t.Fatalf("erase count not monotonic: %d after %d", c, prev)
		} else {
			prev = c
		}
		if d.Programmed(0) != 0 {
			t.Fatal("Programmed not reset by erase")
		}
	}
}
