package ftl

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/nand"
	"repro/internal/simclock"
)

// smallConfig returns a tiny FTL: 16 blocks of 4 pages, 25% OP.
func smallConfig() Config {
	return Config{
		NAND: nand.Config{
			Geometry: nand.Geometry{
				Channels: 2, ChipsPerChannel: 1, DiesPerChip: 1, PlanesPerDie: 1,
				BlocksPerPlane: 8, PagesPerBlock: 4, PageSize: 512,
			},
			Timing: nand.DefaultTiming(),
		},
		OverProvision: 0.25,
		GCLowWater:    2,
		GCHighWater:   3,
	}
}

func fill(b byte, n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = b
	}
	return p
}

// recordingRetainer pins according to pinAll and records every event.
type recordingRetainer struct {
	pinAll         bool
	f              *FTL
	stale          []string
	erased         []string
	migrated       []string
	pressure       int
	pins           map[uint64]uint64 // ppn -> lpn
	dropOnPressure bool
	keepLPN        map[uint64]bool // pins for these LPNs survive pressure drops
}

func newRecordingRetainer(pinAll bool) *recordingRetainer {
	return &recordingRetainer{pinAll: pinAll, pins: map[uint64]uint64{}}
}

func (r *recordingRetainer) OnStale(lpn, ppn uint64, cause StaleCause, at simclock.Time) bool {
	r.stale = append(r.stale, fmt.Sprintf("%d@%d:%s", lpn, ppn, cause))
	if r.pinAll {
		r.pins[ppn] = lpn
		return true
	}
	return false
}

func (r *recordingRetainer) OnMigrate(lpn, oldPPN, newPPN uint64, at simclock.Time) {
	r.migrated = append(r.migrated, fmt.Sprintf("%d:%d->%d", lpn, oldPPN, newPPN))
	delete(r.pins, oldPPN)
	r.pins[newPPN] = lpn
}

func (r *recordingRetainer) OnErased(lpn, ppn uint64, at simclock.Time) {
	r.erased = append(r.erased, fmt.Sprintf("%d@%d", lpn, ppn))
}

func (r *recordingRetainer) Pressure(need int, at simclock.Time) {
	r.pressure++
	if r.dropOnPressure {
		for ppn, lpn := range r.pins {
			if r.keepLPN[lpn] {
				continue
			}
			if err := r.f.Release(ppn); err == nil {
				delete(r.pins, ppn)
			}
		}
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	f := New(smallConfig(), nil)
	want := fill(0x5A, 512)
	if _, err := writeOne(f, 3, want, 0); err != nil {
		t.Fatal(err)
	}
	got, _, err := f.Read(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("round trip mismatch")
	}
}

func TestReadUnmappedReturnsZeroes(t *testing.T) {
	f := New(smallConfig(), nil)
	got, _, err := f.Read(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, 512)) {
		t.Fatal("unmapped read not zeroed")
	}
}

func TestWriteValidation(t *testing.T) {
	f := New(smallConfig(), nil)
	if _, err := writeOne(f, f.LogicalPages(), fill(0, 512), 0); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("out-of-range write err = %v", err)
	}
	if _, err := writeOne(f, 0, fill(0, 100), 0); !errors.Is(err, ErrBadPageSize) {
		t.Fatalf("bad-size write err = %v", err)
	}
	if _, _, err := f.Read(f.LogicalPages(), 0); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("out-of-range read err = %v", err)
	}
	if _, err := trimOne(f, f.LogicalPages(), 0); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("out-of-range trim err = %v", err)
	}
}

func TestOverwriteReturnsNewData(t *testing.T) {
	f := New(smallConfig(), nil)
	writeOne(f, 0, fill(1, 512), 0)
	writeOne(f, 0, fill(2, 512), 0)
	got, _, _ := f.Read(0, 0)
	if got[0] != 2 {
		t.Fatalf("read %d after overwrite, want 2", got[0])
	}
}

func TestTrimUnmaps(t *testing.T) {
	f := New(smallConfig(), nil)
	writeOne(f, 0, fill(7, 512), 0)
	if _, err := trimOne(f, 0, 0); err != nil {
		t.Fatal(err)
	}
	got, _, err := f.Read(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, 512)) {
		t.Fatal("trimmed page did not read as zeroes")
	}
	if f.Lookup(0) != NoPPN {
		t.Fatal("trimmed lpn still mapped")
	}
	if f.Stats().Trims != 1 {
		t.Fatal("trim not counted")
	}
}

func TestTrimOfUnmappedIsNoop(t *testing.T) {
	f := New(smallConfig(), nil)
	if _, err := trimOne(f, 5, 0); err != nil {
		t.Fatal(err)
	}
}

// TestGCPreservesLiveData overwrites a small working set many times so GC
// must run repeatedly, and verifies every logical page still reads back its
// latest value.
func TestGCPreservesLiveData(t *testing.T) {
	f := New(smallConfig(), nil)
	n := f.LogicalPages()
	latest := make(map[uint64]byte)
	at := simclock.Time(0)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		lpn := uint64(rng.Intn(int(n)))
		b := byte(i)
		var err error
		at, err = writeOne(f, lpn, fill(b, 512), at)
		if err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		latest[lpn] = b
	}
	if f.Stats().GCRuns == 0 {
		t.Fatal("test did not exercise GC")
	}
	for lpn, want := range latest {
		got, _, err := f.Read(lpn, at)
		if err != nil {
			t.Fatalf("read lpn %d: %v", lpn, err)
		}
		if got[0] != want {
			t.Fatalf("lpn %d = %d, want %d", lpn, got[0], want)
		}
	}
}

func TestWAFAboveOneUnderGC(t *testing.T) {
	f := New(smallConfig(), nil)
	at := simclock.Time(0)
	for i := 0; i < 400; i++ {
		at, _ = writeOne(f, uint64(i)%f.LogicalPages(), fill(byte(i), 512), at)
	}
	waf := f.WAF()
	if waf < 1.0 {
		t.Fatalf("WAF = %v, must be >= 1", waf)
	}
}

func TestRetainerSeesOverwriteAndTrim(t *testing.T) {
	r := newRecordingRetainer(false)
	f := New(smallConfig(), r)
	r.f = f
	writeOne(f, 1, fill(1, 512), 0)
	writeOne(f, 1, fill(2, 512), 0)
	trimOne(f, 1, 0)
	if len(r.stale) != 2 {
		t.Fatalf("stale events = %v", r.stale)
	}
	if r.stale[0] != "1@0:overwrite" {
		t.Fatalf("first stale = %q", r.stale[0])
	}
	if r.stale[1][len(r.stale[1])-4:] != "trim" {
		t.Fatalf("second stale = %q", r.stale[1])
	}
}

// TestPinnedPagesSurviveGC pins every stale page and verifies its contents
// survive GC via migration, readable at the migrated location.
func TestPinnedPagesSurviveGC(t *testing.T) {
	r := newRecordingRetainer(true)
	cfg := smallConfig()
	cfg.OverProvision = 0.5 // plenty of OP so pins alone don't exhaust space
	f := New(cfg, r)
	r.f = f
	r.dropOnPressure = true
	r.keepLPN = map[uint64]bool{0: true}

	at := simclock.Time(0)
	// First version of page 0 — will become stale and pinned.
	original := fill(0xEE, 512)
	at, _ = writeOne(f, 0, original, at)
	at, _ = writeOne(f, 0, fill(0x11, 512), at)

	// Churn other pages to force GC several times.
	for i := 0; i < 300; i++ {
		var err error
		at, err = writeOne(f, uint64(1+i%6), fill(byte(i), 512), at)
		if err != nil {
			t.Fatalf("churn write %d: %v", i, err)
		}
	}
	if f.Stats().GCRuns == 0 {
		t.Fatal("GC never ran")
	}
	// Find the pin for lpn 0 and read its (possibly migrated) location.
	var found bool
	for ppn, lpn := range r.pins {
		if lpn != 0 {
			continue
		}
		data, oob, _, err := f.ReadPhysical(ppn, at)
		if err != nil {
			t.Fatalf("read pinned ppn %d: %v", ppn, err)
		}
		if !bytes.Equal(data, original) {
			t.Fatal("pinned page content corrupted by GC")
		}
		if oob.LPN != 0 {
			t.Fatalf("pinned page OOB.LPN = %d, want 0", oob.LPN)
		}
		found = true
	}
	if !found {
		t.Fatal("pin for lpn 0 lost")
	}
}

func TestReleaseUnpins(t *testing.T) {
	r := newRecordingRetainer(true)
	f := New(smallConfig(), r)
	r.f = f
	writeOne(f, 0, fill(1, 512), 0)
	writeOne(f, 0, fill(2, 512), 0)
	if f.pinnedPages() != 1 {
		t.Fatalf("pinned = %d, want 1", f.pinnedPages())
	}
	var ppn uint64
	for p := range r.pins {
		ppn = p
	}
	if err := f.Release(ppn); err != nil {
		t.Fatal(err)
	}
	if f.pinnedPages() != 0 {
		t.Fatal("release did not unpin")
	}
	if err := f.Release(ppn); !errors.Is(err, ErrNotPinned) {
		t.Fatalf("double release err = %v", err)
	}
}

// TestPressureCalledWhenPinsExhaustSpace pins everything with a retainer
// that refuses to release; writes must eventually fail with ErrNoSpace
// after Pressure was called.
func TestPressureCalledWhenPinsExhaustSpace(t *testing.T) {
	r := newRecordingRetainer(true) // never releases
	f := New(smallConfig(), r)
	r.f = f
	at := simclock.Time(0)
	var lastErr error
	for i := 0; i < 200; i++ {
		_, err := writeOne(f, uint64(i)%f.LogicalPages(), fill(byte(i), 512), at)
		if err != nil {
			lastErr = err
			break
		}
	}
	if !errors.Is(lastErr, ErrNoSpace) {
		t.Fatalf("expected ErrNoSpace, got %v", lastErr)
	}
	if r.pressure == 0 {
		t.Fatal("Pressure was never called")
	}
}

// TestPressureReleaseRecovers: a retainer that drops pins under pressure
// keeps the device writable forever (the LocalSSD retention model).
func TestPressureReleaseRecovers(t *testing.T) {
	r := newRecordingRetainer(true)
	r.dropOnPressure = true
	f := New(smallConfig(), r)
	r.f = f
	at := simclock.Time(0)
	for i := 0; i < 500; i++ {
		var err error
		at, err = writeOne(f, uint64(i)%f.LogicalPages(), fill(byte(i), 512), at)
		if err != nil {
			t.Fatalf("write %d failed despite pressure releases: %v", i, err)
		}
	}
	if r.pressure == 0 {
		t.Fatal("expected pressure events")
	}
}

func TestOnErasedReportsDestroyedStaleData(t *testing.T) {
	r := newRecordingRetainer(false) // never pins: stale data is destroyed
	f := New(smallConfig(), r)
	r.f = f
	at := simclock.Time(0)
	for i := 0; i < 300; i++ {
		at, _ = writeOne(f, uint64(i)%4, fill(byte(i), 512), at)
	}
	if len(r.erased) == 0 {
		t.Fatal("no OnErased events despite churn")
	}
	if f.Stats().StaleErased == 0 {
		t.Fatal("StaleErased not counted")
	}
}

func TestWearLevelingPrefersColdBlocks(t *testing.T) {
	f := New(smallConfig(), nil)
	at := simclock.Time(0)
	for i := 0; i < 2000; i++ {
		var err error
		at, err = writeOne(f, uint64(i)%f.LogicalPages(), fill(byte(i), 512), at)
		if err != nil {
			t.Fatal(err)
		}
	}
	min, max, _ := f.Device().WearSummary()
	if max-min > 12 {
		t.Fatalf("wear spread too large: min=%d max=%d", min, max)
	}
}

func TestWriteWithSeqStampsOOB(t *testing.T) {
	f := New(smallConfig(), nil)
	for i, write := range []func([]simclock.Time, []BatchWrite, simclock.Time) ([]simclock.Time, simclock.Time, error){f.WriteBatch, f.WriteRecoveryBatch} {
		seq, hash := uint64(77+i), [32]byte{byte(1 + i)}
		if _, _, err := write(nil, []BatchWrite{{LPN: 2, Data: fill(9, 512), Seq: seq, Hash: hash}}, 0); err != nil {
			t.Fatal(err)
		}
		_, oob, _, err := f.ReadPhysical(f.Lookup(2), 0)
		if err != nil {
			t.Fatal(err)
		}
		if oob.Seq != seq || oob.LPN != 2 || oob.Hash != hash {
			t.Fatalf("OOB = %+v", oob)
		}
	}
}

func TestFreePagesDecreasesWithWrites(t *testing.T) {
	f := New(smallConfig(), nil)
	before := f.freePages()
	writeOne(f, 0, fill(1, 512), 0)
	if got := f.freePages(); got != before-1 {
		t.Fatalf("freePages %d -> %d, want %d", before, got, before-1)
	}
}

// Property: after any sequence of writes over a small LPN space, every LPN
// reads back the last value written to it (GC, wear leveling, and stream
// switching must never corrupt the mapping).
func TestMappingConsistencyProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		ftl := New(smallConfig(), nil)
		at := simclock.Time(0)
		latest := map[uint64]byte{}
		for i, op := range ops {
			lpn := uint64(op) % ftl.LogicalPages()
			b := byte(i + 1)
			var err error
			at, err = writeOne(ftl, lpn, fill(b, 512), at)
			if err != nil {
				return false
			}
			latest[lpn] = b
		}
		for lpn, want := range latest {
			got, _, err := ftl.Read(lpn, at)
			if err != nil || got[0] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: interleaved writes and trims keep the invariant "trimmed pages
// read zero, written pages read latest".
func TestTrimWriteInterleavingProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		ftl := New(smallConfig(), nil)
		at := simclock.Time(0)
		latest := map[uint64]byte{} // absent = expect zeroes
		for i, op := range ops {
			lpn := uint64(op>>1) % ftl.LogicalPages()
			if op&1 == 0 {
				b := byte(i + 1)
				var err error
				at, err = writeOne(ftl, lpn, fill(b, 512), at)
				if err != nil {
					return false
				}
				latest[lpn] = b
			} else {
				var err error
				at, err = trimOne(ftl, lpn, at)
				if err != nil {
					return false
				}
				delete(latest, lpn)
			}
		}
		for lpn := uint64(0); lpn < ftl.LogicalPages(); lpn++ {
			got, _, err := ftl.Read(lpn, at)
			if err != nil {
				return false
			}
			want, ok := latest[lpn]
			if ok && got[0] != want {
				return false
			}
			if !ok && got[0] != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: pinned page count in block accounting always matches the
// retainer's own pin set, across GC migrations.
func TestPinAccountingProperty(t *testing.T) {
	r := newRecordingRetainer(true)
	r.dropOnPressure = true
	cfg := smallConfig()
	cfg.OverProvision = 0.5
	f := New(cfg, r)
	r.f = f
	at := simclock.Time(0)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 400; i++ {
		lpn := uint64(rng.Intn(int(f.LogicalPages())))
		var err error
		at, err = writeOne(f, lpn, fill(byte(i), 512), at)
		if err != nil {
			t.Fatal(err)
		}
		if f.pinnedPages() != len(r.pins) {
			t.Fatalf("step %d: ftl pinned %d != retainer pins %d", i, f.pinnedPages(), len(r.pins))
		}
	}
}
