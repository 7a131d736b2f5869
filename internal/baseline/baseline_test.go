package baseline

import (
	"testing"

	"repro/internal/batch"
	"repro/internal/ftl"
	"repro/internal/nand"
	"repro/internal/simclock"
)

func smallFTL(ret ftl.Retainer) *ftl.FTL {
	cfg := ftl.Config{
		NAND: nand.Config{
			Geometry: nand.Geometry{
				Channels: 2, ChipsPerChannel: 1, DiesPerChip: 1, PlanesPerDie: 1,
				BlocksPerPlane: 16, PagesPerBlock: 4, PageSize: 512,
			},
			Timing: nand.DefaultTiming(),
		},
		OverProvision: 0.25,
		GCLowWater:    2,
		GCHighWater:   3,
	}
	return ftl.New(cfg, ret)
}

// writeOne and trimOne are the one-element batches the tests submit.
func writeOne(f *ftl.FTL, lpn uint64, data []byte, at simclock.Time) (simclock.Time, error) {
	_, done, err := batch.Do(f, batch.Op{Kind: batch.OpWrite, LPN: lpn, Data: data}, at)
	return done, err
}

func trimOne(f *ftl.FTL, lpn uint64, at simclock.Time) (simclock.Time, error) {
	_, done, err := batch.Do(f, batch.Op{Kind: batch.OpTrim, LPN: lpn}, at)
	return done, err
}

func fill(b byte, n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = b
	}
	return p
}

func TestFlashGuardRetainsReadThenOverwrite(t *testing.T) {
	g := NewFlashGuard(64, simclock.Hour)
	f := smallFTL(g)
	g.Attach(f)
	at := simclock.Time(0)
	at, _ = writeOne(f, 1, fill(1, 512), at)
	f.Read(1, at) // ransomware reads before encrypting
	at, _ = writeOne(f, 1, fill(2, 512), at)
	if !g.CanRestore(1, fill(1, 512), at) {
		t.Fatal("read-then-overwritten page not retained")
	}
}

// TestFlashGuardKeepsUpToBudget: past its budget the policy destroys the
// oldest retained versions and keeps the newest.
func TestFlashGuardKeepsUpToBudget(t *testing.T) {
	g := NewFlashGuard(4, simclock.Hour)
	f := smallFTL(g)
	g.Attach(f)
	at := simclock.Time(0)
	// 6 read-then-overwrites of lpn 0 -> 6 stale versions, budget 4.
	for i := 0; i < 7; i++ {
		f.Read(0, at)
		at, _ = writeOne(f, 0, fill(byte(i), 512), at)
		at = at.Add(simclock.Minute)
	}
	if got := len(g.pins); got != 4 {
		t.Fatalf("retained = %d, want 4", got)
	}
	// Versions 0 and 1 destroyed; 2..5 restorable.
	if g.CanRestore(0, fill(0, 512), at) || g.CanRestore(0, fill(1, 512), at) {
		t.Fatal("dropped versions still restorable")
	}
	for i := 2; i <= 5; i++ {
		if !g.CanRestore(0, fill(byte(i), 512), at) {
			t.Fatalf("version %d not restorable", i)
		}
	}
}

// TestFlashGuardPinSurvivesGC: GC migrates a retained page instead of
// destroying it, and the policy follows it to its new address.
func TestFlashGuardPinSurvivesGC(t *testing.T) {
	g := NewFlashGuard(10, simclock.Hour)
	f := smallFTL(g)
	g.Attach(f)
	at := simclock.Time(0)
	// Reach GC steady state first; unread overwrites pin nothing.
	for i := 0; i < 300; i++ {
		at, _ = writeOne(f, uint64(i%5), fill(byte(i), 512), at)
	}
	if f.Stats().GCRuns == 0 {
		t.Fatal("no GC during warmup")
	}
	// Pin the victim version, then churn until GC has migrated it.
	at, _ = writeOne(f, 9, fill(0xAA, 512), at)
	f.Read(9, at)
	at, _ = writeOne(f, 9, fill(0xBB, 512), at)
	for i := 0; i < 400 && f.Stats().PinMigrates == 0; i++ {
		at, _ = writeOne(f, uint64(i%4), fill(byte(100+i), 512), at)
	}
	if f.Stats().PinMigrates == 0 {
		t.Fatal("GC never migrated the pinned page")
	}
	if !g.CanRestore(9, fill(0xAA, 512), at) {
		t.Fatal("pinned version lost across GC")
	}
}

func TestFlashGuardIgnoresUnreadOverwrite(t *testing.T) {
	g := NewFlashGuard(64, simclock.Hour)
	f := smallFTL(g)
	g.Attach(f)
	at := simclock.Time(0)
	at, _ = writeOne(f, 1, fill(1, 512), at)
	at, _ = writeOne(f, 1, fill(2, 512), at) // no read in between
	if len(g.pins) != 0 {
		t.Fatal("unread overwrite retained")
	}
}

func TestFlashGuardIgnoresStaleRead(t *testing.T) {
	g := NewFlashGuard(64, simclock.Hour)
	f := smallFTL(g)
	g.Attach(f)
	at := simclock.Time(0)
	at, _ = writeOne(f, 1, fill(1, 512), at)
	f.Read(1, at)
	at = at.Add(3 * simclock.Hour) // read ages out
	at, _ = writeOne(f, 1, fill(2, 512), at)
	if len(g.pins) != 0 {
		t.Fatal("stale read still paired")
	}
}

// TestFlashGuardBypassedByTrim is the trimming attack in miniature: the
// plaintext is read (to build ciphertext elsewhere) and then trimmed, and
// FlashGuard retains nothing.
func TestFlashGuardBypassedByTrim(t *testing.T) {
	g := NewFlashGuard(64, simclock.Hour)
	f := smallFTL(g)
	g.Attach(f)
	at := simclock.Time(0)
	at, _ = writeOne(f, 1, fill(1, 512), at)
	f.Read(1, at)
	at, _ = trimOne(f, 1, at)
	if len(g.pins) != 0 {
		t.Fatal("FlashGuard should not retain trimmed pages")
	}
	if g.CanRestore(1, fill(1, 512), at) {
		t.Fatal("trimmed data should be unrecoverable under FlashGuard")
	}
}

func TestTimeWindowRetainsWithinWindow(t *testing.T) {
	w := NewTimeWindow(2 * simclock.Day)
	f := smallFTL(w)
	w.Attach(f)
	at := simclock.Time(0)
	at, _ = writeOne(f, 3, fill(7, 512), at)
	at, _ = writeOne(f, 3, fill(8, 512), at)
	if !w.CanRestore(3, fill(7, 512), at) {
		t.Fatal("fresh version not retained")
	}
}

// TestTimeWindowExpiry is the timing attack in miniature: wait out the
// retention window and the old version is gone.
func TestTimeWindowExpiry(t *testing.T) {
	w := NewTimeWindow(2 * simclock.Day)
	f := smallFTL(w)
	w.Attach(f)
	at := simclock.Time(0)
	at, _ = writeOne(f, 3, fill(7, 512), at)
	at, _ = writeOne(f, 3, fill(8, 512), at) // version 7 retained
	at = at.Add(3 * simclock.Day)            // attacker waits
	at, _ = writeOne(f, 4, fill(9, 512), at) // any activity triggers expiry
	at, _ = writeOne(f, 4, fill(10, 512), at)
	if w.CanRestore(3, fill(7, 512), at) {
		t.Fatal("version survived beyond the window")
	}
	if len(w.byLPN[3]) != 0 {
		t.Fatal("no expiry recorded")
	}
}

// TestTimeWindowIgnoresTrim: pre-RSSD designs treat trim as a legitimate
// erase; TimeSSD retains nothing for trimmed pages.
func TestTimeWindowIgnoresTrim(t *testing.T) {
	w := NewTimeWindow(2 * simclock.Day)
	f := smallFTL(w)
	w.Attach(f)
	at := simclock.Time(0)
	at, _ = writeOne(f, 3, fill(7, 512), at)
	at, _ = trimOne(f, 3, at)
	if len(w.pins) != 0 {
		t.Fatal("TimeSSD model retained trimmed data")
	}
	if w.CanRestore(3, fill(7, 512), at) {
		t.Fatal("trimmed data restorable under TimeSSD model")
	}
}

// TestFlashGuardTimeExpiry: the timing attack's core insight — bounded
// retention durations can be waited out.
func TestFlashGuardTimeExpiry(t *testing.T) {
	g := NewFlashGuard(64, simclock.Hour)
	f := smallFTL(g)
	g.Attach(f)
	at := simclock.Time(0)
	at, _ = writeOne(f, 1, fill(1, 512), at)
	f.Read(1, at)
	at, _ = writeOne(f, 1, fill(2, 512), at) // retained
	if len(g.pins) != 1 {
		t.Fatal("not retained")
	}
	at = at.Add(4 * simclock.Day) // attacker waits out RetainFor (3 days)
	f.Read(5, at)                 // any activity triggers expiry
	if len(g.pins) != 0 {
		t.Fatal("FlashGuard pin survived beyond its retention duration")
	}
}

func TestVersionDataOrdering(t *testing.T) {
	c := NewTimeWindow(2 * simclock.Day)
	f := smallFTL(c)
	c.Attach(f)
	at := simclock.Time(0)
	for i := 0; i < 4; i++ {
		at, _ = writeOne(f, 2, fill(byte(10+i), 512), at)
	}
	vs := c.VersionData(2, at)
	if len(vs) != 3 {
		t.Fatalf("versions = %d, want 3", len(vs))
	}
	for i, v := range vs {
		if v[0] != byte(10+i) {
			t.Fatalf("version %d = %d, want oldest-first order", i, v[0])
		}
	}
}
