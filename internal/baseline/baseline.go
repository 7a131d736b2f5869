// Package baseline implements the retention policies RSSD is evaluated
// against, as ftl.Retainer plug-ins over the same FTL (an unmodified
// "LocalSSD" is the FTL with no retainer):
//
//   - FlashGuardRetainer — FlashGuard (CCS'17)-style selective retention:
//     only pages that were read shortly before being overwritten are kept
//     (trimmed pages are not), within a bounded budget.
//   - TimeWindowRetainer — TimeSSD-style bounded-time retention: stale
//     pages are kept for a fixed window, then released.
//
// Each keeps an index of its retained versions so the Table 1 experiments
// can ask "could this system restore page X?" after each attack.
package baseline

import (
	"bytes"

	"repro/internal/ftl"
	"repro/internal/simclock"
)

// Version is one retained stale version of a logical page.
type Version struct {
	ppn     uint64
	lpn     uint64
	staleAt simclock.Time
	cause   ftl.StaleCause
	dead    bool
}

// store is the bookkeeping shared by all baseline retainers.
type store struct {
	f     *ftl.FTL
	pins  map[uint64]*Version
	byLPN map[uint64][]*Version
	queue []*Version
	head  int
}

func newStore() store {
	return store{
		pins:  map[uint64]*Version{},
		byLPN: map[uint64][]*Version{},
	}
}

// Attach must be called once after the FTL is constructed with this
// retainer (the two reference each other).
func (s *store) Attach(f *ftl.FTL) { s.f = f }

func (s *store) pin(lpn, ppn uint64, cause ftl.StaleCause, at simclock.Time) {
	v := &Version{ppn: ppn, lpn: lpn, staleAt: at, cause: cause}
	s.pins[ppn] = v
	s.byLPN[lpn] = append(s.byLPN[lpn], v)
	s.queue = append(s.queue, v)
}

func (s *store) onMigrate(oldPPN, newPPN uint64) {
	v, ok := s.pins[oldPPN]
	if !ok {
		return
	}
	delete(s.pins, oldPPN)
	v.ppn = newPPN
	s.pins[newPPN] = v
}

// dropOldest releases the n oldest pins.
func (s *store) dropOldest(n int) {
	for n > 0 {
		v := s.popOldest()
		if v == nil {
			return
		}
		s.kill(v)
		n--
	}
}

func (s *store) popOldest() *Version {
	for s.head < len(s.queue) {
		v := s.queue[s.head]
		s.head++
		if !v.dead {
			return v
		}
	}
	return nil
}

func (s *store) kill(v *Version) {
	v.dead = true
	delete(s.pins, v.ppn)
	vs := s.byLPN[v.lpn]
	for i := range vs {
		if vs[i] == v {
			s.byLPN[v.lpn] = append(vs[:i], vs[i+1:]...)
			break
		}
	}
	if len(s.byLPN[v.lpn]) == 0 {
		delete(s.byLPN, v.lpn)
	}
	if s.f != nil {
		s.f.Release(v.ppn)
	}
}

// VersionData returns the retained versions of lpn, oldest first, reading
// their contents from flash. This is the baseline's whole recovery story:
// whatever is still pinned locally is restorable, nothing else.
func (s *store) VersionData(lpn uint64, at simclock.Time) [][]byte {
	var out [][]byte
	for _, v := range s.byLPN[lpn] {
		if v.dead {
			continue
		}
		data, _, _, err := s.f.ReadPhysical(v.ppn, at)
		if err != nil {
			continue
		}
		out = append(out, data)
	}
	return out
}

// CanRestore reports whether any retained version of lpn matches want.
func (s *store) CanRestore(lpn uint64, want []byte, at simclock.Time) bool {
	for _, data := range s.VersionData(lpn, at) {
		if bytes.Equal(data, want) {
			return true
		}
	}
	return false
}

// --- FlashGuardRetainer -----------------------------------------------------

// FlashGuardRetainer retains only pages exhibiting the read-then-overwrite
// pattern FlashGuard treats as suspicious, within a bounded budget and for
// a bounded duration. Trimmed pages are never retained — the gap the
// trimming attack drives through — and the bounded retention duration is
// what the timing attack waits out. Its pins are deliberately NOT shed
// under GC pressure: like the real FlashGuard, retained pages are held out
// of garbage collection's reach, so the GC attack stalls the device rather
// than destroying evidence (Table 1 credits FlashGuard with defending the
// GC attack).
type FlashGuardRetainer struct {
	store
	Budget      int
	ReadHorizon simclock.Duration
	// RetainFor bounds how long a suspicious page stays retained.
	RetainFor simclock.Duration
	lastRead  map[uint64]simclock.Time
}

// NewFlashGuard returns a FlashGuard-style policy.
func NewFlashGuard(budgetPages int, readHorizon simclock.Duration) *FlashGuardRetainer {
	if readHorizon <= 0 {
		readHorizon = simclock.Hour
	}
	return &FlashGuardRetainer{
		store: newStore(), Budget: budgetPages, ReadHorizon: readHorizon,
		RetainFor: 3 * simclock.Day,
		lastRead:  map[uint64]simclock.Time{},
	}
}

// OnHostRead implements ftl.ReadObserver.
func (g *FlashGuardRetainer) OnHostRead(lpn uint64, at simclock.Time) {
	g.lastRead[lpn] = at
	g.expire(at)
}

// expire releases pins older than the retention duration.
func (g *FlashGuardRetainer) expire(at simclock.Time) {
	for {
		v := g.peekOldest()
		if v == nil || at.Sub(v.staleAt) <= g.RetainFor {
			return
		}
		g.popOldest()
		g.kill(v)
	}
}

func (g *FlashGuardRetainer) peekOldest() *Version {
	for g.head < len(g.queue) {
		if v := g.queue[g.head]; !v.dead {
			return v
		}
		g.head++
	}
	return nil
}

// OnStale implements ftl.Retainer: pin only read-then-overwritten pages.
func (g *FlashGuardRetainer) OnStale(lpn, ppn uint64, cause ftl.StaleCause, at simclock.Time) bool {
	g.expire(at)
	if cause != ftl.CauseOverwrite {
		return false // trim bypasses FlashGuard entirely
	}
	t, ok := g.lastRead[lpn]
	if !ok || at.Sub(t) > g.ReadHorizon {
		return false
	}
	g.pin(lpn, ppn, cause, at)
	if g.Budget > 0 && len(g.pins) > g.Budget {
		g.dropOldest(len(g.pins) - g.Budget)
	}
	return true
}

// OnMigrate implements ftl.Retainer.
func (g *FlashGuardRetainer) OnMigrate(lpn, oldPPN, newPPN uint64, at simclock.Time) {
	g.onMigrate(oldPPN, newPPN)
}

// OnErased implements ftl.Retainer.
func (g *FlashGuardRetainer) OnErased(lpn, ppn uint64, at simclock.Time) {}

// Pressure implements ftl.Retainer: expire aged pins, but never shed live
// ones — retained data stays out of GC's reach even if writes must stall.
func (g *FlashGuardRetainer) Pressure(needPages int, at simclock.Time) {
	g.expire(at)
}

// --- TimeWindowRetainer -------------------------------------------------------

// TimeWindowRetainer retains overwritten pages for a fixed simulated
// duration, then releases them — the TimeSSD model. The timing attack
// simply waits out the window, and trim bypasses it entirely: pre-RSSD
// designs treat trim as a legitimate erase command and retain nothing
// (Table 1's ✗ in the trimming column).
type TimeWindowRetainer struct {
	store
	Window simclock.Duration
}

// NewTimeWindow returns a bounded-time retention policy.
func NewTimeWindow(window simclock.Duration) *TimeWindowRetainer {
	if window <= 0 {
		window = 3 * simclock.Day
	}
	return &TimeWindowRetainer{store: newStore(), Window: window}
}

// expire releases pins older than the window.
func (w *TimeWindowRetainer) expire(at simclock.Time) {
	for {
		v := w.peekOldest()
		if v == nil || at.Sub(v.staleAt) <= w.Window {
			return
		}
		w.popOldest()
		w.kill(v)
	}
}

func (w *TimeWindowRetainer) peekOldest() *Version {
	for w.head < len(w.queue) {
		if v := w.queue[w.head]; !v.dead {
			return v
		}
		w.head++
	}
	return nil
}

// OnStale implements ftl.Retainer: overwrites are retained for the
// window; trimmed pages are not retained at all.
func (w *TimeWindowRetainer) OnStale(lpn, ppn uint64, cause ftl.StaleCause, at simclock.Time) bool {
	w.expire(at)
	if cause != ftl.CauseOverwrite {
		return false
	}
	w.pin(lpn, ppn, cause, at)
	return true
}

// OnMigrate implements ftl.Retainer.
func (w *TimeWindowRetainer) OnMigrate(lpn, oldPPN, newPPN uint64, at simclock.Time) {
	w.onMigrate(oldPPN, newPPN)
}

// OnErased implements ftl.Retainer.
func (w *TimeWindowRetainer) OnErased(lpn, ppn uint64, at simclock.Time) {}

// Pressure implements ftl.Retainer: expire aged pins only. Within-window
// pins are held out of GC's reach (writes stall instead), which is how
// TimeSSD-class designs defend the GC attack — at the price of the
// device filling up.
func (w *TimeWindowRetainer) Pressure(needPages int, at simclock.Time) {
	w.expire(at)
}
