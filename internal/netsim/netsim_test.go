package netsim

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/simclock"
)

// grantDur is one flow grant's duration: its completion instant for a
// transfer starting at zero.
func grantDur(f *Flow, bytes int) simclock.Duration {
	return f.Grant(bytes, 0).Sub(0)
}

// TestLegacyEquivalence: an uncontended grant must be bit-identical to
// the legacy link formulas this arbiter replaced — the recovery link's
// fair share (share in the numerator) and the engine's xferDur (share 1)
// — so the delegation shims cannot drift.
func TestLegacyEquivalence(t *testing.T) {
	a := New(Config{MBps: 1000, RTT: simclock.Microsecond})
	bytes := 1_000_000
	legacy := func(share int) simclock.Duration {
		return simclock.Microsecond +
			simclock.Duration(float64(bytes)*float64(share)/(1000*1e6)*float64(simclock.Second))
	}
	if got := a.GrantClassAt(ClassRestore, bytes, 0); got != legacy(1) {
		t.Fatalf("solo class grant = %v, want %v", got, legacy(1))
	}
	f1 := a.Open(ClassRestore, 1)
	f2 := a.Open(ClassRestore, 1)
	f3 := a.Open(ClassRestore, 1)
	if got := a.GrantClassAt(ClassRestore, bytes, 0); got != legacy(3) {
		t.Fatalf("3-way class grant = %v, want %v", got, legacy(3))
	}
	if got := grantDur(f1, bytes); got != legacy(3) {
		t.Fatalf("3-way flow grant = %v, want %v", got, legacy(3))
	}
	f2.Close()
	f2.Close() // idempotent
	f3.Close()
	if got := grantDur(f1, bytes); got != legacy(1) {
		t.Fatalf("share not returned on close: %v", got)
	}
	f1.Close()
	// A lone offload flow on a private arbiter prices exactly like the
	// engine's old dedicated link: no other class active, full line.
	b := New(Config{MBps: 1200, RTT: 30 * simclock.Microsecond})
	fo := b.Open(ClassOffload, 1)
	want := 30*simclock.Microsecond +
		simclock.Duration(float64(bytes)/(1200*1e6)*float64(simclock.Second))
	if got := grantDur(fo, bytes); got != want {
		t.Fatalf("solo offload grant = %v, want xferDur %v", got, want)
	}
	fo.Close()
}

// TestStrictPriorityFloors: with both classes active the allocations are
// the line minus the offload floor and the floor itself — 900 / 100 of a
// 1000 MBps line — and they sum to exactly the line rate.
func TestStrictPriorityFloors(t *testing.T) {
	a := New(Config{MBps: 1000, RTT: simclock.Microsecond})
	fr := a.Open(ClassRestore, 1)
	fo := a.Open(ClassOffload, 1)
	defer fr.Close()

	a.mu.Lock()
	ar := a.classAllocLocked(ClassRestore)
	ao := a.classAllocLocked(ClassOffload)
	a.mu.Unlock()
	if ar != 900 || ao != 100 {
		t.Fatalf("allocs = %v/%v, want 900/100", ar, ao)
	}
	if sum := ar + ao; sum != 1000 {
		t.Fatalf("allocations do not sum to the line: %v", sum)
	}

	// Restore-only demand still gets the full line (no reservation for an
	// idle offload class).
	fo.Close()
	a.mu.Lock()
	solo := a.classAllocLocked(ClassRestore)
	a.mu.Unlock()
	if solo != 1000 {
		t.Fatalf("solo restore alloc = %.1f, want full line", solo)
	}
}

// TestRestoreBoundUnderOffload: with k restore sessions open, a restore
// grant costs at most 1/(1 - offload floor) of the same grant with offload
// idle, however many offload flows are open. Each arbiter here is built
// for one grant and dropped, so its flows are never closed.
func TestRestoreBoundUnderOffload(t *testing.T) {
	const bytes = 1 << 20
	bound := 1 / (1 - floors[ClassOffload])
	open := func(a *Arbiter, c Class, n int) *Flow {
		var f *Flow
		for i := 0; i < n; i++ {
			f = a.Open(c, 1)
		}
		return f
	}
	for k := 1; k <= 8; k *= 2 {
		base := grantDur(open(New(Config{}), ClassRestore, k), bytes)
		for n := 1; n <= 64; n *= 4 {
			a := New(Config{})
			fr := open(a, ClassRestore, k)
			open(a, ClassOffload, n)
			got := grantDur(fr, bytes)
			if got <= base || float64(got) > float64(base)*bound {
				t.Fatalf("k=%d, %d offload flows: restore grant %v vs %v with offload idle (bound %.4fx)",
					k, n, got, base, bound)
			}
			if st := a.ClassStats(ClassRestore); st.Throttled != 1 {
				t.Fatalf("k=%d, %d offload flows: contended grant not counted throttled: %+v", k, n, st)
			}
		}
	}
}

// grantEvent is one reconstructed grant interval for the conservation
// sweep: the transfer occupies [start, done] at `rate` bytes/sec.
type grantEvent struct {
	start, done simclock.Time
	rate        float64
}

// TestConservationAndStarvationProperty is the property-style invariant
// check: random interleavings of two-class demand over a fixed flow
// population must (a) never have instantaneous granted rate exceeding the
// line at any point of the timeline, and (b) never hold an offload grant
// past its burst window — RTT plus the bytes served at the offload floor
// (its guaranteed worst case). Runs under -race in CI.
func TestConservationAndStarvationProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(0x90D0))
	const line = 2000.0
	rtt := 10 * simclock.Microsecond
	for round := 0; round < 20; round++ {
		a := New(Config{MBps: line, RTT: rtt})
		type openFlow struct {
			f   *Flow
			now simclock.Time
		}
		var flows []*openFlow
		counts := [NumClasses]int{1 + rng.Intn(4), 1 + rng.Intn(4)}
		for c := Class(0); c < NumClasses; c++ {
			for i := 0; i < counts[c]; i++ {
				flows = append(flows, &openFlow{f: a.Open(c, 1)})
			}
		}
		var events []grantEvent
		var offloadGrants int
		floors := a.Floors()
		for g := 0; g < 200; g++ {
			of := flows[rng.Intn(len(flows))]
			bytes := 64<<10 + rng.Intn(1<<20)
			start := of.now
			done := of.f.Grant(bytes, start)
			dur := done.Sub(start)
			of.now = done
			if xfer := dur - rtt; xfer > 0 {
				events = append(events, grantEvent{start, done, float64(bytes) / xfer.Seconds()})
			}
			if of.f.Class() == ClassOffload {
				offloadGrants++
				// Non-starvation: the floor bounds the burst window even
				// with restore contending. share <= open offload flows;
				// allocation >= floor * line.
				worst := rtt + simclock.Duration(
					float64(bytes)*float64(counts[ClassOffload])/
						(floors[ClassOffload]*line*1e6)*float64(simclock.Second))
				if dur > worst+worst/100 {
					t.Fatalf("round %d: offload grant %v exceeds burst window %v", round, dur, worst)
				}
			}
		}
		if offloadGrants == 0 {
			continue // this round never touched offload; population guarantees most do
		}
		// Sweep every interval boundary: the instantaneous sum of granted
		// rates must conserve the line. (Population is fixed for the whole
		// round, so every grant was priced against full knowledge of its
		// competitors — the model must never overcommit.)
		for _, e := range events {
			var sum float64
			for _, o := range events {
				if o.start <= e.start && e.start < o.done {
					sum += o.rate
				}
			}
			if sum > line*1e6*1.0001 {
				t.Fatalf("round %d: instantaneous rate %.0f exceeds line %.0f B/s", round, sum, line*1e6)
			}
		}
		total, span, mbps := a.Conservation()
		if total == 0 || span <= 0 {
			t.Fatalf("round %d: empty conservation ledger (%d bytes, %v)", round, total, span)
		}
		if mbps > line*1.0001 {
			t.Fatalf("round %d: aggregate %.1f MBps exceeds line %.0f", round, mbps, line)
		}
		for _, of := range flows {
			of.f.Close()
		}
	}
}

// TestConcurrentGrants drives open/grant/close from many goroutines so
// the race job exercises the arbiter's locking, then checks the ledger
// balanced.
func TestConcurrentGrants(t *testing.T) {
	a := New(Config{})
	var wg sync.WaitGroup
	const workers, grants = 8, 50
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			f := a.Open(Class(w%int(NumClasses)), 1)
			defer f.Close()
			now := simclock.Time(0)
			for i := 0; i < grants; i++ {
				now = f.Grant(4096, now)
			}
		}(w)
	}
	wg.Wait()
	var got uint64
	for _, st := range a.Stats() {
		got += st.BytesGranted
	}
	if want := uint64(workers * grants * 4096); got != want {
		t.Fatalf("ledger bytes = %d, want %d", got, want)
	}
	for c := Class(0); c < NumClasses; c++ {
		if a.ActiveFlows(c) != 0 {
			t.Fatalf("class %v still has open flows", c)
		}
	}
}
