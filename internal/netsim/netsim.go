// Package netsim models the one resource every remote interaction in this
// system ultimately fights over: the storage server's NIC. Before it
// existed the simulation priced restore and offload traffic on two
// disconnected links — remote.RecoveryLink fair-shared restore streams
// among themselves while the offload engine charged a private per-device
// NVMe-oE link — so a fleet-wide restore wave and steady-state offload
// never contended and the published RTO numbers were optimistic.
//
// The Arbiter is a single shared-NIC scheduler with two traffic classes,
// in strict priority order:
//
//	ClassRestore > ClassOffload
//
// Its one policy is strict priority with a guaranteed offload floor:
// restore takes the line minus the offload floor while offload has open
// flows, and offload takes what restore left — never less than 10 % of
// line rate, which is what keeps a restore storm from starving it. Inside
// a class, bandwidth is weighted fair queueing over chunk-sized grants:
// each open flow's grant is priced at the class allocation split by flow
// weight, in simulated time, so the whole scheme stays deterministic (no
// wall-clock anywhere).
//
// A flow counts toward its class's WFQ denominator while it is open —
// the same session semantics remote.RecoveryLink has always used
// (Open brackets the whole restore) — so pricing is the instantaneous
// processor-sharing model the rest of the simulation is built on.
//
// The arbiter also keeps a per-class latency/backlog ledger (QoSStats):
// grants, bytes, peak open flows, grant-wait percentiles through
// metrics.Histogram, how many grants were priced under cross-class
// contention (Throttled), and the lowest class allocation any grant saw
// (MinAllocMBps — the number the starvation invariant checks against the
// floor).
package netsim

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/metrics"
	"repro/internal/simclock"
)

// Class is a traffic class on the shared NIC. Smaller is higher priority.
type Class uint8

// The two classes, in strict priority order.
const (
	ClassRestore Class = iota // fleet recovery image streams
	ClassOffload              // steady-state segment offload (NVMe-oE push)
	NumClasses   = 2
)

// String names the class for ledgers and reports.
func (c Class) String() string {
	switch c {
	case ClassRestore:
		return "restore"
	case ClassOffload:
		return "offload"
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// Defaults: the recovery-link NIC model (25 GbE-class line rate, a
// request/credit round trip).
const (
	DefaultMBps = 3000
	DefaultRTT  = 50 * simclock.Microsecond
)

// floors is the fraction of line rate each class is guaranteed while it
// has open flows: restore needs none (it is the top priority), offload
// keeps 10 % through a restore storm.
var floors = [NumClasses]float64{ClassOffload: 0.10}

// Config configures one shared-NIC arbiter.
type Config struct {
	// MBps is the NIC line rate; RTT the per-grant request round trip.
	// Zero values take the defaults above.
	MBps float64
	RTT  simclock.Duration
}

// classLedger is one class's slice of the QoS ledger. All fields are
// guarded by the arbiter mutex.
type classLedger struct {
	grants    uint64
	bytes     uint64
	throttled uint64
	queuePeak int
	minAlloc  float64 // lowest class allocation (MBps) any grant was priced at
	wait      *metrics.Histogram
	spanSet   bool
	first     simclock.Time // earliest grant start
	last      simclock.Time // latest grant completion
}

// Arbiter is the shared-NIC QoS scheduler. Safe for concurrent use: every
// device goroutine charging the NIC prices its grants through one mutex,
// exactly like the RecoveryLink it generalizes.
type Arbiter struct {
	mbps float64
	rtt  simclock.Duration

	mu     sync.Mutex
	active [NumClasses]int
	wsum   [NumClasses]float64
	led    [NumClasses]classLedger
}

// New builds an arbiter from cfg with defaults filled in.
func New(cfg Config) *Arbiter {
	if cfg.MBps <= 0 {
		cfg.MBps = DefaultMBps
	}
	if cfg.RTT <= 0 {
		cfg.RTT = DefaultRTT
	}
	a := &Arbiter{mbps: cfg.MBps, rtt: cfg.RTT}
	for c := range a.led {
		a.led[c].minAlloc = math.Inf(1)
		a.led[c].wait = metrics.NewHistogram(0)
	}
	return a
}

// LineMBps returns the NIC line rate.
func (a *Arbiter) LineMBps() float64 { return a.mbps }

// RTT returns the per-grant round trip.
func (a *Arbiter) RTT() simclock.Duration { return a.rtt }

// Floors returns the guaranteed-floor fractions.
func (a *Arbiter) Floors() [NumClasses]float64 { return floors }

// Flow is one open session on the NIC: a restore stream or one device's
// offload pipeline. It participates in its class's WFQ denominator from
// Open until Close.
type Flow struct {
	a    *Arbiter
	c    Class
	w    float64
	once sync.Once
}

// Open registers a flow of the given class and weight (weight <= 0 takes
// 1). Close is idempotent.
func (a *Arbiter) Open(c Class, weight float64) *Flow {
	if weight <= 0 {
		weight = 1
	}
	a.mu.Lock()
	a.active[c]++
	a.wsum[c] += weight
	if a.active[c] > a.led[c].queuePeak {
		a.led[c].queuePeak = a.active[c]
	}
	a.mu.Unlock()
	return &Flow{a: a, c: c, w: weight}
}

// Close deregisters the flow, returning its share to the class.
func (f *Flow) Close() {
	f.once.Do(func() {
		f.a.mu.Lock()
		f.a.active[f.c]--
		f.a.wsum[f.c] -= f.w
		f.a.mu.Unlock()
	})
}

// Grant charges one chunk-sized transfer starting at `start` and returns
// its completion instant. The grant is priced at the flow's instantaneous
// WFQ share of its class allocation and recorded in the class ledger
// (including the conservation span).
func (f *Flow) Grant(bytes int, start simclock.Time) simclock.Time {
	return start.Add(f.a.grant(f.c, f.w, bytes, start))
}

// GrantClassAt prices one transfer starting at `now` for an equal-weight
// session of class c without a Flow handle — the RecoveryLink path, where
// Open and pricing are decoupled. A class with no open flows is priced as
// a single solo session (the share is clamped to 1).
func (a *Arbiter) GrantClassAt(c Class, bytes int, now simclock.Time) simclock.Duration {
	return a.grant(c, 0, bytes, now)
}

// grant prices one transfer of `bytes` starting at `now` for a flow of
// class c with the given weight (0 = class-level equal-weight pricing) and
// folds it into the ledger. Returns the grant duration: RTT + bytes over
// the flow's share of the class allocation.
func (a *Arbiter) grant(c Class, flowWeight float64, bytes int, now simclock.Time) simclock.Duration {
	a.mu.Lock()
	defer a.mu.Unlock()

	// The flow's share divisor: class weight sum over this flow's weight.
	// Class-level pricing (flowWeight 0) treats every open flow as weight
	// 1 — share = session count, the RecoveryLink fair-share formula.
	var share float64
	switch {
	case flowWeight > 0 && a.wsum[c] > 0:
		share = a.wsum[c] / flowWeight
	case flowWeight <= 0:
		share = float64(a.active[c])
	}
	if share < 1 {
		share = 1
	}

	alloc := a.classAllocLocked(c)
	// This multiplication order is pinned: netsim_test.go holds an
	// uncontended grant bit-identical to RTT + bytes·share/(MBps·1e6)
	// computed this way, and committed BENCH rows depend on it.
	dur := a.rtt + simclock.Duration(float64(bytes)*share/(alloc*1e6)*float64(simclock.Second))

	led := &a.led[c]
	led.grants++
	led.bytes += uint64(bytes)
	if a.crossActiveLocked(c) {
		led.throttled++
	}
	if alloc < led.minAlloc {
		led.minAlloc = alloc
	}
	led.wait.Observe(dur)
	if !led.spanSet || now < led.first {
		led.first = now
		led.spanSet = true
	}
	if done := now.Add(dur); done > led.last {
		led.last = done
	}
	return dur
}

// crossActiveLocked reports whether any other class has open flows — the
// definition of cross-class contention the Throttled counter records.
func (a *Arbiter) crossActiveLocked(c Class) bool {
	for q := Class(0); q < NumClasses; q++ {
		if q != c && a.active[q] > 0 {
			return true
		}
	}
	return false
}

// classAllocLocked computes class c's instantaneous bandwidth allocation
// in MBps, treating c as active even when it has no open flows (a grant
// is demand). Restore takes the line minus the offload floor while
// offload has demand; offload takes what restore leaves, which is the
// whole line when no restore is open and exactly its floor otherwise.
// The two allocations always sum to the line.
func (a *Arbiter) classAllocLocked(c Class) float64 {
	line := a.mbps
	restore := line
	if c == ClassOffload || a.active[ClassOffload] > 0 {
		restore -= floors[ClassOffload] * line
	}
	switch {
	case c == ClassRestore:
		return restore
	case a.active[ClassRestore] > 0:
		return line - restore
	}
	return line
}

// QoSStats is one class's slice of the per-class ledger, JSON-friendly
// for the bench files.
type QoSStats struct {
	Class        string
	Grants       uint64
	BytesGranted uint64
	QueuePeak    int     // peak concurrently open flows
	WaitP50Ms    float64 // grant-wait percentiles (RTT + transfer)
	WaitP99Ms    float64
	WaitMaxMs    float64
	Throttled    uint64  // grants priced under cross-class contention
	MinAllocMBps float64 // lowest class allocation any grant saw (0: no grants)
}

// ClassStats snapshots one class's ledger.
func (a *Arbiter) ClassStats(c Class) QoSStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.classStatsLocked(c)
}

func (a *Arbiter) classStatsLocked(c Class) QoSStats {
	led := &a.led[c]
	st := QoSStats{
		Class:        c.String(),
		Grants:       led.grants,
		BytesGranted: led.bytes,
		QueuePeak:    led.queuePeak,
		Throttled:    led.throttled,
	}
	if led.grants > 0 {
		st.WaitP50Ms = float64(led.wait.Percentile(50)) / 1e6
		st.WaitP99Ms = float64(led.wait.Percentile(99)) / 1e6
		st.WaitMaxMs = float64(led.wait.Max()) / 1e6
		st.MinAllocMBps = led.minAlloc
	}
	return st
}

// Stats snapshots every class's ledger, in priority order.
func (a *Arbiter) Stats() [NumClasses]QoSStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	var out [NumClasses]QoSStats
	for c := Class(0); c < NumClasses; c++ {
		out[c] = a.classStatsLocked(c)
	}
	return out
}

// Conservation reports the total bytes granted across all classes, the
// simulated span from the first grant's start to the last grant's
// completion, and the implied aggregate rate in MBps. The rate can never
// legitimately exceed the line rate — the conservation invariant the soak
// checks on every server NIC.
func (a *Arbiter) Conservation() (bytes uint64, span simclock.Duration, mbps float64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	var first, last simclock.Time
	seen := false
	for c := range a.led {
		bytes += a.led[c].bytes
		if !a.led[c].spanSet {
			continue
		}
		if !seen || a.led[c].first < first {
			first = a.led[c].first
		}
		if a.led[c].last > last {
			last = a.led[c].last
		}
		seen = true
	}
	if seen {
		span = last.Sub(first)
	}
	if span > 0 {
		mbps = float64(bytes) / span.Seconds() / 1e6
	}
	return bytes, span, mbps
}
