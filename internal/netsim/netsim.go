// Package netsim models the one resource every remote interaction in this
// system ultimately fights over: the storage server's NIC. Before it
// existed the simulation priced three kinds of traffic on three
// disconnected links — remote.RecoveryLink fair-shared restore streams
// among themselves, the offload engine charged a private per-device
// NVMe-oE link, and lifecycle/tiering transfers were not modeled at all —
// so a fleet-wide restore wave and steady-state offload never contended
// and the published RTO numbers were optimistic.
//
// The Arbiter is a single shared-NIC scheduler with three traffic
// classes, in strict priority order:
//
//	ClassRestore   > ClassOffload > ClassLifecycle
//
// Admission is strict priority with guaranteed floors: a class receives
// everything the classes above it left, minus the floor reservations of
// the active classes below it — so restore traffic preempts offload
// during a restore storm, but offload keeps a configurable guaranteed
// fraction of line rate (default 10%) and lifecycle keeps its own floor
// (default 5%), which is what prevents starvation. Inside a class,
// bandwidth is weighted fair queueing over chunk-sized grants: each open
// flow's grant is priced at the class allocation split by flow weight, in
// simulated time, so the whole scheme stays deterministic (no wall-clock
// anywhere).
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
// (MinAllocMBps — the number the starvation gate checks against the
// floor). Setting Config.FIFO disables classing entirely: every flow
// shares the line proportionally to its weight regardless of class — the
// pure processor-sharing baseline the QoS experiment quantifies the win
// against.
package netsim

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"

	"repro/internal/metrics"
	"repro/internal/simclock"
)

// Class is a traffic class on the shared NIC. Smaller is higher priority.
type Class uint8

// The three classes, in strict priority order.
const (
	ClassRestore   Class = iota // fleet recovery image streams
	ClassOffload                // steady-state segment offload (NVMe-oE push)
	ClassLifecycle              // retention GC / tier-transition transfers
	NumClasses     = 3
)

// String names the class for ledgers and reports.
func (c Class) String() string {
	switch c {
	case ClassRestore:
		return "restore"
	case ClassOffload:
		return "offload"
	case ClassLifecycle:
		return "lifecycle"
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// Defaults: the recovery-link NIC model (25 GbE-class line rate, a
// request/credit round trip) and the guaranteed floors — restore needs no
// floor (it is the top priority), offload keeps >= 10% of line rate
// through a restore storm, lifecycle keeps >= 5%.
const (
	DefaultMBps = 3000
	DefaultRTT  = 50 * simclock.Microsecond
)

// DefaultFloors returns the default guaranteed-floor fractions per class.
func DefaultFloors() [NumClasses]float64 {
	return [NumClasses]float64{ClassOffload: 0.10, ClassLifecycle: 0.05}
}

// Config configures one shared-NIC arbiter.
type Config struct {
	// MBps is the NIC line rate; RTT the per-grant request round trip.
	// Zero values take the defaults above.
	MBps float64
	RTT  simclock.Duration
	// Floors[c] is the fraction of line rate class c is guaranteed while
	// it has open flows, regardless of higher-priority demand. An all-zero
	// array takes DefaultFloors; negative entries clamp to zero. Floors
	// are honored as long as they sum to <= 1.
	Floors [NumClasses]float64
	// FIFO disables classing: every flow shares the line proportionally to
	// its weight, priority and floors ignored. This is the no-QoS baseline.
	FIFO bool
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
	first     simclock.Time // earliest timed grant start
	last      simclock.Time // latest timed grant completion
}

// Arbiter is the shared-NIC QoS scheduler. Safe for concurrent use: every
// device goroutine charging the NIC prices its grants through one mutex,
// exactly like the RecoveryLink it generalizes.
type Arbiter struct {
	mbps   float64
	rtt    simclock.Duration
	floors [NumClasses]float64
	fifo   bool

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
	allZero := true
	for c := range cfg.Floors {
		if cfg.Floors[c] < 0 {
			cfg.Floors[c] = 0
		}
		allZero = allZero && cfg.Floors[c] == 0
	}
	if allZero {
		cfg.Floors = DefaultFloors()
	}
	a := &Arbiter{mbps: cfg.MBps, rtt: cfg.RTT, floors: cfg.Floors, fifo: cfg.FIFO}
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

// FIFO reports whether classing is disabled (the no-QoS baseline).
func (a *Arbiter) FIFO() bool { return a.fifo }

// Floors returns the guaranteed-floor fractions.
func (a *Arbiter) Floors() [NumClasses]float64 { return a.floors }

// Flow is one open session on the NIC: a restore stream, one device's
// offload pipeline, or a lifecycle transfer lane. It participates in its
// class's WFQ denominator from Open until Close.
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

// Class returns the flow's traffic class.
func (f *Flow) Class() Class { return f.c }

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
	return start.Add(f.a.grant(f.c, f.w, bytes, start, true))
}

// GrantDur prices one transfer without anchoring it in time (for callers
// that track their own clocks). The wait still lands in the
// ledger; the conservation span does not move.
func (f *Flow) GrantDur(bytes int) simclock.Duration {
	return f.a.grant(f.c, f.w, bytes, 0, false)
}

// GrantClass prices one transfer for an equal-weight session of class c
// without a Flow handle — the RecoveryLink delegation path, where Open
// and pricing are decoupled. A class with no open flows is priced as a
// single solo session (the share is clamped to 1).
func (a *Arbiter) GrantClass(c Class, bytes int) simclock.Duration {
	return a.grant(c, 0, bytes, 0, false)
}

// GrantClassAt is GrantClass anchored at `now`, so the grant contributes
// to the class's conservation span.
func (a *Arbiter) GrantClassAt(c Class, bytes int, now simclock.Time) simclock.Duration {
	return a.grant(c, 0, bytes, now, true)
}

// minAllocFrac floors a zero class allocation (a floorless class fully
// preempted) so a grant is never priced at infinite duration.
const minAllocFrac = 1e-3

// grant prices one transfer of `bytes` for a flow of class c with the
// given weight (0 = class-level equal-weight pricing) and folds it into
// the ledger. Returns the grant duration: RTT + bytes over the flow's
// share of the class allocation.
func (a *Arbiter) grant(c Class, flowWeight float64, bytes int, now simclock.Time, timed bool) simclock.Duration {
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
	if alloc <= 0 {
		alloc = a.mbps * minAllocFrac
	}
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
	if timed {
		if !led.spanSet || now < led.first {
			led.first = now
			led.spanSet = true
		}
		if done := now.Add(dur); done > led.last {
			led.last = done
		}
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
// is demand).
//
// Strict mode walks classes in priority order: each active class takes
// what its superiors left, minus the floor reservations of the active
// classes below it, but never less than its own floor (and never more
// than what remains — allocations always conserve the line). FIFO mode
// splits the line proportionally to class weight sums: no priority, no
// floors — the baseline where a restore storm and background offload
// trample each other.
func (a *Arbiter) classAllocLocked(c Class) float64 {
	line := a.mbps
	if a.fifo {
		var tot, mine float64
		for q := Class(0); q < NumClasses; q++ {
			w := a.wsum[q]
			if q == c && w <= 0 {
				w = 1 // phantom solo session
			}
			tot += w
			if q == c {
				mine = w
			}
		}
		return line * mine / tot
	}
	avail := line
	for p := Class(0); p < NumClasses; p++ {
		if a.active[p] == 0 && p != c {
			continue
		}
		var reserved float64
		for q := p + 1; q < NumClasses; q++ {
			if a.active[q] > 0 || q == c {
				reserved += a.floors[q] * line
			}
		}
		alloc := avail - reserved
		if fl := a.floors[p] * line; alloc < fl {
			alloc = fl
		}
		if alloc > avail {
			alloc = avail
		}
		if alloc < 0 {
			alloc = 0
		}
		if p == c {
			return alloc
		}
		avail -= alloc
	}
	return 0 // unreachable: the loop always reaches p == c
}

// ActiveFlows returns the number of open flows in class c.
func (a *Arbiter) ActiveFlows(c Class) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.active[c]
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

// Table renders the per-class ledger as a metrics table — the experiment
// harness prints one per arbiter next to its device tables.
func (a *Arbiter) Table() *metrics.Table {
	t := metrics.NewTable("class", "grants", "MB", "flows_peak",
		"wait_p50_ms", "wait_p99_ms", "throttled", "min_alloc_MBps")
	for _, st := range a.Stats() {
		t.AddRow(st.Class, st.Grants,
			fmt.Sprintf("%.1f", float64(st.BytesGranted)/1e6), st.QueuePeak,
			fmt.Sprintf("%.3f", st.WaitP50Ms), fmt.Sprintf("%.3f", st.WaitP99Ms),
			st.Throttled, fmt.Sprintf("%.1f", st.MinAllocMBps))
	}
	return t
}

// Conservation reports the total bytes granted across all classes, the
// simulated span from the first timed grant's start to the last timed
// grant's completion, and the implied aggregate rate in MBps. The rate
// can never legitimately exceed the line rate — the conservation gate
// the QoS experiment enforces.
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

// ParseFloors parses the rssdbench -qosfloors value: "offload,lifecycle"
// guaranteed fractions, e.g. "0.10,0.05" (restore, the top priority,
// needs no floor). Each must be in [0, 0.5] and together they must leave
// the restore class a majority of the line.
func ParseFloors(s string) ([NumClasses]float64, error) {
	var out [NumClasses]float64
	parts := strings.Split(s, ",")
	if len(parts) != 2 {
		return out, fmt.Errorf("want \"offload,lifecycle\" fractions, got %q", s)
	}
	sum := 0.0
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return out, fmt.Errorf("floor %q: %w", p, err)
		}
		if v < 0 || v > 0.5 {
			return out, fmt.Errorf("floor %v out of range [0, 0.5]", v)
		}
		out[ClassOffload+Class(i)] = v
		sum += v
	}
	if sum >= 0.5 {
		return out, fmt.Errorf("floors sum to %.2f; must leave restore a majority of the line", sum)
	}
	return out, nil
}
