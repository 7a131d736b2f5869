// Package chaos is the deterministic fault injector the soak experiment
// drives the whole stack through. It wraps the seams the system already
// exposes — the device dial path (core.Config.Dial via
// remote.ClusterConfig.WrapConn), the object-store backend behind
// remote.Store, and the cluster's Kill/Revive control plane — and draws
// every fault from a seeded schedule, so any soak failure reproduces
// exactly by re-running with the printed seed.
//
// Determinism is the design constraint everything else bends around:
// there is no shared rand.Rand whose consumption order goroutines could
// perturb. Each draw is a pure hash of (seed, fault class, coordinates) —
// the coordinates being stable identities like (device, dial ordinal) or
// (blob key, op) — so the same seed yields the same fault at the same
// point in the workload regardless of scheduling.
//
// The injector keeps a per-class ledger: faults armed (injected), faults
// the system healed (the device observed healthy again, in simulated
// time, so heal latency spans the real redial/backoff/requeue path), and
// faults still pending when the run ends (wedged — the soak's hard zero
// gate). Heal latency percentiles per class are the headline robustness
// number.
package chaos

import (
	"sort"
	"sync"

	"repro/internal/simclock"
)

// Class partitions injected faults by the seam they enter through.
type Class int

const (
	// ClassConn is a dialed-session fault: the conn dies after a drawn
	// read budget, mid-push or mid-restore.
	ClassConn Class = iota
	// ClassWire is a wire mutation: one outbound frame bit-flipped in
	// flight, which the server's MAC rejects, killing the session from
	// the far end.
	ClassWire
	// ClassTier is a backend-tier fault: a transiently erroring or slow
	// object-store Put/Get under the remote store.
	ClassTier
	// ClassKill is a whole-server crash, drawn per soak wave and healed
	// by the control loop's Revive.
	ClassKill
	NumClasses
)

// String names the class for ledgers and failure messages.
func (c Class) String() string {
	switch c {
	case ClassConn:
		return "conn"
	case ClassWire:
		return "wire"
	case ClassTier:
		return "tier"
	case ClassKill:
		return "kill"
	}
	return "unknown"
}

// Rates are per-opportunity fault probabilities. An "opportunity" is the
// natural unit of each seam: a dial for conn/wire faults, the first
// touch of an object-store key for tier faults.
type Rates struct {
	ConnCut    float64 // P(a dialed session gets a read-budget cut)
	WireMutate float64 // P(a dialed session gets one mutated outbound frame)
	TierErr    float64 // P(the first Put/Get of a key fails transiently)
	TierSlow   float64 // P(the first Put of a key draws a service-time spike)
}

// Schedule is a complete, replayable fault plan: everything the injector
// does is a pure function of this value and the workload's stable
// coordinates.
type Schedule struct {
	Seed  int64
	Rates Rates
	// MTBF is the mean number of soak waves between injected server
	// kills (the kill process is drawn per wave); <= 0 disables kills.
	MTBF int
	// TierSpike is the Put service-time penalty a TierSlow draw injects;
	// zero takes 2ms.
	TierSpike simclock.Duration
}

func (s Schedule) spike() simclock.Duration {
	if s.TierSpike <= 0 {
		return 2 * simclock.Millisecond
	}
	return s.TierSpike
}

// mix is the splitmix64 finalizer: a cheap, well-distributed 64-bit hash
// step. Good enough to decorrelate draw coordinates; not cryptographic,
// which a fault schedule does not need.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (s Schedule) hash(c Class, a, b uint64) uint64 {
	h := mix(uint64(s.Seed))
	h = mix(h ^ (uint64(c) + 1))
	h = mix(h ^ a)
	h = mix(h ^ b)
	return h
}

// hit draws a Bernoulli(p) outcome keyed on (seed, class, a, b).
func (s Schedule) hit(p float64, c Class, a, b uint64) bool {
	return p > 0 && float64(s.hash(c, a, b)>>11)/(1<<53) < p
}

// pick draws a deterministic integer in [0, n) keyed on (seed, class, a, b).
func (s Schedule) pick(n int, c Class, a, b uint64) int {
	if n <= 1 {
		return 0
	}
	return int(s.hash(c, a, b) % uint64(n))
}

// fnv64 hashes a blob key into draw coordinates (FNV-1a).
func fnv64(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}

// Counts is one class's slice of the fault ledger.
type Counts struct {
	Injected int // faults armed
	Healed   int // faults the system recovered from
	Wedged   int // faults still pending when the run finished
}

// ClassLedger is the rendered ledger row for one fault class.
type ClassLedger struct {
	Class     string  `json:"class"`
	Injected  int     `json:"injected"`
	Healed    int     `json:"healed"`
	Wedged    int     `json:"wedged"`
	HealP50Ms float64 `json:"heal_p50_ms"`
	HealP99Ms float64 `json:"heal_p99_ms"`
	HealMaxMs float64 `json:"heal_max_ms"`
}

// pendingFault is an armed fault awaiting a healthy observation of its
// device. at is the device's sim time when the fault was armed (its last
// record boundary), so heal latency is measured in workload time.
type pendingFault struct {
	class Class
	at    simclock.Time
}

// Injector draws faults from a Schedule and keeps the ledger. All methods
// are safe for concurrent use; determinism holds because no draw depends
// on mutable shared state, only on stable workload coordinates.
type Injector struct {
	Sched Schedule

	mu      sync.Mutex
	lastAt  map[uint64]simclock.Time // device -> sim time of last Observe
	dials   map[uint64]uint64        // device -> dial ordinal
	putSeen map[string]struct{}      // keys whose first Put already drew
	getSeen map[string]struct{}      // keys whose first Get already drew
	pending map[uint64][]pendingFault
	kills   map[int]simclock.Time // killed server -> crash time
	counts  [NumClasses]Counts
	heal    [NumClasses][]simclock.Duration
	spikes  []simclock.Duration // tier-slow FIFO surfaced via PutServiceTime
}

// NewInjector returns an injector drawing from sched.
func NewInjector(sched Schedule) *Injector {
	return &Injector{
		Sched:   sched,
		lastAt:  map[uint64]simclock.Time{},
		dials:   map[uint64]uint64{},
		putSeen: map[string]struct{}{},
		getSeen: map[string]struct{}{},
		pending: map[uint64][]pendingFault{},
		kills:   map[int]simclock.Time{},
	}
}

// armLocked records an injected fault against dev, stamped with the
// device's last observed sim time (the record boundary the fault landed
// in). Caller holds inj.mu.
func (inj *Injector) armLocked(c Class, dev uint64) {
	inj.counts[c].Injected++
	inj.pending[dev] = append(inj.pending[dev], pendingFault{class: c, at: inj.lastAt[dev]})
}

// Observe stamps one device's health at a workload boundary, in device
// sim time. The soak calls it after every record batch with
// healthy = (the device's offload pipeline reports no pending error).
// A healthy observation heals every fault pending on the device; the
// heal latency is the sim-time span from arming to this observation —
// i.e. it includes the real redial backoff, requeue, and re-ack path the
// fault forced the device through.
func (inj *Injector) Observe(dev uint64, at simclock.Time, healthy bool) {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	inj.lastAt[dev] = at
	if !healthy {
		return
	}
	for _, f := range inj.pending[dev] {
		inj.counts[f.class].Healed++
		d := simclock.Duration(at - f.at)
		if d < 0 {
			d = 0
		}
		inj.heal[f.class] = append(inj.heal[f.class], d)
	}
	delete(inj.pending, dev)
}

// DrawKill reports whether the schedule crashes a server in the given
// wave, and which one. Pure in (seed, wave, servers).
func (inj *Injector) DrawKill(wave uint64, servers int) (int, bool) {
	s := inj.Sched
	if s.MTBF <= 0 || servers <= 0 {
		return 0, false
	}
	if s.pick(s.MTBF, ClassKill, wave, 0) != 0 {
		return 0, false
	}
	return s.pick(servers, ClassKill, wave, 1), true
}

// KillStarted records an injected server crash at sim time at.
func (inj *Injector) KillStarted(srv int, at simclock.Time) {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	inj.counts[ClassKill].Injected++
	inj.kills[srv] = at
}

// KillHealed records the server's revive; heal latency is crash-to-revive
// in sim time.
func (inj *Injector) KillHealed(srv int, at simclock.Time) {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	t0, ok := inj.kills[srv]
	if !ok {
		return
	}
	delete(inj.kills, srv)
	inj.counts[ClassKill].Healed++
	d := simclock.Duration(at - t0)
	if d < 0 {
		d = 0
	}
	inj.heal[ClassKill] = append(inj.heal[ClassKill], d)
}

// Finish closes the ledger: every fault still pending a healthy
// observation, and every server still down, is wedged. Call it after the
// final drain/quiesce — a fault that survives the drain really is stuck.
func (inj *Injector) Finish() {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	for _, fs := range inj.pending {
		for _, f := range fs {
			inj.counts[f.class].Wedged++
		}
	}
	inj.pending = map[uint64][]pendingFault{}
	for range inj.kills {
		inj.counts[ClassKill].Wedged++
	}
	inj.kills = map[int]simclock.Time{}
}

// Ledger renders the per-class fault ledger with heal-latency
// percentiles in simulated milliseconds.
func (inj *Injector) Ledger() [NumClasses]ClassLedger {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	var out [NumClasses]ClassLedger
	for c := Class(0); c < NumClasses; c++ {
		ds := append([]simclock.Duration(nil), inj.heal[c]...)
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		out[c] = ClassLedger{
			Class:     c.String(),
			Injected:  inj.counts[c].Injected,
			Healed:    inj.counts[c].Healed,
			Wedged:    inj.counts[c].Wedged,
			HealP50Ms: pctMs(ds, 0.50),
			HealP99Ms: pctMs(ds, 0.99),
			HealMaxMs: pctMs(ds, 1.00),
		}
	}
	return out
}

// TotalInjected sums injected faults across classes.
func (inj *Injector) TotalInjected() int {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	n := 0
	for c := Class(0); c < NumClasses; c++ {
		n += inj.counts[c].Injected
	}
	return n
}

// ActiveClasses counts fault classes that injected at least once — the
// soak's breadth gate (>= 3 classes must actually fire).
func (inj *Injector) ActiveClasses() int {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	n := 0
	for c := Class(0); c < NumClasses; c++ {
		if inj.counts[c].Injected > 0 {
			n++
		}
	}
	return n
}

func pctMs(sorted []simclock.Duration, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i]) / float64(simclock.Millisecond)
}
