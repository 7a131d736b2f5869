package remote

import (
	"sync"

	"repro/internal/netsim"
	"repro/internal/simclock"
)

// RecoveryLink models the storage server's NIC during fleet recovery.
// Steady-state offload is device-bound — each device owns its NVMe-oE
// link — but recovery inverts the direction: after a fleet-wide incident,
// N devices pull their images from ONE server concurrently, and the
// server's egress NIC is the bottleneck (Project Almanac's observation
// that restore traffic, not ingest, is the bandwidth cliff). The model is
// processor sharing with per-session fair share: a chunk transferred while
// k sessions are recovering sees BW/k of the NIC.
//
// Devices recovering concurrently register with Open and charge each
// chunk's simulated time through ChunkTime. The instantaneous session
// count prices the share, so a device that finishes early returns its
// share to the stragglers — exactly the fairness a per-connection TCP
// share would give.
//
// RecoveryLink is a thin wrapper over the restore class of a shared-NIC
// QoS arbiter (internal/netsim), which does the pricing. A link built by
// NewRecoveryLink owns a private arbiter sized from its RTT/MBps fields
// (restore is the only active class, so it always holds the full line and
// the fair share is the session count). A link built by
// NewRecoveryLinkOn instead charges restore traffic to a shared arbiter,
// where it contends with offload and lifecycle classes under the QoS
// policy.
//
// Zero value: a `var l RecoveryLink` behaves exactly like
// NewRecoveryLink(0, 0) — both leave RTT/MBps unset and lazily build a
// private arbiter from the defaults below on first use. The equivalence
// is asserted by TestRecoveryLinkFairShare so the delegation cannot
// drift.
type RecoveryLink struct {
	// RTT is the per-chunk request round trip; MBps the server NIC
	// bandwidth shared by every recovering session. Zero values take the
	// defaults below. Both are read when the private arbiter is first
	// built; they are ignored on a link attached to a shared arbiter.
	RTT  simclock.Duration
	MBps float64

	mu  sync.Mutex
	arb *netsim.Arbiter
}

// Recovery link defaults: a server NIC a few times faster than one
// device's offload link (25 GbE-class against the 1200 MB/s device link),
// with a slightly longer round trip for the request/credit exchange.
const (
	DefaultRecoveryRTT  = 50 * simclock.Microsecond
	DefaultRecoveryMBps = 3000
)

// NewRecoveryLink returns a link model over its own private arbiter;
// rtt/mbps <= 0 take the defaults.
func NewRecoveryLink(rtt simclock.Duration, mbps float64) *RecoveryLink {
	return &RecoveryLink{RTT: rtt, MBps: mbps}
}

// NewRecoveryLinkOn returns a link that charges restore traffic to the
// given shared arbiter — the QoS path, where restores contend with
// offload and lifecycle classes on one NIC.
func NewRecoveryLinkOn(arb *netsim.Arbiter) *RecoveryLink {
	return &RecoveryLink{arb: arb}
}

// Arbiter returns the NIC arbiter restore traffic is charged to, lazily
// building the private one from RTT/MBps when the link is not attached to
// a shared NIC.
func (l *RecoveryLink) Arbiter() *netsim.Arbiter {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.arb == nil {
		rtt, mbps := l.RTT, l.MBps
		if rtt <= 0 {
			rtt = DefaultRecoveryRTT
		}
		if mbps <= 0 {
			mbps = DefaultRecoveryMBps
		}
		l.arb = netsim.New(netsim.Config{RTT: rtt, MBps: mbps})
	}
	return l.arb
}

// Open registers one recovering session and returns its release. Sessions
// must bracket their whole restore so the fair share prices concurrency
// honestly. Release is idempotent.
func (l *RecoveryLink) Open() (release func()) {
	f := l.Arbiter().Open(netsim.ClassRestore, 1)
	return f.Close
}

// ChunkTime prices one chunk transfer at the current fair share of the
// restore class's NIC allocation: RTT + bytes / (allocation / sessions).
// On a private arbiter the allocation is the full line:
// RTT + bytes / (BW / sessions).
func (l *RecoveryLink) ChunkTime(bytes int) simclock.Duration {
	return l.Arbiter().GrantClass(netsim.ClassRestore, bytes)
}

// ChunkTimeAt is ChunkTime anchored at the caller's simulated clock, so
// the grant contributes to the arbiter's conservation span. The restorer
// charges chunks through this.
func (l *RecoveryLink) ChunkTimeAt(bytes int, now simclock.Time) simclock.Duration {
	return l.Arbiter().GrantClassAt(netsim.ClassRestore, bytes, now)
}

// Active returns the number of sessions currently recovering.
func (l *RecoveryLink) Active() int {
	return l.Arbiter().ActiveFlows(netsim.ClassRestore)
}

// PeakSessions returns the most sessions ever recovering at once.
func (l *RecoveryLink) PeakSessions() int {
	return l.Arbiter().ClassStats(netsim.ClassRestore).QueuePeak
}
