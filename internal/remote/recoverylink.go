package remote

import (
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
// QoS arbiter (internal/netsim), which does the pricing. On an arbiter
// nothing else uses, restore is the only active class, so it always holds
// the full line and the fair share is the session count; on a server's
// shared NIC, restore traffic contends with offload and lifecycle classes
// under the QoS policy.
type RecoveryLink struct {
	arb *netsim.Arbiter
}

// NewRecoveryLinkOn returns a link that charges restore traffic to the
// given arbiter — netsim.New(netsim.Config{}) for a standalone server NIC
// at the netsim defaults, or a server's shared NIC.
func NewRecoveryLinkOn(arb *netsim.Arbiter) *RecoveryLink {
	return &RecoveryLink{arb: arb}
}

// Open registers one recovering session and returns its release. Sessions
// must bracket their whole restore so the fair share prices concurrency
// honestly. Release is idempotent.
func (l *RecoveryLink) Open() (release func()) {
	f := l.arb.Open(netsim.ClassRestore, 1)
	return f.Close
}

// ChunkTime prices one chunk transfer at the current fair share of the
// restore class's NIC allocation: RTT + bytes / (allocation / sessions).
// On an arbiter only restores use, the allocation is the full line:
// RTT + bytes / (BW / sessions).
func (l *RecoveryLink) ChunkTime(bytes int) simclock.Duration {
	return l.arb.GrantClass(netsim.ClassRestore, bytes)
}

// ChunkTimeAt is ChunkTime anchored at the caller's simulated clock, so
// the grant contributes to the arbiter's conservation span. The restorer
// charges chunks through this.
func (l *RecoveryLink) ChunkTimeAt(bytes int, now simclock.Time) simclock.Duration {
	return l.arb.GrantClassAt(netsim.ClassRestore, bytes, now)
}

// Active returns the number of sessions currently recovering.
func (l *RecoveryLink) Active() int {
	return l.arb.ActiveFlows(netsim.ClassRestore)
}

// PeakSessions returns the most sessions ever recovering at once.
func (l *RecoveryLink) PeakSessions() int {
	return l.arb.ClassStats(netsim.ClassRestore).QueuePeak
}
