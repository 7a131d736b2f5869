package remote

import (
	"repro/internal/netsim"
	"repro/internal/simclock"
)

// RecoveryLink models the storage server's NIC during fleet recovery.
// After a fleet-wide incident, N devices pull their images from ONE
// server concurrently, and the server's egress NIC is the bottleneck
// (Project Almanac's observation that restore traffic, not ingest, is the
// bandwidth cliff). The model is processor sharing with per-session fair
// share: a chunk transferred while k sessions are recovering sees BW/k of
// the restore class's allocation.
//
// Devices recovering concurrently register with Open and charge each
// chunk's simulated time through ChunkTimeAt. The instantaneous session
// count prices the share, so a device that finishes early returns its
// share to the stragglers — exactly the fairness a per-connection TCP
// share would give.
//
// RecoveryLink is a thin wrapper over the restore class of a shared-NIC
// arbiter (internal/netsim), which does the pricing. On an arbiter
// nothing else uses, restore is the only active class, so it always holds
// the full line; on a server's shared NIC, restore streams contend with
// the devices' offload flows under the arbiter's strict priority, which
// leaves offload its 10 % floor.
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

// ChunkTimeAt prices one chunk transfer starting at the caller's
// simulated clock at the current fair share of the restore class's NIC
// allocation: RTT + bytes / (allocation / sessions). The grant lands in
// the arbiter's ledger and conservation span.
func (l *RecoveryLink) ChunkTimeAt(bytes int, now simclock.Time) simclock.Duration {
	return l.arb.GrantClassAt(netsim.ClassRestore, bytes, now)
}

// PeakSessions returns the most sessions ever recovering at once.
func (l *RecoveryLink) PeakSessions() int {
	return l.arb.ClassStats(netsim.ClassRestore).QueuePeak
}
