package chaos

import (
	"fmt"
	"sync"

	"repro/internal/bufpool"
	"repro/internal/netsim"
	"repro/internal/oplog"
	"repro/internal/remote"
)

// Invariants is the continuous checker the soak runs DURING fault
// injection, not just at the end: every wave boundary (and every kill)
// re-proves the properties the system claims to keep under fire. A
// violation is recorded, not fatal — the soak finishes the horizon and
// reports every broken invariant with the reproducing seed.
type Invariants struct {
	mu         sync.Mutex
	checks     int
	violations []string
}

// report counts one check and records a violation when ok is false.
func (iv *Invariants) report(ok bool, format string, args ...any) bool {
	iv.mu.Lock()
	defer iv.mu.Unlock()
	iv.checks++
	if !ok {
		iv.violations = append(iv.violations, fmt.Sprintf(format, args...))
	}
	return ok
}

// Snapshot returns the running totals: checks performed and the
// violations found so far.
func (iv *Invariants) Snapshot() (checks int, violations []string) {
	iv.mu.Lock()
	defer iv.mu.Unlock()
	return iv.checks, append([]string(nil), iv.violations...)
}

// Chain proves hash-chain contiguity for one device: the store holds
// every entry in [0, head) and the chain verifies from genesis. This is
// the evidence-chain property every injected fault must not dent — a
// single lost or reordered entry breaks the recompute here.
func (iv *Invariants) Chain(st *remote.Store, dev uint64) bool {
	head := st.Head(dev)
	es := st.Entries(dev, 0, head.NextSeq)
	if !iv.report(uint64(len(es)) == head.NextSeq,
		"device %d: chain gap: store holds %d entries for head %d", dev, len(es), head.NextSeq) {
		return false
	}
	err := oplog.VerifyChain(es, [oplog.HashSize]byte{})
	return iv.report(err == nil, "device %d: chain verify: %v", dev, err)
}

// Durability proves no acked entry was lost: everything the device's
// offload engine has seen acknowledged (ackedUpTo) must be at or below
// the store's head. Checked after every injected kill — the window where
// a buggy failover would drop acked-but-unindexed state.
func (iv *Invariants) Durability(st *remote.Store, dev, ackedUpTo uint64) bool {
	head := st.Head(dev)
	return iv.report(head.NextSeq >= ackedUpTo,
		"device %d: lost acked entries: store head %d < device acked %d", dev, head.NextSeq, ackedUpTo)
}

// DedupBalance proves the refcount ledger balances: the page versions
// indexed across all devices equal the references the chunk store
// counts. Retention drops remove versions and refs together, so the
// balance must hold through every tick and fault.
func (iv *Invariants) DedupBalance(st *remote.Store, devs []uint64) bool {
	var versions int64
	for _, d := range devs {
		versions += int64(st.DeviceStats(d).Versions)
	}
	ds := st.Dedup()
	return iv.report(versions == ds.TotalRefs,
		"dedup ledger unbalanced: %d page versions indexed vs %d chunk refs", versions, ds.TotalRefs)
}

// PoolSteady proves the bufpool outstanding-buffer gauge returned to its
// baseline — every Get across the fault storm found its Release — up to
// the accounted long-lived holders: the gauge may move exactly as much as
// the declared residency delta (the
// per-block slabs NAND arrays hold for programmed flash content, one per
// block programmed since its erase, which legitimately grows as writes open
// blocks and shrinks with erases). Any drift beyond residency is a
// transient-path leak.
func (iv *Invariants) PoolSteady(base bufpool.Gauge, residency int64) bool {
	drift := bufpool.Outstanding().Sub(base).Total() - residency
	return iv.report(drift == 0,
		"bufpool: outstanding-buffer gauge off baseline by %+d beyond the %+d NAND residency delta",
		drift, residency)
}

// Conservation proves a NIC's QoS ledger never clocked above line rate:
// injected faults may starve and stall flows, but they can never mint
// bandwidth.
func (iv *Invariants) Conservation(name string, nic *netsim.Arbiter) bool {
	bytes, _, mbps := nic.Conservation()
	if bytes == 0 {
		return true
	}
	return iv.report(mbps <= nic.LineMBps()*1.01,
		"%s: conservation violated: %.1f MBps aggregate over a %.1f MBps line", name, mbps, nic.LineMBps())
}

// Floors proves the QoS floor guarantee held under contention: any class
// that was ever throttled still saw its worst-case allocation at or
// above its guaranteed floor.
func (iv *Invariants) Floors(name string, nic *netsim.Arbiter) bool {
	ok := true
	fl := nic.Floors()
	for c, st := range nic.Stats() {
		if st.Throttled == 0 || st.MinAllocMBps <= 0 {
			continue
		}
		floor := fl[c] * nic.LineMBps()
		ok = iv.report(st.MinAllocMBps >= floor*0.99,
			"%s: class %s starved under fault load: min alloc %.2f MBps < floor %.2f MBps",
			name, st.Class, st.MinAllocMBps, floor) && ok
	}
	return ok
}
