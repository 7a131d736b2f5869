package experiment

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/attack"
	"repro/internal/nand"
	"repro/internal/netsim"
	"repro/internal/remote"
	"repro/internal/simclock"
)

// The fleet recovery experiment is the paper's trusted post-attack
// recovery claim at fleet scale: N devices run their workloads, half are
// hit by ransomware variants, streaming detection catches the attacks —
// and then every device power-cycles and restores its pre-attack image
// CONCURRENTLY from the one storage server. Restores ride the chunked,
// codec-framed image stream through a shared-bandwidth recovery link
// model (the server NIC split per-session fair share), one device's
// recovery session is deliberately cut mid-stream to prove resume-not-
// restart, and after the restore an offload outage exercises the redial
// path while the retention backlog drains. Every restored image is
// verified page-identical against the pre-attack snapshot.

// RecoveryDeviceRow reports one device of the recovery fleet.
type RecoveryDeviceRow struct {
	Device      uint64
	Role        string // workload profile, "+<attack>" when attacked
	Attacked    bool
	Detected    bool
	FalseAlerts int

	SnapshotPages int  // pages verified against the pre-attack snapshot
	Verified      bool // every snapshot page read back identical

	RTOms             float64 // simulated restore span (power-on to restored)
	RestoredPages     int
	ZeroedPages       int
	KeptPages         int
	Chunks            int
	Resumes           int // mid-restore disconnects survived (resumed, not restarted)
	RestoreWireMiB    float64
	RestoreLogicalMiB float64
	LiteralPages      int    // streamed pages that carried a full payload
	RefPages          int    // streamed pages that arrived as hash references
	AnchorSeq         uint64 // checkpoint sequence the delta diffed against (0: full)

	BacklogPages int // retention backlog right after restore
	// ReopenHeld / ReopenRepinned: stale flash pages Reopen found already
	// held by the server (released) vs re-pinned as the unshipped tail.
	// ShippedPages is what the device offloaded between Reopen and the end
	// of the restore — re-pinned tail plus restore churn, a count.
	ReopenHeld     uint64
	ReopenRepinned uint64
	ShippedPages   uint64
	Redials        uint64  // offload sessions re-established after the outage
	ResumeGap      uint64  // entries adopted from FetchHead instead of re-shipped
	DrainMs        float64 // simulated time to drain the backlog across the outage
}

// RecoverySummary aggregates the recovery fleet run.
type RecoverySummary struct {
	Devices        int
	Attacked       int
	Caught         int
	FalseAlerts    int
	AllVerified    bool
	ChainsVerified bool // every device's remote evidence chain verified end to end

	MeanRTOms    float64
	MaxRTOms     float64
	RestoreGBps  float64 // aggregate logical restore bytes / max RTO (concurrent restores)
	WireMiB      float64
	LogicalMiB   float64
	WireRatio    float64 // logical / wire: the codec working for recovery traffic
	Resumes      int
	PeakSessions int // most devices restoring at once (recovery link)
	TotalRedials uint64
	MaxDrainMs   float64

	// Shared-NIC ledger: restores and the post-restore offload drain both
	// rode one arbiter.
	NICStats [netsim.NumClasses]netsim.QoSStats

	// Dedup ledger: pages by wire form across the fleet, the derived hit
	// rate, and the store-side content dedup.
	LiteralPages     int
	RefPages         int
	DedupHitRate     float64 // refs / (refs + literals) on the restore wire
	StoreUniquePages int     // distinct page contents the store holds
	StoreTotalRefs   int64   // logical page versions referencing them
	StoreHitRate     float64 // fraction of versions served by an existing copy
}

// RecoveryFleetResult is the full recovery fleet report.
type RecoveryFleetResult struct {
	Rows    []RecoveryDeviceRow
	Summary RecoverySummary
}

// recoveredDevice carries one device's state across the power cycle.
type recoveredDevice struct {
	nand  *nand.Device
	cut   uint64            // rollback point: log seq at the pre-attack snapshot
	want  map[uint64][]byte // expected page contents at the cut
	endAt simclock.Time     // device sim clock at power-off
	row   RecoveryDeviceRow
}

// FleetRecovery runs the fleet power-cycle recovery scenario. Restores
// ride the content-addressed path: hash-reference chunks resolved from a
// device-side cache plus a checkpoint-anchored delta that streams only
// pages touched since the pre-attack checkpoint. The restore streams and
// the post-restore offload drain are charged to the server's one shared
// NIC arbiter at the netsim defaults. Every attack must be caught with no
// false alert, every restored image page-identical and every chain intact.
func FleetRecovery(s Scale, devices int) (*RecoveryFleetResult, error) {
	r := newFleetRig(fleetScale(s), rigSpec{tune: remote.Profile("mem"), detect: true})
	defer r.close()

	// The mid-restore disconnect victim: an attacked device when there is
	// one (odd indexes attack), else the only device.
	chokeIdx := 0
	if devices > 1 {
		chokeIdx = 1
	}

	// Phase A — workloads + attacks + streaming detection, concurrently.
	devs := make([]*recoveredDevice, devices)
	if err := spawn(devices, func(i int) (err error) {
		devs[i], err = r.recoverySetup(i, fleetAttack(i))
		return err
	}); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}

	// Phase B/C — power-cycle all N, then reopen + concurrent streamed
	// restore + verify + outage drain. Every device starts recovering at
	// once: this is the fleet-wide incident. The outstanding-buffer gauge
	// brackets the whole incident: it may move only by the pooled pages the
	// surviving NAND arrays hold.
	pool := r.markPool()
	// Restore-start barrier: no device streams until every device's first
	// restore session is dialed, so the NIC's restore-session peak reads
	// the fleet size structurally — not by scheduling luck on a loaded
	// host. The deferred once keeps a pre-dial failure from wedging the
	// survivors at the barrier.
	var restoreGate sync.WaitGroup
	restoreGate.Add(devices)
	gateOnce := make([]sync.Once, devices)
	if err := spawn(devices, func(i int) error {
		defer gateOnce[i].Do(restoreGate.Done)
		return r.recoveryRestore(devs[i], i == chokeIdx, func() {
			gateOnce[i].Do(restoreGate.Done)
			restoreGate.Wait()
		})
	}); err != nil {
		return nil, fmt.Errorf("recovery: %w", err)
	}
	if drift := r.poolDrift(pool); drift != 0 {
		return nil, fmt.Errorf(
			"bufpool outstanding-buffer gauge drifted %+d beyond NAND residency across the fleet recovery", drift)
	}

	// Every device's remote evidence chain must still verify end to end
	// after the restore churn — dedup interning must never disturb the
	// chain the rollback is trusted on.
	chainsOK := true
	for i := 0; i < devices; i++ {
		if r.audit(uint64(i+1), nil).chainErr != nil {
			chainsOK = false
		}
	}

	nic := r.cluster.Server(0).NIC
	rows := make([]RecoveryDeviceRow, devices)
	sum := RecoverySummary{
		Devices: devices, AllVerified: true, PeakSessions: nic.ClassStats(netsim.ClassRestore).QueuePeak,
		ChainsVerified: chainsOK, NICStats: nic.Stats(),
	}
	var totalRTO, maxRTO simclock.Duration
	var logicalBytes uint64
	for i, d := range devs {
		rows[i] = d.row
		row := &rows[i]
		if row.Attacked {
			sum.Attacked++
			if row.Detected {
				sum.Caught++
			}
		}
		sum.FalseAlerts += row.FalseAlerts
		if !row.Verified {
			sum.AllVerified = false
		}
		rto := simclock.Duration(row.RTOms * float64(simclock.Millisecond))
		totalRTO += rto
		if rto > maxRTO {
			maxRTO = rto
		}
		sum.WireMiB += row.RestoreWireMiB
		sum.LogicalMiB += row.RestoreLogicalMiB
		logicalBytes += uint64(row.RestoreLogicalMiB * float64(1<<20))
		sum.Resumes += row.Resumes
		sum.TotalRedials += row.Redials
		if row.DrainMs > sum.MaxDrainMs {
			sum.MaxDrainMs = row.DrainMs
		}
		sum.LiteralPages += row.LiteralPages
		sum.RefPages += row.RefPages
	}
	if total := sum.LiteralPages + sum.RefPages; total > 0 {
		sum.DedupHitRate = float64(sum.RefPages) / float64(total)
	}
	ds := r.store.Dedup()
	sum.StoreUniquePages = ds.UniquePages
	sum.StoreTotalRefs = ds.TotalRefs
	sum.StoreHitRate = ds.HitRate()
	sum.MeanRTOms = float64(totalRTO) / float64(devices) / 1e6
	sum.MaxRTOms = float64(maxRTO) / 1e6
	if maxRTO > 0 {
		sum.RestoreGBps = float64(logicalBytes) / maxRTO.Seconds() / 1e9
	}
	if sum.WireMiB > 0 {
		sum.WireRatio = sum.LogicalMiB / sum.WireMiB
	}

	var v verdicts
	v.check(sum.Caught == sum.Attacked, "caught %d of %d attacked devices", sum.Caught, sum.Attacked)
	v.check(sum.FalseAlerts == 0, "%d false alerts", sum.FalseAlerts)
	v.check(sum.AllVerified, "a restored image was not page-identical to its pre-attack snapshot")
	v.check(sum.ChainsVerified, "an evidence chain failed verification after the restores")
	return &RecoveryFleetResult{Rows: rows, Summary: sum}, v.err("recovery")
}

// recoverySetup drives fleet device idx up to the power cycle: benign
// replay, pre-attack snapshot + flush, then the assigned attack (or more
// benign churn, so benign devices also have real rollback work), a final
// flush, and the detection verdict.
func (r *fleetRig) recoverySetup(idx int, atk attack.Attack) (*recoveredDevice, error) {
	id := uint64(idx + 1)
	d, err := r.device(id, false)
	if err != nil {
		return nil, err
	}
	defer d.close()
	dev, fs := d.dev, d.fs
	g, profName := r.generator(d, idx, int64(4000+idx))
	rd := &recoveredDevice{row: RecoveryDeviceRow{Device: id, Role: profName}}
	replayOps := max(r.s.TraceOps/16, 250)
	end, _, err := replay(dev, g, replayOps, replayOpts{})
	if err != nil {
		return nil, err
	}
	fs.Clock().AdvanceTo(end)

	// Pre-attack snapshot: seed the corpus, flush everything remote, and
	// remember the rollback point plus the exact page contents.
	rng := rand.New(rand.NewSource(int64(177 + idx)))
	snap, extents, err := seedAndSnapshot(fs, rng, r.s)
	if err != nil {
		return nil, err
	}
	if _, err := dev.OffloadNow(fs.Clock().Now()); err != nil {
		return nil, err
	}
	// Checkpoint at the snapshot: the delta restore anchors here and
	// streams only pages the attack (or churn) touched afterwards.
	if _, err := dev.CheckpointNow(fs.Clock().Now()); err != nil {
		return nil, err
	}
	rd.cut = dev.Log().NextSeq()
	rd.want = expectedPages(snap, extents, r.s.PageSize)
	rd.row.SnapshotPages = len(rd.want)

	if atk != nil {
		rd.row.Attacked = true
		rd.row.Role = profName + "+" + atk.Name()
		if _, err := atk.Run(fs, rng); err != nil {
			return nil, err
		}
	} else {
		// Benign post-snapshot churn, each record issued as the last
		// completes: legitimate overwrites the drill's fleet-wide rollback
		// will discard, so benign devices restore real work too (and must
		// stay false-alert free doing it).
		at, _, err := replay(dev, g, replayOps/2, replayOpts{chained: true, start: fs.Clock().Now()})
		if err != nil {
			return nil, err
		}
		fs.Clock().AdvanceTo(at)
	}

	// Final flush so streaming detection has the full history before the
	// power cycle.
	if _, err := dev.OffloadNow(fs.Clock().Now()); err != nil {
		return nil, err
	}
	rd.row.Detected, _, rd.row.FalseAlerts = r.verdict(id, rd.cut)
	rd.nand = dev.FTL().Device() // the flash array survives the power cycle
	rd.endAt = fs.Clock().Now()
	return rd, nil
}

// recoveryRestore is one device's recovery: reopen over the surviving
// flash, stream-restore the pre-attack image (resuming through a cut link
// when choked), verify page-identical, then drain the restore backlog
// across a simulated offload outage via the redial path.
func (r *fleetRig) recoveryRestore(d *recoveredDevice, choke bool, gate func()) error {
	// The reopened device's offload drain rides the same shared NIC the
	// restore streams do: that cross-class traffic is what the arbiter
	// exists to schedule.
	rd, err := r.restore(d.row.Device, d.nand, d.cut, d.want, d.endAt, restoreOpts{
		chunkPages: 16, dedup: true, nic: true, choke: choke, gate: gate,
	})
	if err != nil {
		return err
	}
	defer rd.close()
	dev, at, rep := rd.dev, rd.at, rd.rep

	d.row.RTOms = float64(rep.RTO) / 1e6
	d.row.RestoredPages = rep.PagesRestored
	d.row.ZeroedPages = rep.PagesZeroed
	d.row.KeptPages = rep.PagesKept
	d.row.Chunks = rep.Chunks
	d.row.Resumes = rep.Resumes
	d.row.RestoreWireMiB = float64(rep.BytesWire) / float64(1<<20)
	d.row.RestoreLogicalMiB = float64(rep.BytesLogical) / float64(1<<20)
	d.row.LiteralPages = rep.PagesLiteral
	d.row.RefPages = rep.PagesRef
	d.row.AnchorSeq = rep.Anchor
	if rep.Anchor == 0 {
		return fmt.Errorf("delta restore found no checkpoint anchor")
	}
	d.row.Verified = rd.verified
	st := dev.Stats()
	d.row.BacklogPages = st.RetainedNow
	d.row.ReopenHeld = st.ReopenHeld
	d.row.ReopenRepinned = st.ReopenRepinned
	d.row.ShippedPages = st.OffloadPages

	// Simulated outage: the offload session dies with restore backlog
	// still retained; the engine must redial and drain it.
	rd.client.Close()
	drainStart := at
	at, err = dev.OffloadNow(at)
	if err != nil {
		return fmt.Errorf("backlog drain: %w", err)
	}
	d.row.DrainMs = float64(at.Sub(drainStart)) / 1e6
	st = dev.Stats()
	d.row.Redials = st.Redials
	d.row.ResumeGap = st.ResumeGap
	if st.LastOffloadError != "" {
		return fmt.Errorf("sticky offload error after drain: %s", st.LastOffloadError)
	}
	return nil
}
