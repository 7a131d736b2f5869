package experiment

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/attack"
	"repro/internal/batch"
	"repro/internal/bufpool"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/host"
	"repro/internal/metrics"
	"repro/internal/nand"
	"repro/internal/netsim"
	"repro/internal/oplog"
	"repro/internal/remote"
	"repro/internal/simclock"
	"repro/internal/workload"
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
	cfg   core.Config
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
// NIC arbiter at the netsim defaults.
func FleetRecovery(s Scale, devices int) (*RecoveryFleetResult, error) {
	if devices <= 0 {
		devices = 8
	}
	s = fleetScale(s)
	store := remote.NewStore(remote.NewMemStore())
	srv := remote.NewServer(store, PSK)
	engine := detect.NewEngine(detectConfig(s))
	engine.Attach(store)
	nic := netsim.New(netsim.Config{})
	srv.NIC = nic
	link := remote.NewRecoveryLinkOn(nic) // restore class on the shared NIC

	// The mid-restore disconnect victim: an attacked device when there is
	// one (odd indexes attack), else the only device.
	chokeIdx := 0
	if devices > 1 {
		chokeIdx = 1
	}

	// Phase A — workloads + attacks + streaming detection, concurrently.
	devs := make([]*recoveredDevice, devices)
	errs := make([]error, devices)
	var wg sync.WaitGroup
	attackIdx := 0
	for i := 0; i < devices; i++ {
		var atk attack.Attack
		if i%2 == 1 {
			atk = makeAttack(fleetAttacks[attackIdx%len(fleetAttacks)])
			attackIdx++
		}
		wg.Add(1)
		go func(i int, atk attack.Attack) {
			defer wg.Done()
			devs[i], errs[i] = runRecoverySetup(s, srv, engine, uint64(i+1), i, atk)
		}(i, atk)
	}
	wg.Wait()
	for i := range errs {
		if errs[i] != nil {
			return nil, fmt.Errorf("device %d setup: %w", i+1, errs[i])
		}
	}

	// Phase B/C — power-cycle all N, then reopen + concurrent streamed
	// restore + verify + outage drain. The barrier above means every
	// device starts recovering at once: this is the fleet-wide incident.
	// The outstanding-buffer gauge brackets the whole incident: it may
	// move only by the pooled pages the surviving NAND arrays hold.
	poolBase := bufpool.Outstanding()
	var residencyBase int64
	for _, d := range devs {
		residencyBase += d.nand.HeldPageBufs()
	}
	// Restore-start barrier: no device streams until every device's first
	// restore session is dialed, so the link's peak-sessions gauge reads
	// the fleet size structurally — not by scheduling luck on a loaded
	// host. The deferred once keeps a pre-dial failure from wedging the
	// survivors at the barrier.
	var restoreGate sync.WaitGroup
	restoreGate.Add(devices)
	gateOnce := make([]sync.Once, devices)
	for i := 0; i < devices; i++ {
		// The reopened device's offload drain rides the same shared NIC the
		// restore streams do — that cross-class traffic is what the
		// arbiter exists to schedule.
		devs[i].cfg.NIC = nic
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer gateOnce[i].Do(restoreGate.Done)
			errs[i] = runRecoveryRestore(srv, link, devs[i], uint64(i+1), i == chokeIdx, func() {
				gateOnce[i].Do(restoreGate.Done)
				restoreGate.Wait()
			})
		}(i)
	}
	wg.Wait()
	for i := range errs {
		if errs[i] != nil {
			return nil, fmt.Errorf("device %d recovery: %w", i+1, errs[i])
		}
	}
	var residencyNow int64
	for _, d := range devs {
		residencyNow += d.nand.HeldPageBufs()
	}
	if drift := bufpool.Outstanding().Sub(poolBase).Total() - (residencyNow - residencyBase); drift != 0 {
		return nil, fmt.Errorf(
			"bufpool outstanding-buffer gauge drifted %+d beyond NAND residency across the fleet recovery", drift)
	}

	// Every device's remote evidence chain must still verify end to end
	// after the restore churn — dedup interning must never disturb the
	// chain the rollback is trusted on.
	chainsOK := true
	for i := 0; i < devices; i++ {
		id := uint64(i + 1)
		entries := store.Entries(id, 0, store.Head(id).NextSeq)
		if err := oplog.VerifyChain(entries, [oplog.HashSize]byte{}); err != nil {
			chainsOK = false
		}
	}

	rows := make([]RecoveryDeviceRow, devices)
	sum := RecoverySummary{
		Devices: devices, AllVerified: true, PeakSessions: link.PeakSessions(),
		ChainsVerified: chainsOK, NICStats: nic.Stats(),
	}
	var totalRTO, maxRTO simclock.Duration
	var logicalBytes uint64
	for i, d := range devs {
		rows[i] = d.row
		r := &rows[i]
		if r.Attacked {
			sum.Attacked++
			if r.Detected {
				sum.Caught++
			}
		}
		sum.FalseAlerts += r.FalseAlerts
		if !r.Verified {
			sum.AllVerified = false
		}
		rto := simclock.Duration(r.RTOms * float64(simclock.Millisecond))
		totalRTO += rto
		if rto > maxRTO {
			maxRTO = rto
		}
		sum.WireMiB += r.RestoreWireMiB
		sum.LogicalMiB += r.RestoreLogicalMiB
		logicalBytes += uint64(r.RestoreLogicalMiB * float64(1<<20))
		sum.Resumes += r.Resumes
		sum.TotalRedials += r.Redials
		if r.DrainMs > sum.MaxDrainMs {
			sum.MaxDrainMs = r.DrainMs
		}
		sum.LiteralPages += r.LiteralPages
		sum.RefPages += r.RefPages
	}
	if total := sum.LiteralPages + sum.RefPages; total > 0 {
		sum.DedupHitRate = float64(sum.RefPages) / float64(total)
	}
	ds := store.Dedup()
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
	return &RecoveryFleetResult{Rows: rows, Summary: sum}, nil
}

// runRecoverySetup drives one device up to the power cycle: benign
// replay, pre-attack snapshot + flush, then the assigned attack (or more
// benign churn, so benign devices also have real rollback work), a final
// flush, and the detection verdict.
func runRecoverySetup(s Scale, srv *remote.Server, engine *detect.Engine, deviceID uint64, idx int, atk attack.Attack) (*recoveredDevice, error) {
	client, err := remote.Loopback(srv, PSK, deviceID)
	if err != nil {
		return nil, err
	}
	defer client.Close()

	cfg := core.DefaultConfig()
	cfg.FTL = s.ftlConfig()
	cfg.DeviceID = deviceID
	cfg.OffloadHighWater = 0.50
	cfg.OffloadLowWater = 0.25
	dev := core.New(cfg, client)
	defer dev.Close()
	fs := host.NewFlatFS(dev, simclock.NewClock())
	d := &recoveredDevice{cfg: cfg}

	profName := fleetProfiles[idx%len(fleetProfiles)]
	d.row = RecoveryDeviceRow{Device: deviceID, Role: profName}
	prof, ok := workload.ProfileByName(profName)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", profName)
	}
	replayOps := s.TraceOps / 16
	if replayOps < 250 {
		replayOps = 250
	}
	g := workload.NewGenerator(prof, s.PageSize, dev.LogicalPages(), int64(4000+idx))
	var ops []batch.Op
	var end simclock.Time
	for j := 0; j < replayOps; j++ {
		rec := g.Next()
		ops = recordBatch(g, rec, dev.LogicalPages(), ops[:0])
		if len(ops) == 0 {
			continue
		}
		done, err := submitRecord(dev, ops, rec.At)
		if err != nil {
			return nil, err
		}
		end = simclock.Max(end, done)
	}
	fs.Clock().AdvanceTo(end)

	// Pre-attack snapshot: seed the corpus, flush everything remote, and
	// remember the rollback point plus the exact page contents.
	rng := rand.New(rand.NewSource(int64(177 + idx)))
	snap, extents, err := seedAndSnapshot(fs, rng, s)
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
	d.cut = dev.Log().NextSeq()
	d.want = expectedPages(snap, extents, s.PageSize)
	d.row.SnapshotPages = len(d.want)

	if atk != nil {
		d.row.Attacked = true
		d.row.Role = profName + "+" + atk.Name()
		if _, err := atk.Run(fs, rng); err != nil {
			return nil, err
		}
	} else {
		// Benign post-snapshot churn: legitimate overwrites the drill's
		// fleet-wide rollback will discard, so benign devices restore real
		// work too (and must stay false-alert free doing it).
		at := fs.Clock().Now()
		for j := 0; j < replayOps/2; j++ {
			rec := g.Next()
			ops = recordBatch(g, rec, dev.LogicalPages(), ops[:0])
			if len(ops) == 0 {
				continue
			}
			if at, err = submitRecord(dev, ops, at); err != nil {
				return nil, err
			}
		}
		fs.Clock().AdvanceTo(at)
	}

	// Final flush so streaming detection has the full history before the
	// power cycle.
	if _, err := dev.OffloadNow(fs.Clock().Now()); err != nil {
		return nil, err
	}
	for _, a := range engine.AlertsFor(deviceID) {
		if a.AtSeq >= d.cut {
			d.row.Detected = true
		} else {
			d.row.FalseAlerts++
		}
	}
	d.nand = dev.FTL().Device() // the flash array survives the power cycle
	d.endAt = fs.Clock().Now()
	return d, nil
}

// runRecoveryRestore is one device's recovery: reopen over the surviving
// flash, stream-restore the pre-attack image (resuming through a cut link
// when choked), verify page-identical, then drain the restore backlog
// across a simulated offload outage via the redial path.
func runRecoveryRestore(srv *remote.Server, link *remote.RecoveryLink, d *recoveredDevice, deviceID uint64, choke bool, gate func()) error {
	rd, err := restoreRun{
		Server: srv, Link: link, ChunkPages: 16,
		Dedup: true, Delta: true, Choke: choke, Gate: gate,
	}.run(d.cfg, d.nand, deviceID, d.cut, d.want, d.endAt)
	if err != nil {
		return err
	}
	dev, at, rep := rd.dev, rd.at, rd.rep
	defer dev.Close()

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

// RenderFleetRecovery renders the per-device table and the summary.
func RenderFleetRecovery(res *RecoveryFleetResult) string {
	tb := metrics.NewTable("device", "role", "detected", "RTO ms", "restored/zero/kept",
		"chunks", "resumes", "wire MiB", "logical MiB", "verified", "backlog", "held/repinned", "shipped", "redials", "gap", "drain ms")
	for _, r := range res.Rows {
		det := "-"
		if r.Detected {
			det = "caught"
		} else if r.Attacked {
			det = "MISSED"
		}
		ver := "OK"
		if !r.Verified {
			ver = "MISMATCH"
		}
		tb.AddRow(r.Device, r.Role, det, r.RTOms,
			fmt.Sprintf("%d/%d/%d", r.RestoredPages, r.ZeroedPages, r.KeptPages),
			r.Chunks, r.Resumes, r.RestoreWireMiB, r.RestoreLogicalMiB,
			ver, r.BacklogPages, fmt.Sprintf("%d/%d", r.ReopenHeld, r.ReopenRepinned), r.ShippedPages,
			r.Redials, r.ResumeGap, r.DrainMs)
	}
	s := res.Summary
	verified := "all verified page-identical"
	if !s.AllVerified {
		verified = "VERIFICATION FAILED"
	}
	chains := "chains verified"
	if !s.ChainsVerified {
		chains = "CHAIN VERIFICATION FAILED"
	}
	out := tb.String() + fmt.Sprintf(
		"recovery: %d devices (%d attacked, %d caught, %d false alerts), %s, %s\n"+
			"          RTO mean %.2f ms / max %.2f ms, aggregate restore %.3f GB/s over %d concurrent sessions\n"+
			"          restore wire %.2f MiB vs logical %.2f MiB (%.2fx codec), %d mid-stream resumes\n"+
			"          outage drain: %d redials, max %.2f ms backlog-drain\n",
		s.Devices, s.Attacked, s.Caught, s.FalseAlerts, verified, chains,
		s.MeanRTOms, s.MaxRTOms, s.RestoreGBps, s.PeakSessions,
		s.WireMiB, s.LogicalMiB, s.WireRatio, s.Resumes,
		s.TotalRedials, s.MaxDrainMs)
	out += fmt.Sprintf(
		"          dedup: %d literal + %d ref pages (%.0f%% wire hit rate), store %d unique / %d refs (%.0f%% content dedup)\n",
		s.LiteralPages, s.RefPages, s.DedupHitRate*100,
		s.StoreUniquePages, s.StoreTotalRefs, s.StoreHitRate*100)
	out += "shared NIC (strict priority, offload floor 10%):\n" + nicStatsTable(s.NICStats).String()
	return out
}

// nicStatsTable renders a per-class NIC ledger snapshot.
func nicStatsTable(stats [netsim.NumClasses]netsim.QoSStats) *metrics.Table {
	t := metrics.NewTable("class", "grants", "MB", "flows_peak",
		"wait_p50_ms", "wait_p99_ms", "throttled", "min_alloc_MBps")
	for _, st := range stats {
		t.AddRow(st.Class, st.Grants,
			fmt.Sprintf("%.1f", float64(st.BytesGranted)/1e6), st.QueuePeak,
			fmt.Sprintf("%.3f", st.WaitP50Ms), fmt.Sprintf("%.3f", st.WaitP99Ms),
			st.Throttled, fmt.Sprintf("%.1f", st.MinAllocMBps))
	}
	return t
}
