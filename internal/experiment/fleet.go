package experiment

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/attack"
	"repro/internal/metrics"
	"repro/internal/simclock"
	"repro/internal/workload"
)

// The fleet experiment is the end-to-end exercise of the asynchronous
// offload pipeline: N devices — each a full RSSD with its own staging
// engine — stream segments concurrently into a cluster of servers over
// net.Pipe NVMe-oE sessions, the store ingests them on sharded per-device
// indexes, and the detection pipeline scores every device's window as
// segments arrive. Half the devices additionally run a ransomware variant
// (encryptor, timing attack, trimming attack, cycled); streaming detection
// must catch each of them with no false alerts on the benign traffic. The
// retention experiment runs the same pass on one server, per storage tier.

// fleetProfiles are the benign replay workloads cycled across the fleet.
// They are low-entropy members of the corpus: live-traffic detection must
// stay false-positive free, so their page content sits clearly below the
// ciphertext entropy threshold.
var fleetProfiles = []string{"hm", "src", "usr"}

// fleetAttacks cycles over the attacked devices.
var fleetAttacks = []AttackName{AtkEncryptor, AtkTiming, AtkTrimming}

// fleetScale shrinks the per-device geometry: a fleet multiplies the
// footprint by N, and a tighter device keeps the offload watermarks in
// play during the replay itself rather than only at the final flush.
func fleetScale(s Scale) Scale {
	s.BlocksPerPlane /= 4
	if s.BlocksPerPlane < 16 {
		s.BlocksPerPlane = 16
	}
	return s
}

// FleetDeviceRow reports one device of the fleet.
type FleetDeviceRow struct {
	Device         uint64
	Role           string // workload profile, "+<attack>" when attacked
	Attacked       bool
	Records        int     // replay records (the measured phase)
	PageOps        int     // host page operations across all phases
	SimMs          float64 // simulated span of the device's run (all phases)
	MeanLatUs      float64 // host batch latency during replay
	P99LatUs       float64
	ReplaySegments uint64  // segments shipped while host I/O was running
	Segments       uint64  // total segments shipped (incl. final flush)
	AckLatUs       float64 // mean seal-to-ack latency (incl. tier service time)
	QueuePeak      int     // deepest staging-pipeline occupancy
	Stalls         uint64  // host stalls from staging backpressure
	WireBytes      uint64  // compressed bytes that crossed the offload link
	EncodeMs       float64 // simulated codec-stage time (overlapped with host I/O)
	EncodeQPeak    int     // deepest encode-stage occupancy
	Detected       bool
	OpsToAlert     uint64
	FalseAlerts    int
}

// FleetSummary aggregates the fleet run.
type FleetSummary struct {
	Devices        int
	Attacked       int
	Caught         int
	FalseAlerts    int
	PageOps        int
	Segments       uint64
	WallMs         float64
	PageOpsPerSec  float64 // fleet host throughput (wall clock)
	SegmentsPerSec float64 // fleet ingest rate (wall clock)
	MeanLatUs      float64 // mean host batch latency
}

// FleetResult is the full fleet report: the devices, their summary and the
// control plane (fleetcluster.go). Per-device Rows are dropped past 64
// devices to keep the committed report compact.
type FleetResult struct {
	Rows    []FleetDeviceRow `json:",omitempty"`
	Summary FleetSummary
	Cluster FleetClusterResult
}

// fleetPass is one fleet execution.
type fleetPass struct {
	rows     []FleetDeviceRow
	devs     []*rigDevice
	fail     FleetFailover
	wall     time.Duration
	totalLat simclock.Duration
	records  int
	pageOps  int
	segments uint64
}

// Fleet runs the fleet over a cluster of servers — consistent-hash
// placement, an injected server kill healed through the redial path — and
// the server-count scaling curve (fleetcluster.go). Every attack must be
// caught with no false alert, and the modeled curve must never step down;
// at 8 servers or more it must reach 3x.
func Fleet(s Scale, devices, servers int) (*FleetResult, error) {
	if servers < 2 {
		return nil, fmt.Errorf("fleet needs at least 2 servers, got %d (one server is the retention experiment's mem row)", servers)
	}
	s = fleetClusterScale(s, devices)
	pass, cres, err := runFleetClusterPass(s, devices, servers)
	if err != nil {
		return nil, fmt.Errorf("fleet cluster: %w", err)
	}
	if cres.Curve, err = fleetScaleCurve(s, devices, servers); err != nil {
		return nil, fmt.Errorf("fleet scale curve: %w", err)
	}
	first, last := cres.Curve[0], cres.Curve[len(cres.Curve)-1]
	if first.SegsPerSec > 0 {
		cres.ScaleUp = last.SegsPerSec / first.SegsPerSec
	}
	cres.ModelScaleUp = last.ModelScaleUp
	res := &FleetResult{Summary: pass.summary(devices), Cluster: cres}
	if devices <= 64 {
		res.Rows = pass.rows // past 64 the committed report stays compact
	}

	var v verdicts
	sum := res.Summary
	v.check(sum.Caught == sum.Attacked, "caught %d of %d attacked devices", sum.Caught, sum.Attacked)
	v.check(sum.FalseAlerts == 0, "%d false alerts", sum.FalseAlerts)
	for i := 1; i < len(cres.Curve); i++ {
		p, q := cres.Curve[i-1], cres.Curve[i]
		v.check(q.ModelScaleUp >= p.ModelScaleUp, "modeled scale-up steps down from %.2fx at %d servers to %.2fx at %d", p.ModelScaleUp, p.Servers, q.ModelScaleUp, q.Servers)
	}
	if servers >= 8 {
		v.check(cres.ModelScaleUp >= 3, "modeled scale-up %.2fx at %d servers, want >= 3x", cres.ModelScaleUp, servers)
	}
	return res, v.err("fleet")
}

// summary aggregates the pass's device rows into the fleet summary.
func (pass *fleetPass) summary(devices int) FleetSummary {
	sum := FleetSummary{
		Devices:  devices,
		PageOps:  pass.pageOps,
		Segments: pass.segments,
		WallMs:   float64(pass.wall.Microseconds()) / 1000,
	}
	for _, row := range pass.rows {
		if row.Attacked {
			sum.Attacked++
			if row.Detected {
				sum.Caught++
			}
		}
		sum.FalseAlerts += row.FalseAlerts
	}
	if pass.records > 0 {
		sum.MeanLatUs = float64(pass.totalLat) / float64(pass.records) / 1000
	}
	if secs := pass.wall.Seconds(); secs > 0 {
		sum.PageOpsPerSec = float64(pass.pageOps) / secs
		sum.SegmentsPerSec = float64(pass.segments) / secs
	}
	return sum
}

// runFleet runs every device of the fleet concurrently — replayOps records
// of benign replay, then, on every odd index, its ransomware variant — and
// then audits each device against the store: zero entries or segments
// lost, every chain verified from genesis. kill, when set, runs once every
// device is a third of the way through its replay (or has failed), and
// holds each there until it has run, so the devices of the server it kills
// must heal through the redial path to finish; it returns that server (-1
// for none) and how many devices it remapped.
func (r *fleetRig) runFleet(devices, replayOps int, kill func() (server, remapped int)) (*fleetPass, error) {
	pass := &fleetPass{
		rows: make([]FleetDeviceRow, devices),
		devs: make([]*rigDevice, devices),
		fail: FleetFailover{KilledServer: -1},
	}
	var third sync.WaitGroup
	third.Add(devices)
	marks := make([]sync.Once, devices)
	killed := make(chan struct{})
	if kill != nil {
		go func() {
			defer close(killed)
			third.Wait()
			pass.fail.KilledServer, pass.fail.DevicesRemapped = kill()
		}()
	}
	start := time.Now()
	err := spawn(devices, func(i int) (err error) {
		var hold func()
		if kill != nil {
			// A device that fails before its mark must still pass it, or
			// the kill — and the fleet held behind it — waits forever.
			defer marks[i].Do(third.Done)
			hold = func() {
				marks[i].Do(third.Done)
				<-killed
			}
		}
		pass.rows[i], pass.devs[i], err = r.fleetDevice(i, fleetAttack(i), replayOps, hold)
		return err
	})
	pass.wall = time.Since(start)
	if kill != nil {
		<-killed
	}
	if err != nil {
		return nil, err
	}

	for i, d := range pass.devs {
		row := pass.rows[i]
		pass.records += row.Records
		pass.pageOps += row.PageOps
		pass.segments += row.Segments
		pass.totalLat += simclock.Duration(row.MeanLatUs * 1000 * float64(row.Records))
		st := d.dev.Stats()
		f := &pass.fail
		f.Redials += st.Redials
		f.RedialAttempts += st.RedialAttempts
		f.RedialWaitMs += float64(st.RedialWaitTime) / float64(simclock.Millisecond)
		f.ResumeGap += st.ResumeGap
		a := r.audit(d.id, d.dev)
		if a.chainErr != nil {
			return nil, fmt.Errorf("device %d chain: %w", d.id, a.chainErr)
		}
		f.EntriesLost += a.entriesLost
		f.SegmentsLost += a.segmentsLost
		f.ChainsVerified++
	}
	pass.fail.Handoffs = int(r.handoffs.Load())
	if f := pass.fail; f.EntriesLost > 0 || f.SegmentsLost > 0 {
		// The zero-loss contract is the point of the failover design; a
		// violation fails the run (and CI) rather than hiding in a report.
		return nil, fmt.Errorf("durability violated: %d segments / %d entries lost", f.SegmentsLost, f.EntriesLost)
	}
	return pass, nil
}

// fleetDevice drives fleet device idx: benign replay (measured), then its
// attack, if any, streamed to detection, then a final flush. hold, when
// set, runs a third of the way through the replay.
func (r *fleetRig) fleetDevice(idx int, atk attack.Attack, replayOps int, hold func()) (FleetDeviceRow, *rigDevice, error) {
	id := uint64(idx + 1)
	row := FleetDeviceRow{Device: id}
	d, err := r.device(id, false)
	if err != nil {
		return row, nil, err
	}
	dev, fs := d.dev, d.fs

	// Phase 1 — benign replay through the batched datapath, measured.
	g, profName := r.generator(d, idx, int64(1000+idx))
	row.Role = profName
	h := metrics.NewHistogram(0)
	end, records, err := replay(dev, g, replayOps, replayOpts{
		hold: hold,
		each: func(_ workload.Record, issue, done simclock.Time) { h.Observe(done.Sub(issue)) },
	})
	if err != nil {
		return row, d, err
	}
	row.Records = records
	row.MeanLatUs = float64(h.Mean()) / 1000
	row.P99LatUs = float64(h.Percentile(99)) / 1000
	row.ReplaySegments = dev.Stats().OffloadSegments

	// Phase 2 — the assigned ransomware variant, on a filesystem whose
	// clock continues from the replay.
	attackStart := ^uint64(0)
	if atk != nil {
		row.Attacked = true
		row.Role = profName + "+" + atk.Name()
		fs.Clock().AdvanceTo(end)
		rng := rand.New(rand.NewSource(int64(77 + idx)))
		if _, _, err := seedAndSnapshot(fs, rng, r.s); err != nil {
			return row, d, err
		}
		// Flush the pre-attack history: anything detection flags in it is
		// a false alert, not attack coverage.
		if _, err := dev.OffloadNow(fs.Clock().Now()); err != nil {
			return row, d, err
		}
		attackStart = dev.Log().NextSeq()
		if _, err := atk.Run(fs, rng); err != nil {
			return row, d, err
		}
	}

	// Phase 3 — final flush so detection has seen the full history.
	if _, err := dev.OffloadNow(fs.Clock().Now()); err != nil {
		return row, d, err
	}

	st := dev.Stats()
	// PageOps covers every phase (replay, corpus seeding, attack): the
	// wall-clock throughput below divides by a wall that spans them all.
	row.PageOps = int(st.HostWrites + st.HostReads + st.HostTrims)
	row.SimMs = float64(simclock.Max(fs.Clock().Now(), end)) / float64(simclock.Millisecond)
	row.Segments = st.OffloadSegments
	row.QueuePeak = st.OffloadQueuePeak
	row.Stalls = st.OffloadStalls
	row.WireBytes = st.OffloadBytesWire
	row.EncodeMs = float64(st.EncodeTime) / float64(simclock.Millisecond)
	row.EncodeQPeak = st.EncodeQueuePeak
	if st.OffloadSegments > 0 {
		row.AckLatUs = float64(st.OffloadAckTime) / float64(st.OffloadSegments) / 1000
	}
	row.Detected, row.OpsToAlert, row.FalseAlerts = r.verdict(id, attackStart)
	return row, d, nil
}
