package experiment

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/attack"
	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/host"
	"repro/internal/metrics"
	"repro/internal/remote"
	"repro/internal/simclock"
	"repro/internal/workload"
)

// The fleet experiment is the end-to-end exercise of the asynchronous
// offload pipeline: N devices — each a full RSSD with its own staging
// engine — stream segments concurrently into one server over net.Pipe
// NVMe-oE sessions, the store ingests them on sharded per-device indexes,
// and the detection pipeline scores every device's window as segments
// arrive. Half the devices additionally run a ransomware variant
// (encryptor, timing attack, trimming attack, cycled); streaming detection
// must catch each of them with no false alerts on the benign traffic.

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

// FleetResult is the full fleet report. Cluster is set only on
// multi-server runs (fleetcluster.go); per-device Rows are dropped past 64
// devices to keep the committed report compact.
type FleetResult struct {
	Rows    []FleetDeviceRow `json:",omitempty"`
	Summary FleetSummary
	Cluster *FleetClusterResult `json:",omitempty"`
}

// fleetPass is one fleet execution.
type fleetPass struct {
	rows     []FleetDeviceRow
	wall     time.Duration
	totalLat simclock.Duration
	records  int
	pageOps  int
	segments uint64
}

// Fleet runs the fleet scenario. With servers <= 1 it is the classic
// single-server run; with more it becomes the control-plane exercise —
// consistent-hash placement, an injected server kill healed through the
// redial path, and the server-count scaling curve (fleetcluster.go).
func Fleet(s Scale, devices, servers int) (*FleetResult, error) {
	if devices <= 0 {
		devices = 8
	}
	if servers > 1 {
		return fleetCluster(s, devices, servers)
	}
	pass, err := runFleetOn(fleetScale(s), devices, remote.Profile("mem"), remote.NewStore(remote.NewMemStore()))
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	return &FleetResult{Rows: pass.rows, Summary: pass.summary(devices)}, nil
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

// runFleetOn executes one pass against the given store (any storage tier):
// every device runs concurrently against one shared server, replaying its
// benign trace and, on every other device, its assigned ransomware
// variant. The retention experiment reuses the same pass per backend tier
// with that tier's watermark/queue profile.
func runFleetOn(s Scale, devices int, tune remote.BackendProfile, store *remote.Store) (*fleetPass, error) {
	if devices <= 0 {
		devices = 8
	}
	srv := remote.NewServer(store, PSK)
	engine := detect.NewEngine(detectConfig(s))
	engine.Attach(store)

	rows := make([]FleetDeviceRow, devices)
	errs := make([]error, devices)
	var wg sync.WaitGroup
	start := time.Now()
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
			rows[i], errs[i] = runFleetDevice(s, srv, engine, uint64(i+1), i, atk, tune)
		}(i, atk)
	}
	wg.Wait()
	pass := &fleetPass{rows: rows, wall: time.Since(start)}
	for i := range errs {
		if errs[i] != nil {
			return nil, fmt.Errorf("device %d: %w", i+1, errs[i])
		}
	}
	for _, row := range rows {
		pass.records += row.Records
		pass.pageOps += row.PageOps
		pass.segments += row.Segments
		pass.totalLat += simclock.Duration(row.MeanLatUs * 1000 * float64(row.Records))
	}
	return pass, nil
}

// runFleetDevice drives one device of the fleet: benign replay (measured),
// then the assigned attack (streamed to detection), then a final flush.
func runFleetDevice(s Scale, srv *remote.Server, engine *detect.Engine, deviceID uint64, idx int, atk attack.Attack, tune remote.BackendProfile) (FleetDeviceRow, error) {
	row := FleetDeviceRow{Device: deviceID}
	client, err := remote.Loopback(srv, PSK, deviceID)
	if err != nil {
		return row, err
	}
	defer client.Close()

	cfg := core.DefaultConfig()
	cfg.FTL = s.ftlConfig()
	cfg.DeviceID = deviceID
	// Fleet devices drain eagerly (the tier profile's watermarks sit well
	// below the solo-device defaults): a device backing a shared server
	// keeps its retention backlog small, which also keeps the offload
	// pipeline — the thing this experiment measures — continuously busy.
	// High-latency tiers get a deeper staging queue from their profile so
	// the long acks stay hidden behind host I/O.
	cfg.OffloadHighWater = tune.OffloadHighWater
	cfg.OffloadLowWater = tune.OffloadLowWater
	cfg.OffloadQueueDepth = tune.OffloadQueueDepth
	dev := core.New(cfg, client)
	defer dev.Close()
	fs := host.NewFlatFS(dev, simclock.NewClock())

	profName := fleetProfiles[idx%len(fleetProfiles)]
	row.Role = profName
	prof, ok := workload.ProfileByName(profName)
	if !ok {
		return row, fmt.Errorf("unknown workload %q", profName)
	}

	// Phase 1 — benign replay through the batched datapath, measured.
	replayOps := s.TraceOps / 8
	if replayOps < 400 {
		replayOps = 400
	}
	g := workload.NewGenerator(prof, s.PageSize, dev.LogicalPages(), int64(1000+idx))
	h := metrics.NewHistogram(0)
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
			return row, err
		}
		h.Observe(done.Sub(rec.At))
		end = simclock.Max(end, done)
		row.Records++
	}
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
		if _, _, err := seedAndSnapshot(fs, rng, s); err != nil {
			return row, err
		}
		// Flush the pre-attack history: anything detection flags in it is
		// a false alert, not attack coverage.
		if _, err := dev.OffloadNow(fs.Clock().Now()); err != nil {
			return row, err
		}
		attackStart = dev.Log().NextSeq()
		if _, err := atk.Run(fs, rng); err != nil {
			return row, err
		}
	}

	// Phase 3 — final flush so detection has seen the full history.
	if _, err := dev.OffloadNow(fs.Clock().Now()); err != nil {
		return row, err
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
	for _, a := range engine.AlertsFor(deviceID) {
		if a.AtSeq >= attackStart {
			if !row.Detected {
				row.Detected = true
				row.OpsToAlert = a.AtSeq - attackStart
			}
		} else {
			row.FalseAlerts++
		}
	}
	return row, nil
}

// RenderFleet renders the per-device table and the fleet summary.
func RenderFleet(res *FleetResult) string {
	tb := metrics.NewTable("device", "role", "records", "page ops",
		"mean lat µs", "p99 lat µs", "segs (replay/total)", "ack µs",
		"q peak", "stalls", "detected", "ops to alert", "false alerts")
	for _, r := range res.Rows {
		det := "-"
		if r.Detected {
			det = "caught"
		} else if r.Attacked {
			det = "MISSED"
		}
		tb.AddRow(r.Device, r.Role, r.Records, r.PageOps,
			r.MeanLatUs, r.P99LatUs,
			fmt.Sprintf("%d/%d", r.ReplaySegments, r.Segments),
			r.AckLatUs, r.QueuePeak, r.Stalls, det, r.OpsToAlert, r.FalseAlerts)
	}
	s := res.Summary
	out := ""
	if len(res.Rows) > 0 {
		out = tb.String()
	}
	out += fmt.Sprintf(
		"fleet: %d devices (%d attacked, %d caught, %d false alerts), %d page ops in %.1f ms wall\n"+
			"       %.0f page ops/s, %.0f segments/s ingested (%d segments)\n",
		s.Devices, s.Attacked, s.Caught, s.FalseAlerts, s.PageOps, s.WallMs,
		s.PageOpsPerSec, s.SegmentsPerSec, s.Segments)
	if res.Cluster == nil {
		out += fmt.Sprintf("       mean host batch latency %.2f µs\n", s.MeanLatUs)
	} else {
		out += RenderFleetCluster(res.Cluster)
	}
	return out
}
