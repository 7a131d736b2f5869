package experiment

import (
	"fmt"
	"os"

	"repro/internal/remote"
)

// The retention experiment is the paper's local-server vs cloud
// comparison: the same fleet workload (benign replay plus the attack mix,
// so detection coverage is re-proved on every tier) runs against each
// storage-tier backend, and the tiers are compared on what they differ in —
// retention capacity against a fixed budget, segment ack latency including
// the tier's own service time, and modeled dollar cost. Segment blobs
// travel and land codec-compressed, so every tier's at-rest footprint is
// the wire footprint; the capacity numbers below are sized with the
// measured, not estimated, compression.

// RetentionBackends are the tiers -backend all compares:
// free local tiers (in-memory, storage-server filesystem) and the modeled
// S3 cloud tier.
var RetentionBackends = []string{"mem", "dir", "s3sim"}

// RetentionTierRow reports one storage tier's run of the fleet workload.
type RetentionTierRow struct {
	Backend     string
	Devices     int
	Attacked    int
	Caught      int
	FalseAlerts int

	Segments     uint64
	BytesLogical int64   // uncompressed segment bytes produced by the fleet
	BytesStored  int64   // what the tier actually holds (codec-compressed)
	WireRatio    float64 // logical / stored

	// MeanAckUs is device-side seal-to-ack latency. Since the server began
	// threading the tier's modeled Put service time into segment acks, it
	// reflects the full durability cost on this tier — encode stage, link
	// transfer, AND backend service — as the device itself observes it.
	MeanAckUs  float64
	TierPutMs  float64 // tier-modeled mean Put service per segment (component of MeanAckUs)
	TotalAckMs float64 // MeanAckUs in ms: what durability costs on this tier
	// QueueDepth and the watermarks record the tier profile the fleet ran
	// with: high-latency tiers stage deeper and drain earlier.
	QueueDepth int
	HighWater  float64
	LowWater   float64

	// StoredGiBPerDay is the fleet's at-rest production rate; BudgetDays
	// how long the nominal 1 TiB local-server budget lasts at that rate.
	// The cloud tier is elastic — BudgetDays is capped at the plot horizon
	// and the cost fields below are the real constraint.
	StoredGiBPerDay float64
	BudgetDays      float64

	RequestUSD      float64 // accrued per-request cost of the run
	StorageUSDMonth float64 // holding the run's footprint at rest for a month
	MultipartParts  uint64  // parts shipped by multipart uploads (s3sim)

	// PendingListKeys is the eventual-consistency backlog right after the
	// run (keys stored but absent from LIST); ReloadOK reports that a
	// settled reload still rebuilt every device's full chain head.
	PendingListKeys int
	ReloadOK        bool
}

// Retention replays the fleet workload against each backend tier. Every
// tier must see every attack caught with no false alert.
func Retention(s Scale, devices int, backends []string) ([]RetentionTierRow, error) {
	s = fleetScale(s)
	var rows []RetentionTierRow
	var v verdicts
	for _, name := range backends {
		row, err := retentionTier(s, devices, name)
		if err != nil {
			return nil, fmt.Errorf("retention %s: %w", name, err)
		}
		rows = append(rows, row)
		v.check(row.Caught == row.Attacked, "%s: caught %d of %d attacked devices", name, row.Caught, row.Attacked)
		v.check(row.FalseAlerts == 0, "%s: %d false alerts", name, row.FalseAlerts)
	}
	return rows, v.err("retention")
}

func retentionTier(s Scale, devices int, backend string) (RetentionTierRow, error) {
	row := RetentionTierRow{Backend: backend, Devices: devices}
	var dir string
	if backend == "dir" {
		var err error
		if dir, err = os.MkdirTemp("", "rssd-retention-dir-"); err != nil {
			return row, err
		}
		defer os.RemoveAll(dir)
	}
	blobs, err := remote.OpenBackend(backend, dir)
	if err != nil {
		return row, err
	}
	store := remote.NewStore(blobs)
	tune := remote.Profile(backend)
	row.QueueDepth = tune.OffloadQueueDepth
	row.HighWater = tune.OffloadHighWater
	row.LowWater = tune.OffloadLowWater
	rig := newFleetRig(s, rigSpec{store: store, tune: tune, detect: true})
	defer rig.close()
	pass, err := rig.runFleet(devices, max(s.TraceOps/8, 400), nil)
	if err != nil {
		return row, err
	}

	var ackSum float64
	for _, r := range pass.rows {
		if r.Attacked {
			row.Attacked++
			if r.Detected {
				row.Caught++
			}
		}
		row.FalseAlerts += r.FalseAlerts
		ackSum += r.AckLatUs * float64(r.Segments)
		ds := store.DeviceStats(r.Device)
		row.Segments += uint64(ds.Segments)
		row.BytesLogical += ds.BytesLogical
		row.BytesStored += ds.BytesStored
		if days := r.SimMs / 1000 / 86400; days > 0 {
			row.StoredGiBPerDay += float64(ds.BytesStored) / float64(1<<30) / days
		}
	}
	if row.Segments > 0 {
		row.MeanAckUs = ackSum / float64(row.Segments)
	}
	if row.BytesStored > 0 {
		row.WireRatio = float64(row.BytesLogical) / float64(row.BytesStored)
	}
	if row.StoredGiBPerDay > 0 {
		row.BudgetDays = float64(nominalRemoteBytes) / float64(1<<30) / row.StoredGiBPerDay
	}
	if row.BudgetDays > retentionHorizonDay {
		row.BudgetDays = retentionHorizonDay
	}

	// Tier-modeled service time and cost (free local tiers stay zero).
	ts := store.TierStats()
	if ts.Puts > 0 {
		row.TierPutMs = float64(ts.PutLatency) / float64(ts.Puts) / 1e6
	}
	row.RequestUSD = ts.RequestUSD
	row.MultipartParts = ts.Parts
	// The tier's Put service now rides inside each segment ack, so the
	// device-observed MeanAckUs already contains TierPutMs — no second
	// addition, or the tier would be double-charged.
	row.TotalAckMs = row.MeanAckUs / 1000
	s3, elastic := blobs.(*remote.S3Sim)
	if elastic {
		// Elastic capacity: the budget never fills; cost is the limit.
		row.BudgetDays = retentionHorizonDay
		row.StorageUSDMonth = s3.MonthlyStorageUSD()
		row.PendingListKeys = s3.PendingListKeys()
	}

	// Restart recovery on this tier: with the servers down, a settled reload
	// must rebuild every device's chain head even where LIST was lagging
	// moments before.
	rig.close()
	heads := map[uint64]uint64{}
	for _, id := range store.Devices() {
		heads[id] = store.Head(id).NextSeq
	}
	if err := store.ReloadSettled(); err != nil {
		return row, fmt.Errorf("reload: %w", err)
	}
	row.ReloadOK = true
	for id, want := range heads {
		if got := store.Head(id).NextSeq; got != want {
			return row, fmt.Errorf("reload head of device %d = %d, want %d", id, got, want)
		}
	}
	return row, nil
}
