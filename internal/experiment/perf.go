package experiment

import (
	"fmt"

	"repro/internal/ftl"
	"repro/internal/host"
	"repro/internal/metrics"
	"repro/internal/simclock"
	"repro/internal/workload"
)

// PerfSystem is one system's replay of a workload: request latency from
// trace arrival to completion, and what the replay cost the flash.
type PerfSystem struct {
	MeanW, P99W simclock.Duration
	MeanR, P99R simclock.Duration
	WAF         float64
	Erases      uint64
}

// PerfRow compares a plain FTL with an RSSD (live offload) on one trace —
// the paper's "<1% storage performance overhead" claim (P1) and its
// minimal-lifetime-impact claim (P2). PeakBacklogPages is the RSSD's
// retention: the most stale pages it held locally at once.
type PerfRow struct {
	Workload         string
	Plain, RSSD      PerfSystem
	WriteOverheadPct float64
	ReadOverheadPct  float64
	WAFIncreasePct   float64
	PeakBacklogPages int
}

// PerfOverhead replays the same arrival-timed trace of each workload
// against a plain FTL and an RSSD, one replay per system.
func PerfOverhead(s Scale, workloads []string) ([]PerfRow, error) {
	var rows []PerfRow
	for _, name := range workloads {
		prof, ok := workload.ProfileByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
		row := PerfRow{Workload: name}
		plain := ftl.New(s.ftlConfig(), nil)
		var err error
		if row.Plain, err = perfReplay(s, prof, plain, plain, nil); err != nil {
			return nil, fmt.Errorf("perf %s plain: %w", name, err)
		}
		rig, err := NewRSSDRig(s)
		if err != nil {
			return nil, err
		}
		row.RSSD, err = perfReplay(s, prof, rig.Dev, rig.Dev.FTL(), func() {
			row.PeakBacklogPages = max(row.PeakBacklogPages, rig.Dev.Stats().RetainedNow)
		})
		rig.Client.Close()
		if err != nil {
			return nil, fmt.Errorf("perf %s rssd: %w", name, err)
		}
		row.WriteOverheadPct = overheadPct(float64(row.RSSD.MeanW), float64(row.Plain.MeanW))
		row.ReadOverheadPct = overheadPct(float64(row.RSSD.MeanR), float64(row.Plain.MeanR))
		row.WAFIncreasePct = overheadPct(row.RSSD.WAF, row.Plain.WAF)
		rows = append(rows, row)
	}
	return rows, nil
}

// perfReplay replays the workload's trace (the same generator seed gives
// both systems the same ops and content bytes) through dev, whose flash is
// f. Each record is one submission batch issued at its trace arrival time,
// so queueing shows up as chip contention inside the device model rather
// than head-of-line blocking at the record level. after, when set, runs
// after every record.
func perfReplay(s Scale, prof workload.Profile, dev host.BlockDevice, f *ftl.FTL, after func()) (PerfSystem, error) {
	hw, hr := metrics.NewHistogram(0), metrics.NewHistogram(0)
	g := workload.NewGenerator(prof, s.PageSize, dev.LogicalPages(), 23)
	_, _, err := replay(dev, g, s.TraceOps, replayOpts{each: func(rec workload.Record, issue, done simclock.Time) {
		switch rec.Op {
		case workload.OpWrite:
			hw.Observe(done.Sub(issue))
		case workload.OpRead:
			hr.Observe(done.Sub(issue))
		}
		if after != nil {
			after()
		}
	}})
	return PerfSystem{
		MeanW: hw.Mean(), P99W: hw.Percentile(99),
		MeanR: hr.Mean(), P99R: hr.Percentile(99),
		WAF: f.WAF(), Erases: f.Device().Stats().Erases,
	}, err
}

// overheadPct is how much larger got is than base, in percent (0 when
// base is).
func overheadPct(got, base float64) float64 {
	if base == 0 {
		return 0
	}
	return 100 * (got - base) / base
}
