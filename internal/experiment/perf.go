package experiment

import (
	"fmt"

	"repro/internal/batch"
	"repro/internal/ftl"
	"repro/internal/host"
	"repro/internal/metrics"
	"repro/internal/simclock"
	"repro/internal/workload"
)

// PerfRow compares plain-SSD and RSSD latency for one workload — the
// paper's "<1% storage performance overhead" claim (P1).
type PerfRow struct {
	Workload         string
	PlainMeanW       simclock.Duration
	RSSDMeanW        simclock.Duration
	PlainP99W        simclock.Duration
	RSSDP99W         simclock.Duration
	WriteOverheadPct float64
	PlainMeanR       simclock.Duration
	RSSDMeanR        simclock.Duration
	ReadOverheadPct  float64
}

// PerfOverhead replays identical arrival-timed traces against a plain FTL
// and an RSSD (with live offload) and compares request latencies.
func PerfOverhead(s Scale, workloads []string) ([]PerfRow, error) {
	var rows []PerfRow
	for _, name := range workloads {
		prof, ok := workload.ProfileByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
		row, err := perfOne(s, prof)
		if err != nil {
			return nil, fmt.Errorf("perf %s: %w", name, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// perfDevice abstracts the two systems for identical replay: any
// batch-capable block device (plain FTL or RSSD).
type perfDevice interface {
	host.BatchDevice
}

func perfOne(s Scale, prof workload.Profile) (PerfRow, error) {
	run := func(dev perfDevice) (*metrics.Histogram, *metrics.Histogram, error) {
		// An identical generator seed gives both systems the same ops
		// and the same content bytes.
		g := workload.NewGenerator(prof, s.PageSize, dev.LogicalPages(), 23)
		hw := metrics.NewHistogram(0)
		hr := metrics.NewHistogram(0)
		var ops []batch.Op
		for i := 0; i < s.TraceOps; i++ {
			rec := g.Next()
			// Each record is one submission batch, dispatched at its trace
			// arrival time: a deep multi-queue datapath accepts requests as
			// they arrive, so queueing shows up as chip-level contention
			// inside the device model rather than head-of-line blocking at
			// the record level.
			ops = recordBatch(g, rec, dev.LogicalPages(), ops[:0])
			done, err := submitRecord(dev, ops, rec.At)
			if err != nil {
				return nil, nil, err
			}
			lat := done.Sub(rec.At) // latency from arrival to completion
			switch rec.Op {
			case workload.OpWrite:
				hw.Observe(lat)
			case workload.OpRead:
				hr.Observe(lat)
			}
		}
		return hw, hr, nil
	}

	plain := ftl.New(s.ftlConfig(), nil)
	pw, pr, err := run(plain)
	if err != nil {
		return PerfRow{}, fmt.Errorf("plain: %w", err)
	}

	rig, err := NewRSSDRig(s)
	if err != nil {
		return PerfRow{}, err
	}
	defer rig.Client.Close()
	rw, rr, err := run(rig.Dev)
	if err != nil {
		return PerfRow{}, fmt.Errorf("rssd: %w", err)
	}

	row := PerfRow{
		Workload:   prof.Name,
		PlainMeanW: pw.Mean(), RSSDMeanW: rw.Mean(),
		PlainP99W: pw.Percentile(99), RSSDP99W: rw.Percentile(99),
		PlainMeanR: pr.Mean(), RSSDMeanR: rr.Mean(),
	}
	if pw.Mean() > 0 {
		row.WriteOverheadPct = 100 * (float64(rw.Mean()) - float64(pw.Mean())) / float64(pw.Mean())
	}
	if pr.Mean() > 0 {
		row.ReadOverheadPct = 100 * (float64(rr.Mean()) - float64(pr.Mean())) / float64(pr.Mean())
	}
	return row, nil
}

// RenderPerf renders the performance-overhead comparison.
func RenderPerf(rows []PerfRow) string {
	tb := metrics.NewTable("workload", "write mean (plain)", "write mean (RSSD)", "write p99 (plain)", "write p99 (RSSD)", "write ovh %", "read ovh %")
	for _, r := range rows {
		tb.AddRow(r.Workload,
			r.PlainMeanW.String(), r.RSSDMeanW.String(),
			r.PlainP99W.String(), r.RSSDP99W.String(),
			r.WriteOverheadPct, r.ReadOverheadPct)
	}
	return tb.String()
}

// LifetimeRow compares write amplification — the device-lifetime claim (P2).
type LifetimeRow struct {
	Workload       string
	PlainWAF       float64
	RSSDWAF        float64
	PlainErases    uint64
	RSSDErases     uint64
	WAFIncreasePct float64
}

// LifetimeWAF replays identical traces and compares write amplification
// and erase counts between plain SSD and RSSD.
func LifetimeWAF(s Scale, workloads []string) ([]LifetimeRow, error) {
	var rows []LifetimeRow
	for _, name := range workloads {
		prof, ok := workload.ProfileByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
		plain := ftl.New(s.ftlConfig(), nil)
		if err := replayAll(plain, prof, s, 31); err != nil {
			return nil, fmt.Errorf("lifetime plain %s: %w", name, err)
		}
		rig, err := NewRSSDRig(s)
		if err != nil {
			return nil, err
		}
		if err := replayAll(rig.Dev, prof, s, 31); err != nil {
			rig.Client.Close()
			return nil, fmt.Errorf("lifetime rssd %s: %w", name, err)
		}
		row := LifetimeRow{
			Workload:    name,
			PlainWAF:    plain.WAF(),
			RSSDWAF:     rig.Dev.FTL().WAF(),
			PlainErases: plain.Device().Stats().Erases,
			RSSDErases:  rig.Dev.FTL().Device().Stats().Erases,
		}
		if row.PlainWAF > 0 {
			row.WAFIncreasePct = 100 * (row.RSSDWAF - row.PlainWAF) / row.PlainWAF
		}
		rig.Client.Close()
		rows = append(rows, row)
	}
	return rows, nil
}

// replayAll pushes a full generated trace through any perfDevice, one
// submission batch per trace record, dispatched at trace arrival time.
func replayAll(dev perfDevice, prof workload.Profile, s Scale, seed int64) error {
	_, _, err := replay(dev, workload.NewGenerator(prof, s.PageSize, dev.LogicalPages(), seed), s.TraceOps, replayOpts{})
	return err
}

// RenderLifetime renders the WAF comparison.
func RenderLifetime(rows []LifetimeRow) string {
	tb := metrics.NewTable("workload", "WAF (plain)", "WAF (RSSD)", "erases (plain)", "erases (RSSD)", "WAF increase %")
	for _, r := range rows {
		tb.AddRow(r.Workload, r.PlainWAF, r.RSSDWAF, r.PlainErases, r.RSSDErases, r.WAFIncreasePct)
	}
	return tb.String()
}
