package experiment

import (
	"fmt"

	"repro/internal/ftl"
	"repro/internal/nvmeoe"
	"repro/internal/simclock"
	"repro/internal/workload"
)

// Figure 2 nominal deployment: a 512 GiB SSD with 7% over-provisioning,
// and a 1 TiB remote retention budget per device (S3 bucket / storage
// server quota). Retention time is capped at the paper's plot horizon.
const (
	nominalDeviceBytes  = 512 << 30
	nominalOPFraction   = 0.07
	nominalRemoteBytes  = 1 << 40
	retentionHorizonDay = 240.0
)

// RetentionRow is one workload's bar group in Figure 2.
type RetentionRow struct {
	Workload        string
	StaleGiBPerDay  float64 // measured stale-data production rate
	CompressRatio   float64 // measured DEFLATE ratio of the workload's content
	LocalSSDDays    float64
	CompressionDays float64
	RSSDDays        float64
}

// countingRetainer counts stale events without pinning (measurement only).
type countingRetainer struct {
	stale uint64
	trims uint64
}

func (c *countingRetainer) OnStale(lpn, ppn uint64, cause ftl.StaleCause, at simclock.Time) bool {
	c.stale++
	if cause == ftl.CauseTrim {
		c.trims++
	}
	return false
}
func (c *countingRetainer) OnMigrate(lpn, oldPPN, newPPN uint64, at simclock.Time) {}
func (c *countingRetainer) OnErased(lpn, ppn uint64, at simclock.Time)             {}
func (c *countingRetainer) Pressure(needPages int, at simclock.Time)               {}

// Fig2Retention measures, for each of the twelve workloads, the stale-data
// production rate and content compressibility by replaying the workload on
// the simulated FTL, then scales to the nominal deployment to produce the
// retention times of Figure 2.
func Fig2Retention(s Scale) ([]RetentionRow, error) {
	var rows []RetentionRow
	for _, prof := range workload.Profiles {
		row, err := fig2One(s, prof)
		if err != nil {
			return nil, fmt.Errorf("fig2 %s: %w", prof.Name, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func fig2One(s Scale, prof workload.Profile) (RetentionRow, error) {
	ctr := &countingRetainer{}
	cfg := s.ftlConfig()
	f := ftl.New(cfg, ctr)
	g := workload.NewGenerator(prof, s.PageSize, f.LogicalPages(), 11)

	// Warm up so overwrites dominate (steady state), then measure.
	warm := s.TraceOps / 4
	var start, end simclock.Time
	measuring := false
	var staleStart uint64
	at := simclock.Time(0)
	for i := 0; i < s.TraceOps; i++ {
		rec := g.Next()
		if i == warm {
			measuring = true
			start = rec.At
			staleStart = ctr.stale
		}
		if err := replayRecord(f, g, rec, &at); err != nil {
			return RetentionRow{}, err
		}
		end = rec.At
	}
	if !measuring || end <= start {
		return RetentionRow{}, fmt.Errorf("trace too short to measure")
	}
	staleEvents := ctr.stale - staleStart
	days := end.Sub(start).Days()
	staleGiBPerDay := float64(staleEvents) * float64(s.PageSize) / float64(1<<30) / days

	// Content compressibility, measured through the same exported codec
	// the offload wire ships segments with: a segment's worth of workload
	// pages in one buffer, so cross-page redundancy counts exactly as it
	// does on the wire.
	const samplePages = 64
	sample := make([]byte, 0, samplePages*s.PageSize)
	for i := 0; i < samplePages; i++ {
		sample = append(sample, g.Content()...)
	}
	ratio := nvmeoe.CompressionRatio(sample)

	opBytes := nominalOPFraction * nominalDeviceBytes
	staleBytesPerDay := staleGiBPerDay * float64(1<<30)
	row := RetentionRow{
		Workload:       prof.Name,
		StaleGiBPerDay: staleGiBPerDay,
		CompressRatio:  ratio,
		LocalSSDDays:   opBytes / staleBytesPerDay,
		// Compressing retained data stretches the same local space.
		CompressionDays: opBytes * ratio / staleBytesPerDay,
		// RSSD ships compressed stale data to the remote budget; local OP
		// space adds on top.
		RSSDDays: (opBytes + float64(nominalRemoteBytes)*ratio) / staleBytesPerDay,
	}
	if row.LocalSSDDays > retentionHorizonDay {
		row.LocalSSDDays = retentionHorizonDay
	}
	if row.CompressionDays > retentionHorizonDay {
		row.CompressionDays = retentionHorizonDay
	}
	if row.RSSDDays > retentionHorizonDay {
		row.RSSDDays = retentionHorizonDay
	}
	return row, nil
}

// replayRecord applies one trace record to an FTL as one submission
// batch dispatched at trace arrival time, generating content for writes
// from the workload's compressibility profile.
func replayRecord(f *ftl.FTL, g *workload.Generator, rec workload.Record, at *simclock.Time) error {
	done, err := submitRecord(f, recordBatch(g, rec, f.LogicalPages(), nil), rec.At)
	if err != nil {
		return err
	}
	*at = simclock.Max(*at, done)
	return nil
}
