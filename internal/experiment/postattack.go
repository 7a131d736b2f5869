package experiment

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/attack"
	"repro/internal/batch"
	"repro/internal/forensic"
	"repro/internal/metrics"
	"repro/internal/recovery"
	"repro/internal/simclock"
	"repro/internal/workload"
)

// RecoveryRow measures post-attack recovery speed (claim P3) for one
// corpus size.
type RecoveryRow struct {
	Files         int
	VictimPages   int
	MiB           float64
	SimTime       simclock.Duration
	WallTime      time.Duration
	MiBPerSecWall float64
	Complete      bool
}

// RecoverySpeed encrypts corpora of increasing size and measures full
// restoration time.
func RecoverySpeed(s Scale, fileCounts []int) ([]RecoveryRow, error) {
	var rows []RecoveryRow
	for _, n := range fileCounts {
		sc := s
		sc.SeedFiles = n
		rig, err := NewRSSDRig(sc)
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(13))
		if _, _, err := seedAndSnapshot(rig.FS, rng, sc); err != nil {
			rig.Client.Close()
			return nil, fmt.Errorf("recovery seed %d: %w", n, err)
		}
		if _, err := (&attack.Encryptor{Key: [32]byte{5}}).Run(rig.FS, rng); err != nil {
			rig.Client.Close()
			return nil, err
		}
		an := forensic.NewAnalyzer(rig.Dev, rig.Client)
		ev, err := an.Timeline()
		if err != nil {
			rig.Client.Close()
			return nil, err
		}
		win, err := an.AttackWindow(ev, rig.Dev.Log().NextSeq())
		if err != nil {
			rig.Client.Close()
			return nil, err
		}
		eng := recovery.NewEngine(rig.Dev, rig.Client, recovery.Options{})
		t0 := time.Now()
		_, rep, err := eng.RestoreWindow(win, rig.FS.Clock().Now())
		wall := time.Since(t0)
		rig.Client.Close()
		if err != nil {
			return nil, err
		}
		mib := float64(rep.PagesRestored*rig.Dev.PageSize()) / float64(1<<20)
		row := RecoveryRow{
			Files:       n,
			VictimPages: len(win.Victims),
			MiB:         mib,
			SimTime:     rep.RTO,
			WallTime:    wall,
			Complete:    rep.PagesRestored+rep.PagesZeroed+rep.PagesKept == len(win.Victims),
		}
		if wall > 0 {
			row.MiBPerSecWall = mib / wall.Seconds()
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderRecovery renders the recovery-speed table.
func RenderRecovery(rows []RecoveryRow) string {
	tb := metrics.NewTable("files", "victim pages", "MiB", "sim time", "wall time", "MiB/s (wall)", "complete")
	for _, r := range rows {
		tb.AddRow(r.Files, r.VictimPages, r.MiB, r.SimTime.String(), r.WallTime.Round(time.Microsecond).String(), r.MiBPerSecWall, r.Complete)
	}
	return tb.String()
}

// ForensicsRow measures evidence-chain construction speed (claim P4).
type ForensicsRow struct {
	Entries       int
	VerifyWall    time.Duration
	WindowWall    time.Duration
	EntriesPerSec float64
	ChainIntact   bool
	WindowFound   bool
}

// ForensicsSpeed builds logs of increasing length (trace replay followed
// by an attack), then measures timeline verification and attack-window
// reconstruction time.
func ForensicsSpeed(s Scale, opCounts []int) ([]ForensicsRow, error) {
	var rows []ForensicsRow
	prof, _ := workload.ProfileByName("hm")
	for _, ops := range opCounts {
		sc := s
		sc.TraceOps = ops
		rig, err := NewRSSDRig(sc)
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(17))
		if _, _, err := seedAndSnapshot(rig.FS, rng, sc); err != nil {
			rig.Client.Close()
			return nil, err
		}
		// Background history before the attack.
		if err := replayAll(rig.Dev, prof, sc, 19); err != nil {
			rig.Client.Close()
			return nil, fmt.Errorf("forensics replay: %w", err)
		}
		if _, err := (&attack.Encryptor{Key: [32]byte{6}}).Run(rig.FS, rng); err != nil {
			rig.Client.Close()
			return nil, err
		}
		an := forensic.NewAnalyzer(rig.Dev, rig.Client)
		t0 := time.Now()
		ev, err := an.Timeline()
		verifyWall := time.Since(t0)
		if err != nil {
			rig.Client.Close()
			return nil, err
		}
		t1 := time.Now()
		win, werr := an.AttackWindow(ev, rig.Dev.Log().NextSeq())
		windowWall := time.Since(t1)
		rig.Client.Close()
		row := ForensicsRow{
			Entries:     len(ev.Entries),
			VerifyWall:  verifyWall,
			WindowWall:  windowWall,
			ChainIntact: ev.ChainIntact,
			WindowFound: werr == nil && len(win.Victims) > 0,
		}
		if verifyWall > 0 {
			row.EntriesPerSec = float64(len(ev.Entries)) / verifyWall.Seconds()
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderForensics renders the evidence-chain speed table.
func RenderForensics(rows []ForensicsRow) string {
	tb := metrics.NewTable("log entries", "verify (wall)", "backtrack (wall)", "entries/s", "chain intact", "window found")
	for _, r := range rows {
		tb.AddRow(r.Entries, r.VerifyWall.Round(time.Microsecond).String(), r.WindowWall.Round(time.Microsecond).String(), r.EntriesPerSec, r.ChainIntact, r.WindowFound)
	}
	return tb.String()
}

// OffloadRow characterizes the NVMe-oE offload path under write pressure.
type OffloadRow struct {
	Workload        string
	Segments        uint64
	PagesShipped    uint64
	RawMiB          float64
	StoredMiB       float64 // remote footprint of page data
	MaxBacklogPages int
	PressureEvents  uint64
	DroppedPages    uint64
}

// OffloadCost replays a churn-heavy trace on RSSD and reports what the
// offload engine did.
func OffloadCost(s Scale, names []string) ([]OffloadRow, error) {
	var rows []OffloadRow
	for _, name := range names {
		prof, ok := workload.ProfileByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
		rig, err := NewRSSDRig(s)
		if err != nil {
			return nil, err
		}
		g := workload.NewGenerator(prof, s.PageSize, rig.Dev.LogicalPages(), 29)
		var ops []batch.Op
		maxBacklog := 0
		for i := 0; i < s.TraceOps; i++ {
			rec := g.Next()
			ops = recordBatch(g, rec, rig.Dev.LogicalPages(), ops[:0])
			if _, err := submitRecord(rig.Dev, ops, rec.At); err != nil {
				rig.Client.Close()
				return nil, err
			}
			if b := rig.Dev.Stats().RetainedNow; b > maxBacklog {
				maxBacklog = b
			}
		}
		st := rig.Dev.Stats()
		remoteStats := rig.Store.DeviceStats(1)
		rows = append(rows, OffloadRow{
			Workload:        name,
			Segments:        st.OffloadSegments,
			PagesShipped:    st.OffloadPages,
			RawMiB:          float64(st.OffloadBytes) / float64(1<<20),
			StoredMiB:       float64(remoteStats.PageBytes) / float64(1<<20),
			MaxBacklogPages: maxBacklog,
			PressureEvents:  st.PressureEvents,
			DroppedPages:    st.DroppedPages,
		})
		rig.Client.Close()
	}
	return rows, nil
}

// RenderOffload renders the offload-cost table.
func RenderOffload(rows []OffloadRow) string {
	tb := metrics.NewTable("workload", "segments", "pages", "raw MiB", "remote MiB", "max backlog", "pressure", "dropped")
	for _, r := range rows {
		tb.AddRow(r.Workload, r.Segments, r.PagesShipped, r.RawMiB, r.StoredMiB, r.MaxBacklogPages, r.PressureEvents, r.DroppedPages)
	}
	return tb.String()
}

// ValidationRow shows Ransomware 2.0 succeeding against an unprotected
// SSD — the paper's §3 attack-validation claims.
type ValidationRow struct {
	Attack       AttackName
	VictimPages  int
	SurvivingPct float64 // victim pages still readable as original
	GCRunsForced uint64
	TrimsIssued  int
	StaleErased  uint64
}

// AttackValidation replays each attack against an unprotected LocalSSD and
// measures destruction.
func AttackValidation(s Scale) ([]ValidationRow, error) {
	var rows []ValidationRow
	for _, atkName := range AllAttacks {
		rig := NewBaselineRig(s, nil, nil)
		rng := rand.New(rand.NewSource(37))
		snap, extents, err := seedAndSnapshot(rig.FS, rng, s)
		if err != nil {
			return nil, err
		}
		want := expectedPages(snap, extents, s.PageSize)
		rep, err := makeAttack(atkName).Run(rig.FS, rng)
		if err != nil {
			return nil, err
		}
		at := rig.FS.Clock().Now()
		surviving := 0
		for lpn, exp := range want {
			got, _, err := rig.FTL.Read(lpn, at)
			if err == nil && string(got) == string(exp) {
				surviving++
			}
		}
		rows = append(rows, ValidationRow{
			Attack:       atkName,
			VictimPages:  len(want),
			SurvivingPct: pct(surviving, len(want)),
			GCRunsForced: rig.FTL.Stats().GCRuns,
			TrimsIssued:  rep.TrimsIssued,
			StaleErased:  rig.FTL.Stats().StaleErased,
		})
	}
	return rows, nil
}

// RenderValidation renders the attack-validation table.
func RenderValidation(rows []ValidationRow) string {
	tb := metrics.NewTable("attack", "victim pages", "surviving %", "GC runs", "trims", "stale pages erased")
	for _, r := range rows {
		tb.AddRow(string(r.Attack), r.VictimPages, r.SurvivingPct, r.GCRunsForced, r.TrimsIssued, r.StaleErased)
	}
	return tb.String()
}
