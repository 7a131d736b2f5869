package experiment

import (
	"bytes"
	"fmt"
	"math/rand"

	"repro/internal/baseline"
	"repro/internal/forensic"
	"repro/internal/ftl"
	"repro/internal/metrics"
	"repro/internal/recovery"
	"repro/internal/simclock"
)

// DefenseCell is one (system, attack) outcome of Table 1.
type DefenseCell struct {
	System      SystemName
	Attack      AttackName
	VictimPages int
	Recovered   int
	// Frac is the fraction of victim pages whose pre-attack content is
	// restorable from the system's retained data.
	Frac float64
	// Grade is the paper's ❍/◗/● scale as none/partial/full.
	Grade string
	// Forensics reports whether a trusted evidence chain identifying the
	// attack window could be produced (RSSD only).
	Forensics bool
}

// DefenseMatrix replays every attack against every system and grades data
// recovery, reproducing Table 1 of the paper.
func DefenseMatrix(s Scale) ([]DefenseCell, error) {
	var out []DefenseCell
	for _, sys := range AllSystems {
		for _, atk := range AllAttacks {
			cell, err := runDefenseCell(s, sys, atk)
			if err != nil {
				return nil, fmt.Errorf("defense cell %s/%s: %w", sys, atk, err)
			}
			out = append(out, cell)
		}
	}
	return out, nil
}

// timeSSDWindow is the TimeSSD-like bounded retention window; the timing
// attack spans ~10 simulated days, deliberately exceeding it.
const timeSSDWindow = 3 * simclock.Day

func runDefenseCell(s Scale, sys SystemName, atkName AttackName) (DefenseCell, error) {
	cell := DefenseCell{System: sys, Attack: atkName}
	rng := rand.New(rand.NewSource(7))

	if sys == SysRSSD {
		rig, err := NewRSSDRig(s)
		if err != nil {
			return cell, err
		}
		defer rig.Client.Close()
		snap, extents, err := seedAndSnapshot(rig.FS, rng, s)
		if err != nil {
			return cell, err
		}
		want := expectedPages(snap, extents, s.PageSize)
		if _, err := makeAttack(atkName).Run(rig.FS, rng); err != nil {
			return cell, err
		}
		// Forensics: trusted timeline + attack window.
		an := forensic.NewAnalyzer(rig.Dev, rig.Client)
		ev, err := an.Timeline()
		if err != nil {
			return cell, err
		}
		win, err := an.AttackWindow(ev, rig.Dev.Log().NextSeq())
		if err != nil {
			return cell, err
		}
		cell.Forensics = ev.ChainIntact
		// Recovery: restore and compare against the snapshot layout.
		eng := recovery.NewEngine(rig.Dev, rig.Client, recovery.Options{})
		at, _, err := eng.RestoreWindow(win, rig.FS.Clock().Now())
		if err != nil {
			return cell, err
		}
		for lpn, exp := range want {
			cell.VictimPages++
			got, _, err := rig.Dev.Read(lpn, at)
			if err == nil && bytes.Equal(got, exp) {
				cell.Recovered++
			}
		}
		cell.Frac = float64(cell.Recovered) / float64(cell.VictimPages)
		cell.Grade = grade(cell.Frac)
		return cell, nil
	}

	// Baseline systems: conventional FTL + retention policy.
	var rig *BaselineRig
	var canRestore func(lpn uint64, want []byte, at simclock.Time) bool
	switch sys {
	case SysLocalSSD:
		// An unmodified SSD retains nothing on purpose; stale data
		// survives only until GC. Recovery tooling does not exist, so
		// restorable = current content already matches (i.e. untouched).
		rig = NewBaselineRig(s, nil, nil)
		canRestore = func(lpn uint64, want []byte, at simclock.Time) bool {
			got, _, err := rig.FTL.Read(lpn, at)
			return err == nil && bytes.Equal(got, want)
		}
	case SysFlashGuard:
		g := baseline.NewFlashGuard(s.retentionBudgetPages(), 24*simclock.Hour)
		rig = NewBaselineRig(s, g, func(f *ftl.FTL) { g.Attach(f) })
		canRestore = func(lpn uint64, want []byte, at simclock.Time) bool {
			got, _, err := rig.FTL.Read(lpn, at)
			if err == nil && bytes.Equal(got, want) {
				return true
			}
			return g.CanRestore(lpn, want, at)
		}
	case SysTimeSSD:
		w := baseline.NewTimeWindow(timeSSDWindow)
		rig = NewBaselineRig(s, w, func(f *ftl.FTL) { w.Attach(f) })
		canRestore = func(lpn uint64, want []byte, at simclock.Time) bool {
			got, _, err := rig.FTL.Read(lpn, at)
			if err == nil && bytes.Equal(got, want) {
				return true
			}
			return w.CanRestore(lpn, want, at)
		}
	default:
		return cell, fmt.Errorf("unknown system %q", sys)
	}
	snap, extents, err := seedAndSnapshot(rig.FS, rng, s)
	if err != nil {
		return cell, err
	}
	want := expectedPages(snap, extents, s.PageSize)
	if _, err := makeAttack(atkName).Run(rig.FS, rng); err != nil {
		return cell, err
	}
	at := rig.FS.Clock().Now()
	for lpn, exp := range want {
		cell.VictimPages++
		if canRestore(lpn, exp, at) {
			cell.Recovered++
		}
	}
	cell.Frac = float64(cell.Recovered) / float64(cell.VictimPages)
	cell.Grade = grade(cell.Frac)
	return cell, nil
}

// retentionBudgetPages sizes baseline retention buffers to the same
// over-provisioned space RSSD has locally.
func (s Scale) retentionBudgetPages() int {
	cfg := s.ftlConfig()
	return cfg.NAND.Geometry.TotalPages() - int(cfg.LogicalPages())
}

// RenderDefenseMatrix formats the matrix the way Table 1 lays it out: one
// row per system, defense columns per attack, then recovery and
// forensics.
func RenderDefenseMatrix(cells []DefenseCell) string {
	bySys := map[SystemName]map[AttackName]DefenseCell{}
	for _, c := range cells {
		if bySys[c.System] == nil {
			bySys[c.System] = map[AttackName]DefenseCell{}
		}
		bySys[c.System][c.Attack] = c
	}
	tb := metrics.NewTable("system", "gc", "timing", "trimming", "recovery(encryptor)", "forensics")
	defended := func(c DefenseCell) string {
		if c.Grade == "full" {
			return "yes"
		}
		return "NO"
	}
	for _, sys := range AllSystems {
		row := bySys[sys]
		fx := "no"
		if row[AtkEncryptor].Forensics {
			fx = "yes"
		}
		tb.AddRow(string(sys),
			defended(row[AtkGC]),
			defended(row[AtkTiming]),
			defended(row[AtkTrimming]),
			fmt.Sprintf("%s (%.0f%%)", row[AtkEncryptor].Grade, 100*row[AtkEncryptor].Frac),
			fx,
		)
	}
	return tb.String()
}
