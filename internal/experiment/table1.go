package experiment

import (
	"bytes"
	"fmt"
	"math/rand"

	"repro/internal/attack"
	"repro/internal/baseline"
	"repro/internal/forensic"
	"repro/internal/ftl"
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
	// What the attack cost the flash: garbage collections it forced, trims
	// it issued, and stale pages erased (Ransomware 2.0's means of
	// destroying the old copies).
	GCRuns      uint64
	TrimsIssued int
	StaleErased uint64
}

// DefenseMatrix replays every attack against every system and grades data
// recovery, reproducing Table 1 of the paper. It checks the table's two
// rows the paper's claim rests on: RSSD recovers fully with forensics from
// every attack, and an unprotected LocalSSD recovers nothing.
func DefenseMatrix(s Scale) ([]DefenseCell, error) {
	var out []DefenseCell
	var v verdicts
	for _, sys := range AllSystems {
		for _, atk := range AllAttacks {
			cell, err := runDefenseCell(s, sys, atk)
			if err != nil {
				return nil, fmt.Errorf("defense cell %s/%s: %w", sys, atk, err)
			}
			out = append(out, cell)
			switch sys {
			case SysRSSD:
				v.check(cell.Grade == "full" && cell.Forensics, "%s/%s: grade %s, forensics %v, want full with forensics", sys, atk, cell.Grade, cell.Forensics)
			case SysLocalSSD:
				v.check(cell.Grade == "none", "%s/%s: grade %s, want none", sys, atk, cell.Grade)
			}
		}
	}
	return out, v.err("table1")
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
		rep, err := makeAttack(atkName).Run(rig.FS, rng)
		if err != nil {
			return cell, err
		}
		cell.flash(rep, rig.Dev.FTL())
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

	// Baseline systems: conventional FTL + retention policy. A page is
	// restorable when its current content still matches, or when the
	// policy retained the pre-attack version. An unmodified SSD (LocalSSD)
	// retains nothing on purpose: stale data survives only until GC, and no
	// recovery tooling exists.
	var rig *BaselineRig
	var retained func(lpn uint64, want []byte, at simclock.Time) bool
	switch sys {
	case SysLocalSSD:
		rig = NewBaselineRig(s, nil, nil)
	case SysFlashGuard:
		g := baseline.NewFlashGuard(s.retentionBudgetPages(), 24*simclock.Hour)
		rig = NewBaselineRig(s, g, func(f *ftl.FTL) { g.Attach(f) })
		retained = g.CanRestore
	case SysTimeSSD:
		w := baseline.NewTimeWindow(timeSSDWindow)
		rig = NewBaselineRig(s, w, func(f *ftl.FTL) { w.Attach(f) })
		retained = w.CanRestore
	default:
		return cell, fmt.Errorf("unknown system %q", sys)
	}
	snap, extents, err := seedAndSnapshot(rig.FS, rng, s)
	if err != nil {
		return cell, err
	}
	want := expectedPages(snap, extents, s.PageSize)
	rep, err := makeAttack(atkName).Run(rig.FS, rng)
	if err != nil {
		return cell, err
	}
	cell.flash(rep, rig.FTL)
	at := rig.FS.Clock().Now()
	for lpn, exp := range want {
		cell.VictimPages++
		got, _, err := rig.FTL.Read(lpn, at)
		if err == nil && bytes.Equal(got, exp) || retained != nil && retained(lpn, exp, at) {
			cell.Recovered++
		}
	}
	cell.Frac = float64(cell.Recovered) / float64(cell.VictimPages)
	cell.Grade = grade(cell.Frac)
	return cell, nil
}

// flash records what the attack cost the flash the cell ran on.
func (c *DefenseCell) flash(rep attack.Report, f *ftl.FTL) {
	st := f.Stats()
	c.GCRuns, c.TrimsIssued, c.StaleErased = st.GCRuns, rep.TrimsIssued, st.StaleErased
}

// retentionBudgetPages sizes baseline retention buffers to the same
// over-provisioned space RSSD has locally.
func (s Scale) retentionBudgetPages() int {
	cfg := s.ftlConfig()
	return cfg.NAND.Geometry.TotalPages() - int(cfg.LogicalPages())
}
