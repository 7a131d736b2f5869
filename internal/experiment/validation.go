package experiment

import (
	"math/rand"

	"repro/internal/metrics"
)

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
