package experiment

import (
	"fmt"
	"testing"

	"repro/internal/detect"
)

// The experiment tests assert the *shape* of the paper's results at small
// scale: who wins, by roughly what factor, and which defenses hold.
// cmd/rssdbench prints the full-scale numbers.

func TestFig2RetentionShape(t *testing.T) {
	rows, err := Fig2Retention(SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 {
		t.Fatalf("rows = %d, want 12 workloads", len(rows))
	}
	for _, r := range rows {
		if r.StaleGiBPerDay <= 0 {
			t.Fatalf("%s: no stale production measured", r.Workload)
		}
		if r.CompressRatio <= 1 {
			t.Fatalf("%s: compression ratio %v", r.Workload, r.CompressRatio)
		}
		// Figure 2's ordering: LocalSSD < +Compression < RSSD.
		if !(r.LocalSSDDays < r.CompressionDays && r.CompressionDays < r.RSSDDays) {
			t.Fatalf("%s: ordering broken: %v / %v / %v",
				r.Workload, r.LocalSSDDays, r.CompressionDays, r.RSSDDays)
		}
		// RSSD retains for months (paper: >200 days for most workloads);
		// local-only retention lasts days.
		if r.RSSDDays < 100 {
			t.Fatalf("%s: RSSD retention only %.1f days", r.Workload, r.RSSDDays)
		}
		if r.LocalSSDDays > 40 {
			t.Fatalf("%s: LocalSSD retention suspiciously long: %.1f days", r.Workload, r.LocalSSDDays)
		}
		if r.RSSDDays/r.LocalSSDDays < 10 {
			t.Fatalf("%s: RSSD advantage only %.1fx", r.Workload, r.RSSDDays/r.LocalSSDDays)
		}
	}
}

func TestDefenseMatrixMatchesTable1(t *testing.T) {
	cells, err := DefenseMatrix(SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	get := func(sys SystemName, atk AttackName) DefenseCell {
		for _, c := range cells {
			if c.System == sys && c.Attack == atk {
				return c
			}
		}
		t.Fatalf("missing cell %s/%s", sys, atk)
		return DefenseCell{}
	}

	// RSSD: full recovery under every attack, with forensics.
	for _, atk := range AllAttacks {
		c := get(SysRSSD, atk)
		if c.Grade != "full" {
			t.Errorf("RSSD/%s: grade %s (%.0f%%), want full", atk, c.Grade, 100*c.Frac)
		}
		if !c.Forensics {
			t.Errorf("RSSD/%s: no trusted evidence chain", atk)
		}
	}
	// LocalSSD: Ransomware 2.0 destroys every victim page, the GC attack
	// by forcing garbage collection and the trimming attack by trimming.
	for _, atk := range AllAttacks {
		if c := get(SysLocalSSD, atk); c.Recovered != 0 || c.Grade != "none" {
			t.Errorf("LocalSSD/%s: %d of %d victim pages survived (grade %s)", atk, c.Recovered, c.VictimPages, c.Grade)
		}
	}
	if c := get(SysLocalSSD, AtkGC); c.GCRuns == 0 {
		t.Error("GC attack forced no garbage collection")
	}
	if c := get(SysLocalSSD, AtkTrimming); c.TrimsIssued == 0 {
		t.Error("trimming attack issued no trims")
	}
	// FlashGuard-like: recovers the classic encryptor and survives the GC
	// attack, but the timing and trimming attacks defeat it (Table 1 row).
	if c := get(SysFlashGuard, AtkEncryptor); c.Grade != "full" {
		t.Errorf("FlashGuard/encryptor: grade %s, want full", c.Grade)
	}
	if c := get(SysFlashGuard, AtkGC); c.Grade != "full" {
		t.Errorf("FlashGuard/gc: grade %s, want full (pins are GC-proof)", c.Grade)
	}
	if c := get(SysFlashGuard, AtkTiming); c.Grade == "full" {
		t.Errorf("FlashGuard/timing: unexpectedly defended (%.0f%%)", 100*c.Frac)
	}
	if c := get(SysFlashGuard, AtkTrimming); c.Grade == "full" {
		t.Errorf("FlashGuard/trimming: unexpectedly defended (%.0f%%)", 100*c.Frac)
	}
	// TimeSSD-like: survives GC, loses to timing (window expiry) and to
	// trimming (trim is not retained at all).
	if c := get(SysTimeSSD, AtkGC); c.Grade != "full" {
		t.Errorf("TimeSSD/gc: grade %s, want full", c.Grade)
	}
	if c := get(SysTimeSSD, AtkTiming); c.Grade == "full" {
		t.Errorf("TimeSSD/timing: unexpectedly defended (%.0f%%)", 100*c.Frac)
	}
	if c := get(SysTimeSSD, AtkTrimming); c.Grade == "full" {
		t.Errorf("TimeSSD/trimming: unexpectedly defended (%.0f%%)", 100*c.Frac)
	}
}

// TestPerfOverheadUnderOnePercentShape checks claim P1: latency stays
// close to a plain FTL's.
func TestPerfOverheadUnderOnePercentShape(t *testing.T) {
	rows, err := PerfOverhead(SmallScale(), []string{"hm", "web"})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Plain.MeanW <= 0 || r.RSSD.MeanW <= 0 {
			t.Fatalf("%s: empty latency data", r.Workload)
		}
		// Claim P1: negligible overhead. At test scale we allow a little
		// slack over the paper's <1%, but it must stay small.
		if r.WriteOverheadPct > 5 {
			t.Errorf("%s: write overhead %.2f%%", r.Workload, r.WriteOverheadPct)
		}
		if r.ReadOverheadPct > 5 {
			t.Errorf("%s: read overhead %.2f%%", r.Workload, r.ReadOverheadPct)
		}
	}
}

// TestLifetimeWAFShape checks claim P2: write amplification stays close
// to a plain FTL's.
func TestLifetimeWAFShape(t *testing.T) {
	rows, err := PerfOverhead(SmallScale(), []string{"hm"})
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.Plain.WAF < 1 || r.RSSD.WAF < 1 {
		t.Fatalf("WAF < 1: %+v", r)
	}
	// Claim P2: minimal lifetime impact. Retention adds some migration,
	// but write amplification must stay in the same ballpark.
	if r.RSSD.WAF > r.Plain.WAF*1.5 {
		t.Errorf("WAF blowup: plain %.2f vs RSSD %.2f", r.Plain.WAF, r.RSSD.WAF)
	}
}

// TestOffloadCostZeroLoss checks that with a live remote the RSSD drops
// nothing and never holds more than its retention budget.
func TestOffloadCostZeroLoss(t *testing.T) {
	s := SmallScale()
	rows, err := PerfOverhead(s, []string{"src"})
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.PeakBacklogPages == 0 {
		t.Fatalf("no offload backlog ever built: %+v", r)
	}
	if r.DroppedPages != 0 {
		t.Fatalf("RSSD dropped %d pages with a live remote", r.DroppedPages)
	}
	if budget := s.retentionBudgetPages(); r.PeakBacklogPages > budget {
		t.Fatalf("backlog %d exceeded retention budget %d", r.PeakBacklogPages, budget)
	}
}

func TestDetectionLatencyCoversAllVariants(t *testing.T) {
	rows, err := DetectionLatency(SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6 attack variants", len(rows))
	}
	for _, r := range rows {
		if !r.Detected {
			t.Errorf("%s: undetected", r.Attack)
		}
		if r.FalsePositives != 0 {
			t.Errorf("%s: %d false positives on benign traffic", r.Attack, r.FalsePositives)
		}
	}
}

// ablationCell records one (variant, attack) detection outcome.
type ablationCell struct {
	Variant  string
	Attack   string
	Detected bool
}

// detectionAblation runs every attack against the full detector and
// against variants that each disable one mechanism.
func detectionAblation(s Scale) ([]ablationCell, error) {
	base := detectConfig(s)
	windowOnly := base
	windowOnly.CumulativeVictims = 1 << 40 // cumulative detector off
	cumulativeOnly := base
	cumulativeOnly.Threshold = 1.1 // window detector can never fire
	noZero := base
	noZero.PageSize = 0 // zero-wipe signal off
	noZero.WeightZeroWipe = 0
	variants := []struct {
		name string
		cfg  detect.Config
	}{
		{"full", base},
		{"window-only", windowOnly},
		{"cumulative-only", cumulativeOnly},
		{"no-zero-signal", noZero},
	}
	var out []ablationCell
	for _, v := range variants {
		for _, atk := range detectionAttacks() {
			row, err := detectOne(s, atk, v.cfg)
			if err != nil {
				return nil, fmt.Errorf("ablation %s/%s: %w", v.name, atk.Name(), err)
			}
			out = append(out, ablationCell{Variant: v.name, Attack: atk.Name(), Detected: row.Detected})
		}
	}
	return out, nil
}

// TestDetectionAblation shows each detector mechanism is load-bearing:
// the full ensemble catches everything, while each ablated variant misses
// at least one attack.
func TestDetectionAblation(t *testing.T) {
	cells, err := detectionAblation(SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	missed := map[string]map[string]bool{}
	for _, c := range cells {
		if c.Variant == "full" && !c.Detected {
			t.Errorf("full ensemble missed %s", c.Attack)
		}
		if !c.Detected {
			if missed[c.Variant] == nil {
				missed[c.Variant] = map[string]bool{}
			}
			missed[c.Variant][c.Attack] = true
		}
	}
	// Without the cumulative counter, the stealthy timing attack slips
	// under the rate window.
	if !missed["window-only"]["timing-attack"] {
		t.Error("window-only caught the stealthy timing attack; cumulative counter looks redundant")
	}
	// Without the zero-wipe signal, the wiper is invisible (low entropy,
	// and its victims are only attributed through that signal).
	if !missed["no-zero-signal"]["wiper"] {
		t.Error("no-zero-signal caught the wiper; zero-wipe signal looks redundant")
	}
	// The cumulative-only variant keeps full coverage — its cost is
	// latency, which the detection-latency experiment reports.
	if len(missed["cumulative-only"]) > 1 {
		t.Errorf("cumulative-only missed too much: %v", missed["cumulative-only"])
	}
}
