package experiment

import (
	"fmt"
	"strings"
	"testing"
)

// TestSoakShort runs the CI-shaped soak: a compressed horizon at hot
// fault rates, asserting every hard gate the full run commits to.
func TestSoakShort(t *testing.T) {
	res, err := Soak(SmallScale(), SoakOptions{Devices: 3, Servers: 2, Waves: 3, Seed: 1, Short: true})
	if err != nil {
		t.Fatalf("soak failed: %v", err)
	}
	if res.FaultsInjected < soakShortFaults {
		t.Fatalf("only %d faults injected, want >= %d", res.FaultsInjected, soakShortFaults)
	}
	if res.FaultClasses < 3 {
		t.Fatalf("only %d fault classes fired, want >= 3", res.FaultClasses)
	}
	if res.WedgedFaults != 0 {
		t.Fatalf("%d faults wedged", res.WedgedFaults)
	}
	if res.EntriesLost != 0 || res.SegmentsLost != 0 {
		t.Fatalf("durability: %d entries / %d segments lost", res.EntriesLost, res.SegmentsLost)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("invariant violations: %v", res.Violations)
	}
	if res.Restores < 1 {
		t.Fatalf("restores = %d", res.Restores)
	}
	if res.BufpoolDelta != 0 {
		t.Fatalf("bufpool gauge drifted %+d", res.BufpoolDelta)
	}
	if res.ChainsVerified == 0 {
		t.Fatal("no chains verified")
	}
	if res.SimDays <= 0 {
		t.Fatal("soak reported a zero-length horizon")
	}
}

// TestSoakDeterministicReplay re-runs the same seed and requires the
// fault ledger to replay exactly — the reproduce-from-seed contract the
// gate-failure message promises.
func TestSoakDeterministicReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("replay pass doubles the soak; skipped in -short")
	}
	opt := SoakOptions{Devices: 2, Servers: 2, Waves: 3, Seed: 17, Short: true}
	a, err := Soak(SmallScale(), opt)
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	b, err := Soak(SmallScale(), opt)
	if err != nil {
		t.Fatalf("replay run: %v", err)
	}
	if a.FaultsInjected != b.FaultsInjected {
		t.Fatalf("fault schedule diverged across runs of seed %d: %d vs %d injected",
			opt.Seed, a.FaultsInjected, b.FaultsInjected)
	}
	for c := range a.Faults {
		if a.Faults[c].Injected != b.Faults[c].Injected {
			t.Fatalf("class %s diverged: %d vs %d injected",
				a.Faults[c].Class, a.Faults[c].Injected, b.Faults[c].Injected)
		}
	}
	if a.Kills != b.Kills {
		t.Fatalf("kill schedule diverged: %d vs %d", a.Kills, b.Kills)
	}
}

// TestSoakFailedVerdictReturnsRows plants one failing verdict: three waves
// of the full horizon inject far fewer faults than its floor of
// soakMinFaults, so the run must return its whole ledger together with an
// error naming that verdict and the reproducing seed.
func TestSoakFailedVerdictReturnsRows(t *testing.T) {
	opt := SoakOptions{Devices: 2, Servers: 2, Waves: 3, Seed: 5}
	res, err := Soak(SmallScale(), opt)
	if err == nil {
		t.Fatal("a three-wave full-horizon soak passed its fault floor")
	}
	if res == nil || len(res.WaveRows) != opt.Waves || res.ChainsVerified == 0 {
		t.Fatalf("the failed run did not return its rows: %+v", res)
	}
	want := fmt.Sprintf("faults injected, want >= %d", soakMinFaults)
	if len(res.GateFailures) != 1 || !strings.Contains(res.GateFailures[0], want) {
		t.Fatalf("failed verdicts %q, want exactly the fault floor", res.GateFailures)
	}
	if msg := err.Error(); !strings.Contains(msg, want) || !strings.Contains(msg, fmt.Sprintf("-seed %d", opt.Seed)) {
		t.Fatalf("error %q does not name the verdict and the seed", msg)
	}
}
