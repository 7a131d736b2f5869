package experiment

import (
	"sync"
	"testing"

	"repro/internal/netsim"
)

// fleetRecoverySmall is the CI-sized fleet power-cycle recovery run — 2
// devices (one attacked), concurrent dedup + delta restore, one
// deliberately cut recovery link, verified rollback, an outage-drain with
// redial — run once for the tests below.
var fleetRecoverySmall = sync.OnceValues(func() (*RecoveryFleetResult, error) {
	return FleetRecovery(SmallScale(), 2, netsim.Config{})
})

// TestFleetRecoveryScenario checks the run's shape: detection, concurrency,
// the cut-and-resumed stream, timing, the shared-NIC ledger, the drain.
func TestFleetRecoveryScenario(t *testing.T) {
	res, err := fleetRecoverySmall()
	if err != nil {
		t.Fatal(err)
	}
	s := res.Summary
	if s.Devices != 2 || s.Attacked != 1 {
		t.Fatalf("fleet shape: %+v", s)
	}
	if s.Caught != s.Attacked {
		t.Fatalf("attacks caught %d/%d", s.Caught, s.Attacked)
	}
	if s.FalseAlerts != 0 {
		t.Fatalf("false alerts: %d", s.FalseAlerts)
	}
	if !s.AllVerified {
		t.Fatal("restored images not page-identical to the pre-attack state")
	}
	if s.Resumes == 0 {
		t.Fatal("the choked device never resumed a cut stream")
	}
	if s.MaxRTOms <= 0 || s.RestoreGBps <= 0 {
		t.Fatalf("implausible restore timing: %+v", s)
	}
	if s.WireRatio <= 1 {
		t.Fatalf("restore traffic not compressed: ratio %.2f", s.WireRatio)
	}
	if s.PeakSessions != 2 {
		t.Fatalf("restores were not concurrent: peak sessions %d", s.PeakSessions)
	}
	if s.TotalRedials < uint64(s.Devices) {
		t.Fatalf("outage did not exercise redial on every device: %d", s.TotalRedials)
	}
	if !s.QoS {
		t.Fatal("default run did not use strict-priority QoS on the shared NIC")
	}
	if s.NICStats[netsim.ClassRestore].Grants == 0 || s.NICStats[netsim.ClassOffload].Grants == 0 {
		t.Fatalf("shared NIC ledger missing a traffic class: %+v", s.NICStats)
	}
	for _, r := range res.Rows {
		if r.SnapshotPages == 0 || !r.Verified {
			t.Fatalf("device %d: %+v", r.Device, r)
		}
		if r.RestoredPages == 0 {
			t.Fatalf("device %d restored nothing (no rollback work): %+v", r.Device, r)
		}
	}
}

// TestFleetRecoveryDedup checks what the content-addressed restore path —
// hash-reference chunks, resolve cache, checkpoint-anchored delta — owes the
// same run: page-identical images, intact chains, an anchor on every device.
func TestFleetRecoveryDedup(t *testing.T) {
	res, err := fleetRecoverySmall()
	if err != nil {
		t.Fatal(err)
	}
	s := res.Summary
	if !s.AllVerified {
		t.Fatal("dedup-restored images not page-identical to the pre-attack state")
	}
	if !s.ChainsVerified {
		t.Fatal("evidence chains failed verification after dedup restore")
	}
	if s.Resumes == 0 {
		t.Fatal("the choked device never resumed a cut dedup stream")
	}
	if s.LiteralPages == 0 {
		t.Fatal("dedup stream carried no literal pages")
	}
	for _, r := range res.Rows {
		if r.AnchorSeq == 0 {
			t.Fatalf("device %d restored without a checkpoint anchor: %+v", r.Device, r)
		}
		if !r.Verified {
			t.Fatalf("device %d not verified: %+v", r.Device, r)
		}
	}
}
