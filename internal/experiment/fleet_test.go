package experiment

import "testing"

// TestFleetScenario runs the full fleet — 8 devices, concurrent sessions,
// streaming detection — at test scale and checks the acceptance
// properties: every attacked device caught and no false alerts on benign
// traffic.
func TestFleetScenario(t *testing.T) {
	res, err := Fleet(SmallScale(), 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Summary
	if s.Devices != 8 || len(res.Rows) != 8 {
		t.Fatalf("fleet size %d/%d, want 8", s.Devices, len(res.Rows))
	}
	if s.Attacked == 0 || s.Caught != s.Attacked {
		t.Fatalf("detection coverage %d/%d attacked devices", s.Caught, s.Attacked)
	}
	if s.FalseAlerts != 0 {
		t.Fatalf("%d false alerts on benign fleet traffic", s.FalseAlerts)
	}
	if s.Segments == 0 {
		t.Fatal("fleet shipped no segments")
	}
	if s.MeanLatUs <= 0 {
		t.Fatalf("latency not measured: %+v", s)
	}
	for _, r := range res.Rows {
		if r.Records == 0 || r.PageOps == 0 {
			t.Fatalf("device %d did no work: %+v", r.Device, r)
		}
		if r.Segments == 0 {
			t.Fatalf("device %d shipped nothing: %+v", r.Device, r)
		}
	}
}
