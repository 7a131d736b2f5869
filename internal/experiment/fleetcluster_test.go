package experiment

import "testing"

// TestFleetClusterScenario runs the fleet at test scale: 12 devices over 3
// servers, one server killed at the one-third mark of every device's
// replay. It checks the acceptance properties end to end — every device
// replayed, shipped and was measured, zero entries or segments lost across
// the kill, every chain verified, detection still catching every attacked
// device with state handed off across engines, and a monotone modeled
// scaling curve.
func TestFleetClusterScenario(t *testing.T) {
	const devices, servers = 12, 3
	res, err := Fleet(SmallScale(), devices, servers)
	if err != nil {
		t.Fatal(err)
	}
	sum := res.Summary
	if sum.Attacked == 0 || sum.Caught != sum.Attacked {
		t.Fatalf("detection coverage %d/%d attacked devices across failover", sum.Caught, sum.Attacked)
	}
	if sum.FalseAlerts != 0 {
		t.Fatalf("%d false alerts on benign fleet traffic", sum.FalseAlerts)
	}
	if sum.Segments == 0 {
		t.Fatal("fleet shipped no segments")
	}
	if sum.MeanLatUs <= 0 {
		t.Fatalf("latency not measured: %+v", sum)
	}
	if len(res.Rows) != devices {
		t.Fatalf("%d device rows, want %d", len(res.Rows), devices)
	}
	for _, r := range res.Rows {
		if r.Records == 0 || r.PageOps == 0 || r.Segments == 0 {
			t.Fatalf("device %d did no work: %+v", r.Device, r)
		}
	}

	c := res.Cluster
	f := c.Failover
	if f.KilledServer < 0 || f.KilledServer >= servers {
		t.Fatalf("no server was killed: %+v", f)
	}
	if f.DevicesRemapped == 0 || f.Handoffs != f.DevicesRemapped {
		t.Fatalf("failover moved %d devices but handed off %d detection states", f.DevicesRemapped, f.Handoffs)
	}
	if f.SegmentsLost != 0 || f.EntriesLost != 0 {
		t.Fatalf("durability broken across the kill: %d segments / %d entries lost", f.SegmentsLost, f.EntriesLost)
	}
	if f.ChainsVerified != devices {
		t.Fatalf("%d chains verified, want %d", f.ChainsVerified, devices)
	}
	if f.Redials == 0 {
		t.Fatal("the dead server's devices never redialed")
	}

	deadRows := 0
	for _, sr := range c.ServerRows {
		if !sr.Alive {
			deadRows++
			if sr.Server != f.KilledServer {
				t.Fatalf("server %d dead but %d was killed", sr.Server, f.KilledServer)
			}
			if sr.Devices != 0 {
				t.Fatalf("dead server %d still holds %d devices", sr.Server, sr.Devices)
			}
		}
		if sr.Errors != 0 {
			t.Fatalf("server %d ledgered %d ingest errors", sr.Server, sr.Errors)
		}
	}
	if deadRows != 1 {
		t.Fatalf("%d dead servers, want exactly 1", deadRows)
	}

	if len(c.Curve) != 3 { // servers=3 -> curve at 1, 2, 3
		t.Fatalf("curve has %d points: %+v", len(c.Curve), c.Curve)
	}
	for i, p := range c.Curve {
		if p.Segments == 0 || p.ModelSegsPerSec <= 0 {
			t.Fatalf("curve point %+v did no work", p)
		}
		// The tight 1.3 spread gate lives in the placement tests at
		// 512 devices / 8 servers; a 12-device fleet rounds too hard
		// (cap ceil(1.1*12/3) = 5 over 3 servers allows 5/3).
		if p.SpreadMaxMin > 3 {
			t.Fatalf("curve point %d servers: spread %.3f", p.Servers, p.SpreadMaxMin)
		}
		// The curve's devices are placed in device-ID order before any of
		// them pushes (fleetScaleCurve), so the modeled curve is the same on
		// every run: 1.0 / 1.5 / 2.0 here, and each server added must
		// raise it by at least a tenth.
		if i > 0 && p.ModelScaleUp < 1.1*c.Curve[i-1].ModelScaleUp {
			t.Fatalf("modeled scaling regressed at %d servers: %+v", p.Servers, c.Curve)
		}
	}
	if c.ModelScaleUp < 1.5 {
		t.Fatalf("modeled scale-up %.2fx at %d servers, want >= 1.5x", c.ModelScaleUp, servers)
	}
}
