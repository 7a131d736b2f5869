package experiment

import "testing"

// TestRetentionTiers runs the tier comparison at test scale: every backend
// must carry the fleet workload with detection intact, ship compressed
// wire bytes, and survive a settled reload; the cloud tier must addition-
// ally price the run.
func TestRetentionTiers(t *testing.T) {
	rows, err := Retention(SmallScale(), 2, RetentionBackends)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(RetentionBackends) {
		t.Fatalf("rows = %d, want %d", len(rows), len(RetentionBackends))
	}
	for _, r := range rows {
		if r.Segments == 0 {
			t.Fatalf("%s: no segments ingested", r.Backend)
		}
		if r.BytesStored >= r.BytesLogical {
			t.Fatalf("%s: stored %d >= logical %d — compressed wire missing", r.Backend, r.BytesStored, r.BytesLogical)
		}
		if r.Caught != r.Attacked {
			t.Fatalf("%s: caught %d of %d attacks", r.Backend, r.Caught, r.Attacked)
		}
		if r.FalseAlerts != 0 {
			t.Fatalf("%s: %d false alerts", r.Backend, r.FalseAlerts)
		}
		if !r.ReloadOK {
			t.Fatalf("%s: settled reload failed to rebuild chain heads", r.Backend)
		}
		if r.BudgetDays <= 0 {
			t.Fatalf("%s: budget days = %v", r.Backend, r.BudgetDays)
		}
		switch r.Backend {
		case "s3sim":
			if r.TierPutMs <= 0 || r.RequestUSD <= 0 || r.StorageUSDMonth <= 0 {
				t.Fatalf("s3sim cost/latency model silent: %+v", r)
			}
		default:
			if r.TierPutMs != 0 || r.RequestUSD != 0 || r.StorageUSDMonth != 0 {
				t.Fatalf("%s: free local tier accrued cloud cost: %+v", r.Backend, r)
			}
		}
	}
}
