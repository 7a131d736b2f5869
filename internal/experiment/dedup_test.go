package experiment

import "testing"

// TestDedupRestoreGates runs both restore cohorts at test scale and checks
// what the content-addressed path owes them: every image page-identical,
// every chain intact, less wire than the full-literal stream, and a server
// ledger that served exactly the literal and reference pages the devices
// counted.
func TestDedupRestoreGates(t *testing.T) {
	res, err := DedupRestore(SmallScale(), 2)
	if err != nil {
		t.Fatal(err)
	}
	m := res.Measured
	if !m.AllVerified {
		t.Fatal("a restored image was not page-identical")
	}
	if !m.ChainsOK {
		t.Fatal("an evidence chain failed verification")
	}
	if m.WireRatio <= 0 || m.WireRatio >= 1 {
		t.Fatalf("dedup wire / full wire = %.3f, want in (0, 1)", m.WireRatio)
	}
	if m.ServerPagesLiteral != uint64(m.Dedup.LiteralPages) || m.ServerPagesRef != uint64(m.Dedup.RefPages) {
		t.Fatalf("server ledger %d literal + %d ref, dedup cohort %d + %d",
			m.ServerPagesLiteral, m.ServerPagesRef, m.Dedup.LiteralPages, m.Dedup.RefPages)
	}
	if m.Dedup.RefPages == 0 {
		t.Fatal("the dedup cohort streamed no reference pages")
	}
}
