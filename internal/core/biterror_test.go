package core

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/oplog"
	"repro/internal/remote"
)

// These tests hold the "one SHA-256 pass per page per side of the wire" rule
// to its security claim: the hash a retained version ships under is the one
// the evidence chain bound when the host wrote it, so nothing that happens
// to the bytes between the write and the server's page check — a flash read
// error, a bad GC copy — can be acked as a retained version.

// churnHash is the DataHash churn's write at log sequence seq recorded:
// round k writes fill(k+1) to LPNs 0..lpns-1 at sequences k*lpns onward.
func churnHash(seq uint64, lpns int) [oplog.HashSize]byte {
	return oplog.HashData(fill(byte(seq/uint64(lpns)+1), 512))
}

// TestFlashReadErrorAtSealNeverAcked: every background read flips a bit.
// The server must reject every page-bearing segment, the device must keep
// every pin, and no version may be held under a hash the chain never
// recorded. (Sealing under a hash of the read-back made the flipped bytes
// self-consistent: the server accepted them and the pins were released.)
func TestFlashReadErrorAtSealNeverAcked(t *testing.T) {
	cfg := testConfig()
	cfg.DropWhenOffline = false
	cfg.FTL.NAND.BitErrorProb = 1
	e := newEnv(t, cfg)
	defer e.r.Close()

	const lpns = 4
	at := churn(t, e.r, lpns, 4, 0) // 12 stale versions: past the 11-page high watermark
	e.r.DrainOffload(at)

	for _, p := range e.store.HeldVersions(cfg.DeviceID) {
		if p.Hash != churnHash(p.WriteSeq, lpns) {
			t.Errorf("server holds lpn %d write seq %d under a hash the chain never recorded", p.LPN, p.WriteSeq)
		}
	}
	st := e.r.Stats()
	if st.OffloadErrors == 0 {
		t.Fatalf("no offload was attempted, or flipped pages were accepted: %+v", st)
	}
	var re *remote.RemoteError
	if err := e.r.LastOffloadError(); !errors.As(err, &re) || !strings.Contains(re.Text, "content hash mismatch") {
		t.Fatalf("LastOffloadError = %v, want the server's page-check rejection", err)
	}
	if st.ReleasedPins != 0 || st.OffloadPages != 0 {
		t.Fatalf("%d pins released, %d pages counted offloaded with every read corrupt", st.ReleasedPins, st.OffloadPages)
	}
	if st.RetainedNow != 12 {
		t.Fatalf("%d versions retained, want all 12", st.RetainedNow)
	}
}

// TestFlashReadErrorAtSealRetries is the companion: with a read error on
// some reads only, a rejected batch is requeued, read again, shipped and
// released, and what the server ends up holding is exactly what was written.
func TestFlashReadErrorAtSealRetries(t *testing.T) {
	cfg := testConfig()
	cfg.DropWhenOffline = false
	cfg.FTL.NAND.BitErrorProb = 0.1
	cfg.FTL.NAND.Seed = 2
	e := newEnv(t, cfg)
	defer e.r.Close()

	const lpns = 4
	at := churn(t, e.r, lpns, 4, 0)
	at = e.r.DrainOffload(at)
	if st := e.r.Stats(); st.OffloadErrors == 0 || st.OffloadRetries == 0 {
		t.Fatalf("first batch not rejected: flipped pages accepted, or the seed no longer flips a bit in it (pick another): %+v", st)
	}
	// An unlucky retry is rejected like the first attempt; a drain that makes
	// no progress returns that rejection, and the next one reads again.
	var err error
	for try := 0; try < 20; try++ {
		if at, err = e.r.OffloadNow(at); err == nil {
			break
		}
	}
	if err != nil {
		t.Fatalf("offload never recovered: %v", err)
	}
	st := e.r.Stats()
	if st.RetainedNow != 0 || st.ReleasedPins != 12 || st.LastOffloadError != "" {
		t.Fatalf("after the retries: %d retained, %d released, last error %q", st.RetainedNow, st.ReleasedPins, st.LastOffloadError)
	}
	if flips := e.r.FTL().Device().Stats().BitErrors; flips == 0 {
		t.Fatal("no bit error injected")
	}
	held := e.store.HeldVersions(cfg.DeviceID)
	if len(held) != 12 {
		t.Fatalf("server holds %d versions, want 12", len(held))
	}
	for _, p := range held {
		if p.Hash != churnHash(p.WriteSeq, lpns) {
			t.Errorf("server holds lpn %d write seq %d under a hash the chain never recorded", p.LPN, p.WriteSeq)
		}
		rec, ok := e.store.Version(cfg.DeviceID, p.LPN, p.WriteSeq+1)
		if !ok || oplog.HashData(rec.Data) != p.Hash {
			t.Errorf("lpn %d write seq %d: bytes at rest differ from the bytes written", p.LPN, p.WriteSeq)
		}
	}
}
