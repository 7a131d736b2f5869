package core

import (
	"bytes"
	"testing"

	"repro/internal/oplog"
	"repro/internal/simclock"
)

// A write whose log entry dies in RAM leaves its page on flash: Reopen rolls
// it back and resumes the log at the head, so the write's sequence s is issued
// again while the page still carries it. At the next power cycle that orphan
// claims a committed sequence; it is a version only if entry s wrote its LPN
// with its content (the witness), and a version is adopted once. Each test
// below writes LPN 0 = A and drains, writes LPN 0 = B and loses the entry,
// power-cycles, reissues s as the given write, drains and power-cycles again
// — with the log alone, and with a checkpoint after s that names the reissued
// write live, so the table would vouch for the orphan too.
type orphanCase struct {
	lpn  uint64 // the write s is issued to again
	fill byte   // its content
}

const (
	orphanA = 0xAA
	orphanB = 0xBB
	orphanC = 0xCC
)

// reissuedSequence runs the case and returns the device after the second
// power cycle, the reissued sequence and the time.
func reissuedSequence(t *testing.T, c orphanCase, checkpoint bool) (*RSSD, uint64, simclock.Time) {
	t.Helper()
	e := newEnv(t, testConfig())
	at, err := e.r.Write(0, fill(orphanA, 512), 0)
	if err != nil {
		t.Fatal(err)
	}
	if at, err = e.r.OffloadNow(at); err != nil {
		t.Fatal(err)
	}
	s := e.r.Log().NextSeq()
	if at, err = e.r.Write(0, fill(orphanB, 512), at); err != nil { // its entry dies in RAM
		t.Fatal(err)
	}
	lost := e.r
	e.r, _ = powerCycle(t, e)
	lost.Close()
	if got := e.r.Log().NextSeq(); got != s {
		t.Fatalf("reopened log resumes at %d, want the lost write's %d", got, s)
	}
	if at, err = e.r.Write(c.lpn, fill(c.fill, 512), at); err != nil {
		t.Fatal(err)
	}
	if checkpoint {
		if at, err = e.r.CheckpointNow(at); err != nil {
			t.Fatal(err)
		}
	}
	if at, err = e.r.OffloadNow(at); err != nil {
		t.Fatal(err)
	}
	r, _ := powerCycle(t, e)
	e.r.Close()
	if st := r.Stats(); st.ReopenRepinned != 0 || st.RetainedNow != 0 {
		t.Fatalf("after a drained shutdown: %d re-pinned, %d retained; want 0 and 0", st.ReopenRepinned, st.RetainedNow)
	}
	if _, err := r.OffloadNow(at); err != nil {
		t.Fatal(err)
	}
	if err := oplog.VerifyChain(e.store.Entries(1, 0, e.store.Head(1).NextSeq), [32]byte{}); err != nil {
		t.Fatal(err)
	}
	return r, s, at
}

// wantVersion checks what lpn held just before the cut.
func wantVersion(t *testing.T, r *RSSD, lpn, before uint64, at simclock.Time, seq uint64, content byte) {
	t.Helper()
	data, got, err := r.VersionBefore(lpn, before, at)
	if err != nil {
		t.Fatal(err)
	}
	if got != seq || !bytes.Equal(data, fill(content, 512)) {
		t.Fatalf("lpn %d before %d: write %d holding %#x, want write %d holding %#x", lpn, before, got, data[0], seq, content)
	}
}

func wantRead(t *testing.T, r *RSSD, lpn uint64, at simclock.Time, content byte) {
	t.Helper()
	data, _, err := r.Read(lpn, at)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, fill(content, 512)) {
		t.Fatalf("lpn %d reads %#x, want %#x", lpn, data[0], content)
	}
}

func forEachAnchor(t *testing.T, run func(t *testing.T, checkpoint bool)) {
	for _, checkpoint := range []bool{false, true} {
		name := "log"
		if checkpoint {
			name = "checkpoint"
		}
		t.Run(name, func(t *testing.T) { run(t, checkpoint) })
	}
}

// TestReopenDiscardsOrphanOfSameLPN: s went to LPN 0 again with other bytes.
// Both pages claim LPN 0's live write; the one the chain records wins.
func TestReopenDiscardsOrphanOfSameLPN(t *testing.T) {
	forEachAnchor(t, func(t *testing.T, checkpoint bool) {
		r, s, at := reissuedSequence(t, orphanCase{0, orphanC}, checkpoint)
		wantRead(t, r, 0, at, orphanC)
		wantVersion(t, r, 0, s+1, at, s, orphanC)
		wantVersion(t, r, 0, s, at, s-1, orphanA)
	})
}

// TestReopenDiscardsOrphanOfOtherLPN: s went to LPN 1. The orphan is no
// version of LPN 0, which the chain says was never written at s.
func TestReopenDiscardsOrphanOfOtherLPN(t *testing.T) {
	forEachAnchor(t, func(t *testing.T, checkpoint bool) {
		r, s, at := reissuedSequence(t, orphanCase{1, orphanC}, checkpoint)
		wantRead(t, r, 0, at, orphanA)
		wantRead(t, r, 1, at, orphanC)
		wantVersion(t, r, 0, s+1, at, s-1, orphanA)
		for _, v := range r.retainedVersions(0) {
			if v.WriteSeq == s {
				t.Fatalf("lpn 0 retains a version at %d, which wrote lpn 1", s)
			}
		}
	})
}

// TestReopenAdoptsOneOfIdenticalTwins: s went to LPN 0 again with the same
// bytes. Both pages are the version the chain records; one is adopted.
func TestReopenAdoptsOneOfIdenticalTwins(t *testing.T) {
	forEachAnchor(t, func(t *testing.T, checkpoint bool) {
		r, s, at := reissuedSequence(t, orphanCase{0, orphanB}, checkpoint)
		wantRead(t, r, 0, at, orphanB)
		wantVersion(t, r, 0, s+1, at, s, orphanB)
	})
}
