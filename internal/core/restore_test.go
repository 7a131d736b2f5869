package core

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"

	"repro/internal/oplog"
	"repro/internal/remote"
	"repro/internal/simclock"
)

// TestRestoreImageResumesMidStream power-cycles a device after an attack,
// then restores it through a recovery session that dies mid-stream: the
// restorer must redial, resume from its cursor (the server sees a resumed
// stream, not a second full one), and still produce a page-identical
// pre-attack image.
func TestRestoreImageResumesMidStream(t *testing.T) {
	e := newEnv(t, testConfig())
	oracle, at := driveTraffic(t, e, 150, 9)
	cut := e.r.Log().NextSeq()

	// Post-cut damage standing in for the attack: every page the oracle
	// knows gets scrambled, a couple get trimmed away.
	for lpn := uint64(0); lpn < 10; lpn++ {
		var err error
		if lpn%4 == 3 {
			at, err = e.r.Trim(lpn, at)
		} else {
			at, err = e.r.Write(lpn, fill(0xEE, 512), at)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.r.OffloadNow(at); err != nil {
		t.Fatal(err)
	}

	// Power cycle.
	nandDev := e.r.FTL().Device()
	srv := remote.NewServer(e.store, testPSK)
	clean := func() (*remote.Client, error) { return remote.Loopback(srv, testPSK, 1) }
	client2, err := clean()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client2.Close() })
	r2, err := Reopen(e.r.cfg, nandDev, client2)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()

	// Restore over a recovery session whose first incarnation dies after
	// two chunks: handshake (2 reads) + 2 chunk frames (3 reads each).
	dials := 0
	choked := make(chan struct{}) // closed when the choked session's handler has returned
	dial := func() (*remote.Client, error) {
		dials++
		if dials == 1 {
			dc, sc := net.Pipe()
			go func() {
				defer close(choked)
				srv.HandleConn(sc)
			}()
			// Handshake (2 reads) + two 3-read chunk frames, then drop.
			return remote.Dial(remote.NewChokeConn(dc, 8), testPSK, 1)
		}
		return clean()
	}
	at, rep, err := r2.RestoreImage(cut, RestoreOptions{Dial: dial, ChunkPages: 2}, at)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Resumes == 0 {
		t.Fatal("stream was not interrupted: the test vehicle lost its teeth")
	}
	// The choked session ledgers its stream only when its blocked write
	// fails, on its own goroutine: wait for that handler to return.
	<-choked
	if rs := srv.RecoveryStats(1); rs.Resumes == 0 || rs.Streams < 2 {
		t.Fatalf("server saw no resumed stream (restarted instead?): %+v", rs)
	}
	if rep.RTO <= 0 || rep.Chunks == 0 || rep.BytesWire == 0 {
		t.Fatalf("implausible restore report: %+v", rep)
	}
	if rep.BytesWire >= rep.BytesLogical {
		t.Fatalf("restore wire not compressed: %+v", rep)
	}
	if st := r2.Stats(); st.RestoreBytesWire != rep.BytesWire || st.RestoreBytesLogical != rep.BytesLogical {
		t.Fatalf("device restore counters diverge from report: %+v vs %+v", st, rep)
	}

	// Page-identical to the pre-damage oracle.
	for lpn := uint64(0); lpn < 10; lpn++ {
		data, _, err := r2.Read(lpn, at)
		if err != nil {
			t.Fatalf("read lpn %d: %v", lpn, err)
		}
		want, ok := oracle.live[lpn]
		if !ok {
			if !bytes.Equal(data, make([]byte, 512)) {
				t.Fatalf("lpn %d: want zeroes, got %#x", lpn, data[0])
			}
			continue
		}
		if data[0] != want {
			t.Fatalf("lpn %d = %#x, want %#x", lpn, data[0], want)
		}
	}

	// The restore is evidence-chain honest: recovery entries offload onto
	// the same chain without a break.
	if _, err := r2.OffloadNow(at); err != nil {
		t.Fatal(err)
	}
	h := e.store.Head(1)
	if err := oplog.VerifyChain(e.store.Entries(1, 0, h.NextSeq), [32]byte{}); err != nil {
		t.Fatalf("chain broken after restore: %v", err)
	}
}

// TestRestoreImageGivesUpAfterResumeBudget: when every recovery session dies
// on its first chunk, the restore rides out maxResumes cut streams, fails on
// the next one with the link's error and the count of attempts it made, and
// has waited between them the doubling backoff from 1 ms, capped at 32 ms, in
// simulated time.
func TestRestoreImageGivesUpAfterResumeBudget(t *testing.T) {
	sc := newCutScenario(t, 3)
	srv := remote.NewServer(sc.e.store, testPSK)
	var handlers sync.WaitGroup
	defer handlers.Wait()
	dials := 0
	dial := func() (*remote.Client, error) {
		dials++
		dc, pc := net.Pipe()
		handlers.Add(1)
		go func() {
			defer handlers.Done()
			srv.HandleConn(pc)
		}()
		// The handshake's two reads, then the first chunk frame's fails.
		return remote.Dial(remote.NewChokeConn(dc, 2), testPSK, 1)
	}
	at, rep, err := sc.e.r.RestoreImage(sc.cut, RestoreOptions{Dial: dial, ChunkPages: 2}, sc.at)
	if !errors.Is(err, remote.ErrLinkChoked) {
		t.Fatalf("restore over sessions that all die: err = %v, want %v", err, remote.ErrLinkChoked)
	}
	if want := fmt.Sprintf("gave up after %d attempts", maxResumes+1); !strings.Contains(err.Error(), want) {
		t.Fatalf("restore error %q does not say %q", err, want)
	}
	if dials != maxResumes+1 || rep.Resumes != maxResumes+1 || rep.Chunks != 0 {
		t.Fatalf("dials/resumes/chunks = %d/%d/%d, want %d/%d/0", dials, rep.Resumes, rep.Chunks, maxResumes+1, maxResumes+1)
	}
	if want := (1 + 2 + 4 + 8 + 16 + 32 + 32 + 32) * simclock.Millisecond; at.Sub(sc.at) != want {
		t.Fatalf("simulated wait = %v, want %v", at.Sub(sc.at), want)
	}
}

// TestRestoreFullLiteralStream: without Dedup every streamed page is a
// literal carrying its hash, the restored image is page-identical, and a
// literal whose payload does not match that hash fails the restore instead
// of being re-hashed and written.
func TestRestoreFullLiteralStream(t *testing.T) {
	// Everything is acked before the power cut, so Reopen pins nothing and
	// every rolled-back page comes off the stream.
	shipped := func(seed int64) (*cutScenario, *remote.Server, *RSSD, DialFunc) {
		sc := newCutScenario(t, seed)
		var err error
		if sc.at, err = sc.e.r.OffloadNow(sc.at); err != nil {
			t.Fatal(err)
		}
		srv := remote.NewServer(sc.e.store, testPSK)
		dial := func() (*remote.Client, error) { return remote.Loopback(srv, testPSK, 1) }
		client2, err := dial()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { client2.Close() })
		r2, err := Reopen(sc.e.r.cfg, sc.e.r.FTL().Device(), client2)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(r2.Close)
		return sc, srv, r2, dial
	}

	sc, srv, r2, dial := shipped(4)
	at, rep, err := r2.RestoreImage(sc.cut, RestoreOptions{Dial: dial, ChunkPages: 3}, sc.at)
	if err != nil {
		t.Fatal(err)
	}
	sc.checkImage(t, r2, at)
	rs := srv.RecoveryStats(1)
	if rs.Pages == 0 || rep.PagesRef != 0 || uint64(rep.PagesLiteral) != rs.Pages || rs.PagesRef != 0 {
		t.Fatalf("streamed %d pages: report %d literal + %d ref, server %d literal + %d ref",
			rs.Pages, rep.PagesLiteral, rep.PagesRef, rs.PagesLiteral, rs.PagesRef)
	}
	if rep.PagesRestored == 0 || rep.Anchor != 0 {
		t.Fatalf("implausible full-image restore: %+v", rep)
	}

	// The same restore with one retained version rotted in the server's
	// memory: the bytes no longer match the hash they are served with.
	sc, _, r2, dial = shipped(4)
	victim := ^uint64(0)
	for lpn := uint64(0); lpn < 10 && victim == ^uint64(0); lpn++ {
		if rec, ok := sc.e.store.Version(1, lpn, sc.cut); ok {
			rec.Data[0] ^= 0xFF // the index's own copy
			victim = lpn
		}
	}
	if victim == ^uint64(0) {
		t.Fatal("no streamed version to corrupt: the test vehicle lost its teeth")
	}
	logged := r2.Log().NextSeq()
	_, rep, err = r2.RestoreImage(sc.cut, RestoreOptions{Dial: dial, ChunkPages: 3}, sc.at)
	if err == nil || !strings.Contains(err.Error(), "content hash") {
		t.Fatalf("restore of a corrupted literal: err=%v, report %+v", err, rep)
	}
	// A chunk is verified whole before any of it is applied, and the stream
	// is in LPN order: nothing at or past the rotted page was touched.
	for _, e := range r2.Log().All() {
		if e.Seq >= logged && e.LPN >= victim {
			t.Fatalf("the failed chunk reached the device: %v of lpn %d logged at %d", e.Kind, e.LPN, e.Seq)
		}
	}
}

// TestRestoreImageRequiresDial: the restorer owns its sessions; without a
// factory it refuses rather than silently degrading to the offload client.
func TestRestoreImageRequiresDial(t *testing.T) {
	e := newEnv(t, testConfig())
	if _, _, err := e.r.RestoreImage(1, RestoreOptions{}, 0); err != ErrNoDial {
		t.Fatalf("err = %v, want ErrNoDial", err)
	}
}
