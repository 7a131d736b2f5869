package core

import (
	"encoding/binary"
	"errors"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/nvmeoe"
	"repro/internal/oplog"
	"repro/internal/remote"
	"repro/internal/simclock"
)

var errLinkDropped = errors.New("flaky: link dropped")

// flakyConn lets exactly one MsgSegment frame through and then drops the
// link: the server receives and durably stores the segment, but the ack
// never reaches the device — the mid-batch disconnect window between send
// and ack. The frame header is plaintext (magic, version, type), which is
// what the trigger sniffs.
type flakyConn struct {
	net.Conn
	mu        sync.Mutex
	remaining int // writes left to flush the armed frame; -1 = not armed
	dead      bool
}

func newFlakyConn(nc net.Conn) *flakyConn { return &flakyConn{Conn: nc, remaining: -1} }

func (c *flakyConn) Write(p []byte) (int, error) {
	const frameMagic = 0x4E4F4553 // "NOES", see nvmeoe frame header
	c.mu.Lock()
	if c.dead {
		c.mu.Unlock()
		return 0, errLinkDropped
	}
	arm := false
	if c.remaining < 0 {
		if len(p) == 20 && binary.LittleEndian.Uint32(p) == frameMagic && p[5] == byte(nvmeoe.MsgSegment) {
			c.remaining = 2 // ciphertext + MAC still to flush
		}
	} else if c.remaining--; c.remaining == 0 {
		arm = true // this write completes the segment frame
	}
	c.mu.Unlock()
	n, err := c.Conn.Write(p)
	if arm {
		c.mu.Lock()
		c.dead = true
		c.mu.Unlock()
	}
	return n, err
}

func (c *flakyConn) Read(p []byte) (int, error) {
	c.mu.Lock()
	dead := c.dead
	c.mu.Unlock()
	if dead {
		return 0, errLinkDropped
	}
	return c.Conn.Read(p)
}

// TestMidBatchAckLossResumesWithoutDataLoss is the regression test for the
// send-without-ack window: the session dies after the server durably
// stores a segment but before the device receives the ack. The durable
// frontier must NOT advance on the lost ack, and after the engine
// redials, the FetchHead reconcile must adopt the server's head (counting
// it as ResumeGap, not re-shipping a duplicate chain extension) so the
// run ends with zero data loss.
func TestMidBatchAckLossResumesWithoutDataLoss(t *testing.T) {
	cfg := testConfig()
	store := remote.NewStore(remote.NewMemStore())
	// Closed by the first ingested segment: the barrier the reconcile below
	// waits on.
	ingested := make(chan struct{})
	var ingestOnce sync.Once
	store.Subscribe(func(uint64, *oplog.Segment) { ingestOnce.Do(func() { close(ingested) }) })
	srv := remote.NewServer(store, testPSK)
	// The dial gate holds the redial off until the test has asserted the
	// pre-reconcile frontier (a successful redial legitimately adopts the
	// server head, which is exactly what we want to observe separately).
	var gateOpen bool
	cfg.Dial = func() (*remote.Client, error) {
		if !gateOpen {
			return nil, errors.New("gated")
		}
		return remote.Loopback(srv, testPSK, cfg.DeviceID)
	}

	dc, sc := net.Pipe()
	go srv.HandleConn(sc)
	client, err := remote.Dial(newFlakyConn(dc), testPSK, cfg.DeviceID)
	if err != nil {
		t.Fatal(err)
	}
	r := New(cfg, client)
	defer r.Close()

	// Cross the watermark: one segment ships, the server stores it, the
	// ack dies on the wire.
	at := churn(t, r, 4, 4, 0)
	at = r.settle(at)
	st := r.Stats()
	if st.OffloadErrors == 0 || st.LastOffloadError == "" {
		t.Fatalf("ack loss not surfaced: %+v", st)
	}
	if got := r.OffloadedUpTo(); got != 0 {
		t.Fatalf("durable frontier advanced to %d on a lost ack", got)
	}
	// The device saw the drop the instant its read failed; the server
	// session goroutine may still be persisting the segment. Wait for the
	// ingest to land before reconciling against it.
	select {
	case <-ingested:
	case <-time.After(5 * time.Second):
		t.Fatal("test vehicle broken: the segment never reached the server")
	}
	serverHead := store.Head(cfg.DeviceID).NextSeq
	if entries := r.Log().Entries(0, 1); len(entries) != 1 {
		t.Fatal("entries pruned without an ack")
	}

	// More traffic: the background duty cycle redials, reconciles against
	// FetchHead, and re-ships the requeued pins on the new session.
	gateOpen = true
	at = churn(t, r, 4, 1, at.Add(100*simclock.Millisecond)) // past any gate backoff
	at, err = r.OffloadNow(at)
	if err != nil {
		t.Fatal(err)
	}
	st = r.Stats()
	if st.Redials != 1 {
		t.Fatalf("redials = %d, want 1", st.Redials)
	}
	if st.ResumeGap != serverHead {
		t.Fatalf("resume gap = %d, want the %d durable-but-unacked entries", st.ResumeGap, serverHead)
	}
	if st.ReleasedPins > st.OffloadPages {
		t.Fatalf("released pins that never shipped across the disconnect: %+v", st)
	}
	if st.LastOffloadError != "" {
		t.Fatalf("sticky error survived the post-redial ack: %q", st.LastOffloadError)
	}

	// Zero data loss: the remote chain covers the full local history,
	// verifies end to end, and every round's content is still reachable.
	h := store.Head(cfg.DeviceID)
	if h.NextSeq != r.Log().NextSeq() {
		t.Fatalf("remote head %d, local log %d", h.NextSeq, r.Log().NextSeq())
	}
	if err := oplog.VerifyChain(store.Entries(cfg.DeviceID, 0, h.NextSeq), [32]byte{}); err != nil {
		t.Fatalf("chain broken across the disconnect: %v", err)
	}
	// Round k wrote LPNs 0..3 at seqs 4k..4k+3: fills 1..4 from the first
	// churn, then 1 again from the post-disconnect round.
	for round, want := range []byte{1, 2, 3, 4, 1} {
		seq := uint64(4*round) + 1
		data, ws, err := r.VersionBefore(0, seq, at)
		if err != nil || ws != seq-1 || data[0] != want {
			t.Fatalf("round %d version lost: %v write %d got=%d want=%d", round, err, ws, data[0], want)
		}
	}
}

// TestRedialBackoffExponential drives the redial schedule on the simulated
// clock: attempts must back off exponentially from 1 ms, cap at 32 ms,
// resume from FetchHead on success, and leave the sticky LastOffloadError
// in place until the first post-redial ack clears it.
func TestRedialBackoffExponential(t *testing.T) {
	cfg := testConfig()
	store := remote.NewStore(remote.NewMemStore())
	srv := remote.NewServer(store, testPSK)
	// The gap before each retry, in ms: doubling from 1, capped at 32.
	gaps := []simclock.Duration{1, 2, 4, 8, 16, 32, 32}
	dials, failUntil := 0, len(gaps)
	cfg.Dial = func() (*remote.Client, error) {
		dials++
		if dials <= failUntil {
			return nil, errors.New("server unreachable")
		}
		return remote.Loopback(srv, testPSK, cfg.DeviceID)
	}

	broken, err := remote.Loopback(srv, testPSK, cfg.DeviceID)
	if err != nil {
		t.Fatal(err)
	}
	broken.Close() // attached but dead: every push fails
	r := New(cfg, broken)
	defer r.Close()

	// Cross the watermark so staging fails and the session is marked dead.
	at := churn(t, r, 4, 4, 0)
	at = r.settle(at) // applies the failure, then attempts dial #1
	if dials != 1 {
		t.Fatalf("dials after first poll = %d, want 1", dials)
	}
	if r.Stats().LastOffloadError == "" {
		t.Fatal("outage not surfaced")
	}
	t0 := at
	// Attempt k+2 fires at t0 plus the first k+1 gaps; a poll strictly
	// before that boundary must not dial. The last attempt succeeds.
	var next simclock.Duration
	for k, gap := range gaps {
		next += gap * simclock.Millisecond
		r.settle(t0.Add(next - 1))
		if dials != k+1 {
			t.Fatalf("poll at t0+%v: dials = %d, want %d", next-1, dials, k+1)
		}
		r.settle(t0.Add(next))
		if dials != k+2 {
			t.Fatalf("poll at t0+%v: dials = %d, want %d", next, dials, k+2)
		}
	}
	st := r.Stats()
	if want := uint64(len(gaps) + 1); st.RedialAttempts != want || st.Redials != 1 {
		t.Fatalf("attempts/redials = %d/%d, want %d/1", st.RedialAttempts, st.Redials, want)
	}
	// The session is back, resumed from the (empty) server head, but the
	// sticky error stands until a durable ack proves the path healthy.
	if st.ResumeGap != 0 {
		t.Fatalf("resume gap = %d on an empty server", st.ResumeGap)
	}
	if st.LastOffloadError == "" {
		t.Fatal("sticky error cleared by the redial itself, not by an ack")
	}

	at = t0.Add(next + simclock.Millisecond)
	at, err = r.OffloadNow(at)
	if err != nil {
		t.Fatal(err)
	}
	st = r.Stats()
	if st.LastOffloadError != "" {
		t.Fatalf("sticky error survived the first post-redial ack: %q", st.LastOffloadError)
	}
	if st.OffloadSegments == 0 {
		t.Fatal("backlog did not ship after redial")
	}
	if head := store.Head(cfg.DeviceID).NextSeq; head != r.Log().NextSeq() {
		t.Fatalf("remote head %d, local log %d", head, r.Log().NextSeq())
	}
	_ = at
}

// TestRedialWithoutDialFactory: with no Dial configured the old contract
// holds — the session stays dead until a caller attaches a new client.
func TestRedialWithoutDialFactory(t *testing.T) {
	cfg := testConfig()
	store := remote.NewStore(remote.NewMemStore())
	srv := remote.NewServer(store, testPSK)
	broken, err := remote.Loopback(srv, testPSK, cfg.DeviceID)
	if err != nil {
		t.Fatal(err)
	}
	broken.Close()
	r := New(cfg, broken)
	defer r.Close()
	at := churn(t, r, 4, 4, 0)
	at = r.settle(at)
	if st := r.Stats(); st.RedialAttempts != 0 || st.LastOffloadError == "" {
		t.Fatalf("unexpected redial behaviour without a factory: %+v", st)
	}
	good, err := remote.Loopback(srv, testPSK, cfg.DeviceID)
	if err != nil {
		t.Fatal(err)
	}
	defer good.Close()
	r.attachRemote(good)
	if _, err := r.OffloadNow(at); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.LastOffloadError != "" {
		t.Fatalf("manual attach did not recover: %q", st.LastOffloadError)
	}
}

// TestOffloadNowWaitsOutRedialBackoff: an administrator-driven drain that
// hits a dead session with the next redial merely scheduled must wait out
// the backoff in simulated time (Stats().RedialWaitTime) and finish on
// the new session — the path a fleet server failover rides — while a
// permanently unreachable server still surfaces an error in bounded
// simulated time.
func TestOffloadNowWaitsOutRedialBackoff(t *testing.T) {
	cfg := testConfig()
	store := remote.NewStore(remote.NewMemStore())
	srv := remote.NewServer(store, testPSK)
	dials, failUntil := 0, 3
	cfg.Dial = func() (*remote.Client, error) {
		dials++
		if dials <= failUntil {
			return nil, errors.New("server rebooting")
		}
		return remote.Loopback(srv, testPSK, cfg.DeviceID)
	}

	broken, err := remote.Loopback(srv, testPSK, cfg.DeviceID)
	if err != nil {
		t.Fatal(err)
	}
	broken.Close()
	r := New(cfg, broken)
	defer r.Close()

	at := churn(t, r, 4, 4, 0)
	done, err := r.OffloadNow(at)
	if err != nil {
		t.Fatalf("OffloadNow failed instead of waiting out the backoff: %v", err)
	}
	st := r.Stats()
	if st.Redials != 1 || st.RedialAttempts != uint64(failUntil)+1 {
		t.Fatalf("redials/attempts = %d/%d, want 1/%d", st.Redials, st.RedialAttempts, failUntil+1)
	}
	if st.RedialWaitTime <= 0 {
		t.Fatal("no simulated backoff wait was accounted")
	}
	if waited := done.Sub(at); waited < st.RedialWaitTime {
		t.Fatalf("returned clock advanced %v, less than the %v waited", waited, st.RedialWaitTime)
	}
	if head := store.Head(cfg.DeviceID).NextSeq; head != r.Log().NextSeq() {
		t.Fatalf("remote head %d, local log %d after the waited drain", head, r.Log().NextSeq())
	}
	if st.ReleasedPins > st.OffloadPages {
		t.Fatalf("released pins that never shipped across the outage: %+v", st)
	}

	// A cluster with no live server must not wait forever: the drain
	// fails after a bounded number of waited backoffs.
	cfg2 := testConfig()
	cfg2.Dial = func() (*remote.Client, error) {
		return nil, errors.New("no live server")
	}
	broken2, err := remote.Loopback(srv, testPSK, cfg2.DeviceID)
	if err != nil {
		t.Fatal(err)
	}
	broken2.Close()
	r2 := New(cfg2, broken2)
	defer r2.Close()
	at2 := churn(t, r2, 4, 4, 0)
	if _, err := r2.OffloadNow(at2); err == nil {
		t.Fatal("OffloadNow succeeded against a permanently dead cluster")
	}
	if w := r2.Stats().RedialWaitTime; w > maxRedialWaits*32*simclock.Millisecond {
		t.Fatalf("waited %v, beyond the bounded schedule", w)
	}
}

// TestReopenRedialsMidStream cuts Reopen's first session after every read
// count a clean Reopen needs, the last ones inside the multi-frame entries
// stream. Each fetch is an idempotent read, so Reopen redials through
// cfg.Dial, reissues the fetch that failed, and must adopt exactly the state
// a clean Reopen adopts.
func TestReopenRedialsMidStream(t *testing.T) {
	e := newEnv(t, testConfig())
	_, at := driveTraffic(t, e, 3*remote.FrameEntries, 7)
	if _, err := e.r.OffloadNow(at); err != nil {
		t.Fatal(err)
	}
	srv := remote.NewServer(e.store, testPSK)
	cfg := e.r.cfg
	cfg.Dial = func() (*remote.Client, error) { return remote.Loopback(srv, testPSK, cfg.DeviceID) }

	type state struct {
		next     uint64
		held     uint64
		repinned uint64
		seqs     []uint64
		versions [][]versionInfo
		pages    [][]byte
	}
	snapshot := func(r *RSSD) state {
		st := r.Stats()
		s := state{next: r.Log().NextSeq(), held: st.ReopenHeld, repinned: st.ReopenRepinned}
		for lpn := uint64(0); lpn < r.LogicalPages(); lpn++ {
			data, _, err := r.FTL().Read(lpn, at)
			if err != nil {
				t.Fatalf("read lpn %d: %v", lpn, err)
			}
			s.seqs = append(s.seqs, r.writeSeqOf(lpn))
			s.versions = append(s.versions, r.retainedVersions(lpn))
			s.pages = append(s.pages, data)
		}
		return s
	}
	clean, err := cfg.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer clean.Close()
	r0, err := Reopen(cfg, e.r.FTL().Device(), clean)
	if err != nil {
		t.Fatal(err)
	}
	defer r0.Close()
	want := snapshot(r0)

	cutMidStream := false
	for budget := 0; ; budget++ {
		dc, sc := net.Pipe()
		go srv.HandleConn(sc)
		choked, err := remote.Dial(remote.NewChokeConn(dc, budget), testPSK, cfg.DeviceID)
		if err != nil {
			continue // the cut landed inside the handshake
		}
		dials := 0
		cfg2 := cfg
		cfg2.Dial = func() (*remote.Client, error) { dials++; return cfg.Dial() }
		r, err := Reopen(cfg2, e.r.FTL().Device(), choked)
		if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		got := snapshot(r)
		r.Close()
		choked.Close()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("budget %d: reopened state differs from a clean reopen", budget)
		}
		if dials == 0 {
			// The first session lasted the whole Reopen; the budget just
			// below it cut the last fetch, the entries stream.
			break
		}
		cutMidStream = true
	}
	if !cutMidStream {
		t.Fatal("no budget cut the first session")
	}

	// Without a dial factory a cut still fails Reopen.
	dc, sc := net.Pipe()
	go srv.HandleConn(sc)
	choked, err := remote.Dial(remote.NewChokeConn(dc, 6), testPSK, cfg.DeviceID)
	if err != nil {
		t.Fatal(err)
	}
	defer choked.Close()
	cfg.Dial = nil
	if _, err := Reopen(cfg, e.r.FTL().Device(), choked); err == nil {
		t.Fatal("Reopen without a dial factory survived a cut session")
	}
}
