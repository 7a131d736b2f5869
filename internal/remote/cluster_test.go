package remote

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/oplog"
)

// TestClusterKillFailoverChainContinuity: devices stream segments through
// a 3-server cluster, one server is killed mid-fleet, and every device —
// including the dead server's — finishes its chain through a redial. The
// shared store must show every chain complete and verified, the kill must
// have remapped exactly the dead server's devices, and OnMove must have
// reported each of them before routing could observe the new owner.
func TestClusterKillFailoverChainContinuity(t *testing.T) {
	const devices = 12
	st := NewStore(NewMemStore())
	c := NewCluster(st, ClusterConfig{Servers: 3, PSK: psk})
	defer c.Close()

	var moveMu sync.Mutex
	onMoves := map[uint64][2]int{}
	c.OnMove = func(dev uint64, from, to int) {
		moveMu.Lock()
		onMoves[dev] = [2]int{from, to}
		moveMu.Unlock()
	}

	type devState struct {
		cl    *Client
		blobs [][]byte
		seqs  []uint64
	}
	fleet := map[uint64]*devState{}
	for d := 1; d <= devices; d++ {
		dev := uint64(d)
		cl, err := c.Dial(dev)
		if err != nil {
			t.Fatalf("dial device %d: %v", dev, err)
		}
		blobs, seqs := blobsFor(buildSegments(dev, 6, 4))
		fleet[dev] = &devState{cl: cl, blobs: blobs, seqs: seqs}
		if err := cl.PushSegmentBlobs(blobs[:3], seqs[:3], 2); err != nil {
			t.Fatalf("device %d first half: %v", dev, err)
		}
	}

	victim, ok := c.Owner(1)
	if !ok {
		t.Fatal("device 1 unplaced after dialing")
	}
	victimLoad := c.Spread()[victim]
	moves, err := c.Kill(victim)
	if err != nil {
		t.Fatal(err)
	}
	if len(moves) != victimLoad {
		t.Fatalf("kill moved %d devices, victim owned %d", len(moves), victimLoad)
	}
	for _, m := range moves {
		if m.From != victim {
			t.Fatalf("kill moved device %d off surviving server %d", m.Device, m.From)
		}
		moveMu.Lock()
		got, reported := onMoves[m.Device]
		moveMu.Unlock()
		if !reported || got != [2]int{m.From, m.To} {
			t.Fatalf("OnMove for device %d = %v (reported=%v), want %v", m.Device, got, reported, m)
		}
	}

	// Finish every chain; a device whose session the kill cut redials
	// through the placement-aware factory and lands on the new owner.
	for dev, ds := range fleet {
		err := ds.cl.PushSegmentBlobs(ds.blobs[3:], ds.seqs[3:], 2)
		if err != nil {
			cl, derr := c.Dial(dev)
			if derr != nil {
				t.Fatalf("device %d redial: %v", dev, derr)
			}
			ds.cl = cl
			if err := cl.PushSegmentBlobs(ds.blobs[3:], ds.seqs[3:], 2); err != nil {
				t.Fatalf("device %d push after failover: %v", dev, err)
			}
		}
		ds.cl.Close()
	}

	for d := 1; d <= devices; d++ {
		dev := uint64(d)
		want := uint64(6 * 4)
		if h := st.Head(dev); h.NextSeq != want {
			t.Fatalf("device %d head %d, want %d", dev, h.NextSeq, want)
		}
		if err := oplog.VerifyChain(st.Entries(dev, 0, want), [oplog.HashSize]byte{}); err != nil {
			t.Fatalf("device %d chain after failover: %v", dev, err)
		}
		if owner, _ := c.Owner(dev); owner == victim {
			t.Fatalf("device %d still owned by dead server %d", dev, victim)
		}
	}
	// Guardrails: a dead server cannot die twice, and the last live server
	// is unkillable.
	if _, err := c.Kill(victim); err == nil {
		t.Fatal("second kill of the same server succeeded")
	}
	survivors := 0
	last := -1
	for _, si := range c.Servers() {
		if si.Alive {
			survivors++
			last = si.ID
		}
	}
	if survivors != 2 {
		t.Fatalf("%d survivors, want 2", survivors)
	}
	if _, err := c.Kill(last); err != nil {
		t.Fatalf("killing one of two survivors: %v", err)
	}
	for _, si := range c.Servers() {
		if si.Alive {
			if _, err := c.Kill(si.ID); err == nil {
				t.Fatal("killed the last live server")
			}
		}
	}
}

// TestClusterRebalanceUnderSkew drives the skew detector with synthetic
// ingest windows: one server's accepted wire bytes persistently above its
// peers' must cost it ring weight, and the resulting moves must come only from
// the hot server, closing its moved sessions so devices redial.
func TestClusterRebalanceUnderSkew(t *testing.T) {
	const devices = 64
	st := NewStore(NewMemStore())
	c := NewCluster(st, ClusterConfig{Servers: 4, PSK: psk})
	defer c.Close()

	var moveMu sync.Mutex
	var reported []Move
	c.OnMove = func(dev uint64, from, to int) {
		moveMu.Lock()
		reported = append(reported, Move{Device: dev, From: from, To: to})
		moveMu.Unlock()
	}

	var clients []*Client
	defer func() {
		for _, cl := range clients {
			cl.Close()
		}
	}()
	for d := 1; d <= devices; d++ {
		cl, err := c.Dial(uint64(d))
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, cl)
	}

	hot, _ := c.Owner(1)
	hotBefore := c.Spread()[hot]
	load := func(id int, bytes uint64) { c.Server(id).ingested.bytesWire.Add(bytes) }

	// A window under skewMinBytes is noise, however lopsided.
	load(hot, skewMinBytes-1)
	if moves := c.RebalanceOnIngest(); moves != nil {
		t.Fatalf("rebalanced on a %d-byte window: %v", skewMinBytes-1, moves)
	}
	// Heavy but level load is no skew.
	for id := 0; id < 4; id++ {
		load(id, 1<<20)
	}
	if moves := c.RebalanceOnIngest(); moves != nil {
		t.Fatalf("rebalanced on level load: %v", moves)
	}
	// One hot window: weight cut and shed.
	load(hot, 1<<20)
	moves := c.RebalanceOnIngest()
	if len(moves) == 0 {
		t.Fatal("no rebalance after a hot window")
	}
	for _, m := range moves {
		if m.From != hot {
			t.Fatalf("rebalance moved device %d off cool server %d", m.Device, m.From)
		}
		if owner, _ := c.Owner(m.Device); owner != m.To {
			t.Fatalf("device %d owner %d, move said %d", m.Device, owner, m.To)
		}
	}
	moveMu.Lock()
	nReported := len(reported)
	moveMu.Unlock()
	if nReported != len(moves) {
		t.Fatalf("OnMove reported %d moves, rebalance returned %d", nReported, len(moves))
	}
	if w := weightOf(t, c, hot); w >= 100 {
		t.Fatalf("hot server weight %d, want < 100", w)
	}
	if after := c.Spread()[hot]; after >= hotBefore {
		t.Fatalf("hot server still holds %d devices (was %d)", after, hotBefore)
	}
	// A cool fleet never rebalances: idle windows are quiet.
	for i := 0; i < 4; i++ {
		if moves := c.RebalanceOnIngest(); moves != nil {
			t.Fatalf("idle window rebalanced: %v", moves)
		}
	}
}

func weightOf(t *testing.T, c *Cluster, id int) int {
	t.Helper()
	for _, si := range c.Servers() {
		if si.ID == id {
			return si.Weight
		}
	}
	t.Fatalf("no server %d", id)
	return 0
}

// TestReviveStartsAFreshSkewWindow: a server's skew window is the growth of
// its lifetime ingest BytesWire since the cluster last sampled it. Bytes a
// server accepted before it died are not load on the revived server, so
// the first window after Revive counts none of them — however hot they
// would look — while bytes it accepts after revival count in full.
func TestReviveStartsAFreshSkewWindow(t *testing.T) {
	st := NewStore(NewMemStore())
	// One hot window cuts, and skewMinBytes on one server against idle
	// peers is hot: a window that counted the pre-death bytes could not
	// pass.
	c := NewCluster(st, ClusterConfig{Servers: 3, PSK: psk})
	defer c.Close()

	// push pushes real segments from dev through its owner and returns the
	// owner and the wire bytes the owner acked.
	push := func(cl *Client, dev uint64) (int, uint64) {
		t.Helper()
		blobs, seqs := blobsFor(buildSegments(dev, 8, 8))
		if err := cl.PushSegmentBlobs(blobs, seqs, 4); err != nil {
			t.Fatalf("device %d push: %v", dev, err)
		}
		var wire uint64
		for _, b := range blobs {
			wire += uint64(len(b))
		}
		owner, _ := c.Owner(dev)
		return owner, wire
	}
	cl, err := c.Dial(1)
	if err != nil {
		t.Fatal(err)
	}
	hot, before := push(cl, 1)
	cl.Close()
	if before < skewMinBytes {
		t.Fatalf("device pushed %d wire bytes, under the %d a hot window needs", before, skewMinBytes)
	}
	if got := c.Server(hot).IngestTotals().BytesWire; got != before {
		t.Fatalf("server %d ledgered %d wire bytes, device pushed %d", hot, got, before)
	}
	if _, err := c.Kill(hot); err != nil {
		t.Fatal(err)
	}
	if err := c.Revive(hot); err != nil {
		t.Fatal(err)
	}
	if moves := c.RebalanceOnIngest(); moves != nil || weightOf(t, c, hot) != 100 {
		t.Fatalf("first window after revival cut server %d to weight %d (moves %v): it counted the %d bytes from before its death",
			hot, weightOf(t, c, hot), moves, before)
	}

	// Bytes accepted after revival are load: the next window cuts.
	for dev := uint64(2); ; dev++ {
		cl, err := c.Dial(dev)
		if err != nil {
			t.Fatal(err)
		}
		if owner, _ := c.Owner(dev); owner != hot {
			cl.Close()
			continue
		}
		push(cl, dev)
		cl.Close()
		break
	}
	c.RebalanceOnIngest()
	if w := weightOf(t, c, hot); w >= 100 {
		t.Fatalf("server %d kept weight %d after a window of fresh load against idle peers", hot, w)
	}
	if got := c.Server(hot).IngestTotals().BytesWire; got <= before {
		t.Fatalf("server %d lifetime wire %d, want above the %d before its death", hot, got, before)
	}
}

// TestServerCloseDrainsDecodeLane is the satellite regression: closing a
// server under 8-device pipelined load must drain every session before
// returning — every session deregistered, no segment half-applied (heads
// land on segment boundaries and chains verify), no ingest errors
// ledgered for a clean close, and the store frozen the moment Close
// returns.
func TestServerCloseDrainsDecodeLane(t *testing.T) {
	const devices = 8
	const segs = 64
	const perSeg = 4

	st := NewStore(NewMemStore())
	srv := NewServer(st, psk)

	// Close drains the sessions that exist when it fires; a device that
	// handshakes afterwards is a new session and is served normally. So the
	// test holds every device at a barrier until all of them have a session
	// and one acked window behind them, releases them together, and pulls
	// the plug on an ingest count no device can reach by finishing: the
	// whole fleet is mid-stream by construction, not by wall-clock luck.
	const window = 8
	var ingested atomic.Int64
	midFlight := make(chan struct{})
	st.Subscribe(func(uint64, *oplog.Segment) {
		if ingested.Add(1) == devices*(window+4) {
			close(midFlight)
		}
	})
	var ready, wg sync.WaitGroup
	release := make(chan struct{})
	for d := 0; d < devices; d++ {
		dev := uint64(300 + d)
		ready.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			blobs, seqs := blobsFor(buildSegments(dev, segs, perSeg))
			cl, err := Loopback(srv, psk, dev)
			if err == nil {
				defer cl.Close()
				err = cl.PushSegmentBlobs(blobs[:window], seqs[:window], window)
			}
			ready.Done()
			if err != nil {
				t.Errorf("device %d before Close: %v", dev, err)
				return
			}
			<-release
			// The push dies with a transport error when Close cuts the
			// session mid-stream — that is the scenario under test.
			_ = cl.PushSegmentBlobs(blobs[window:], seqs[window:], window)
		}()
	}
	ready.Wait()
	close(release)
	if t.Failed() {
		wg.Wait()
		t.FailNow()
	}
	<-midFlight
	srv.Close()

	// The drain contract: at return, no session is still tracked and the
	// store is frozen — nothing trickles in afterwards.
	srv.mu.Lock()
	n := len(srv.conns)
	srv.mu.Unlock()
	if n != 0 {
		t.Fatalf("%d sessions still tracked after Close", n)
	}
	headsAt := func() map[uint64]uint64 {
		m := map[uint64]uint64{}
		for d := 0; d < devices; d++ {
			dev := uint64(300 + d)
			m[dev] = st.Head(dev).NextSeq
		}
		return m
	}
	frozen := headsAt()
	wg.Wait() // writers observe their errors and exit
	if after := headsAt(); fmt.Sprint(after) != fmt.Sprint(frozen) {
		t.Fatalf("store advanced after Close returned: %v -> %v", frozen, after)
	}

	var applied uint64
	for d := 0; d < devices; d++ {
		dev := uint64(300 + d)
		head := st.Head(dev).NextSeq
		if head%perSeg != 0 {
			t.Fatalf("device %d head %d is mid-segment: a segment was half-applied", dev, head)
		}
		if err := oplog.VerifyChain(st.Entries(dev, 0, head), [oplog.HashSize]byte{}); err != nil {
			t.Fatalf("device %d chain after close: %v", dev, err)
		}
		applied += head / perSeg
	}
	ist := srv.IngestTotals()
	if ist.Errors != 0 {
		t.Fatalf("ledgered %d ingest errors on a clean close", ist.Errors)
	}
	if ist.Segments != applied {
		t.Fatalf("%d segments ledgered, heads say %d applied", ist.Segments, applied)
	}

	// Close is a drain, not a latch: a fresh session is served normally.
	cl, err := Loopback(srv, psk, 999)
	if err != nil {
		t.Fatalf("post-close dial: %v", err)
	}
	defer cl.Close()
	blobs, seqs := blobsFor(buildSegments(999, 2, 3))
	if err := cl.PushSegmentBlobs(blobs, seqs, 1); err != nil {
		t.Fatalf("post-close push: %v", err)
	}
}

// TestClusterFailoverPreservesDeviceOrder is the failover-ordering
// satellite: a device's link is choked mid-stream (faultconn), its owner
// is killed, and the device resumes at the new owner from the server's
// durable head — the same reconcile core's redial path performs. The
// per-device chain must verify from genesis and the store's subscribers
// must have observed the device's segments in exact chain order, no gap
// and no duplicate, across the kill-over.
func TestClusterFailoverPreservesDeviceOrder(t *testing.T) {
	const dev = uint64(7)
	const segs, perSeg = 10, 4

	st := NewStore(NewMemStore())
	var subMu sync.Mutex
	var observed [][2]uint64 // device dev's (FirstSeq, LastSeq) in arrival order
	st.Subscribe(func(d uint64, seg *oplog.Segment) {
		if d != dev {
			return
		}
		subMu.Lock()
		observed = append(observed, [2]uint64{seg.FirstSeq, seg.LastSeq})
		subMu.Unlock()
	})

	var chokeOnce sync.Once
	cfg := ClusterConfig{Servers: 2, PSK: psk}
	cfg.WrapConn = func(deviceID uint64, nc net.Conn) net.Conn {
		out := nc
		if deviceID == dev {
			// Only the first session is choked; the redial must be clean.
			chokeOnce.Do(func() { out = NewChokeConn(nc, 16) })
		}
		return out
	}
	c := NewCluster(st, cfg)
	defer c.Close()

	cl, err := c.Dial(dev)
	if err != nil {
		t.Fatal(err)
	}
	blobs, seqs := blobsFor(buildSegments(dev, segs, perSeg))
	pushed := 0
	for i := range blobs {
		if _, err := cl.PushSegmentBlob(blobs[i], seqs[i]); err != nil {
			break
		}
		pushed++
	}
	cl.Close()
	if pushed == 0 || pushed == segs {
		t.Fatalf("choke did not cut mid-stream: %d/%d segments acked", pushed, segs)
	}

	oldOwner, ok := c.Owner(dev)
	if !ok {
		t.Fatal("device unplaced")
	}
	if _, err := c.Kill(oldOwner); err != nil {
		t.Fatal(err)
	}

	cl2, err := c.Dial(dev)
	if err != nil {
		t.Fatalf("redial after kill: %v", err)
	}
	defer cl2.Close()
	if newOwner, _ := c.Owner(dev); newOwner == oldOwner {
		t.Fatalf("device still owned by dead server %d", oldOwner)
	}

	// Reconcile exactly as core's redial does: the new server's durable
	// head names the resume point — a mid-stream cut may have landed a
	// segment whose ack died, and re-shipping it would corrupt the order.
	head, err := cl2.Head()
	if err != nil {
		t.Fatal(err)
	}
	if head.NextSeq%perSeg != 0 {
		t.Fatalf("durable head %d is mid-segment", head.NextSeq)
	}
	resume := int(head.NextSeq / perSeg)
	if resume < pushed {
		t.Fatalf("durable head %d below acked frontier %d", resume, pushed)
	}
	if err := cl2.PushSegmentBlobs(blobs[resume:], seqs[resume:], 2); err != nil {
		t.Fatalf("resume push at new owner: %v", err)
	}

	want := uint64(segs * perSeg)
	if h := st.Head(dev); h.NextSeq != want {
		t.Fatalf("head %d, want %d", h.NextSeq, want)
	}
	if err := oplog.VerifyChain(st.Entries(dev, 0, want), [oplog.HashSize]byte{}); err != nil {
		t.Fatalf("chain after kill-over: %v", err)
	}
	subMu.Lock()
	defer subMu.Unlock()
	var next uint64
	for i, fr := range observed {
		if fr[0] != next {
			t.Fatalf("subscriber saw segment %d out of order: FirstSeq %d, want %d (history %v)",
				i, fr[0], next, observed)
		}
		next = fr[1]
	}
	if next != want {
		t.Fatalf("subscribers observed up to seq %d, want %d", next, want)
	}
}
