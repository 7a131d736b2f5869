package remote

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bufpool"
	"repro/internal/nvmeoe"
	"repro/internal/oplog"
)

// blobsFor codec-frames a device's segments the way the wire carries them,
// returning the blobs alongside each segment's LastSeq for ack matching.
func blobsFor(segs []*oplog.Segment) (blobs [][]byte, lastSeqs []uint64) {
	for _, seg := range segs {
		blobs = append(blobs, nvmeoe.EncodeSegmentBlob(seg.Marshal()))
		lastSeqs = append(lastSeqs, seg.LastSeq)
	}
	return blobs, lastSeqs
}

// TestDecodeLaneOrderingUnderConcurrentIngest is the session-handler
// contract test: a fleet of pipelined clients pushes over net.Pipe sessions
// into one server, whose handlers ingest into the shared store
// concurrently. Per-device ordering must survive — every chain verifies
// from genesis, and the streaming subscriber sees each device's segments in
// ingest order — and a checkpoint sent after the burst must observe all of
// it (the handler serves frames in wire order).
func TestDecodeLaneOrderingUnderConcurrentIngest(t *testing.T) {
	const devices = 8
	const segsPerDevice = 16
	const window = 8

	st := NewStore(NewMemStore())
	srv := NewServer(st, psk)

	var subMu sync.Mutex
	delivered := map[uint64][]uint64{}
	st.Subscribe(func(deviceID uint64, seg *oplog.Segment) {
		subMu.Lock()
		delivered[deviceID] = append(delivered[deviceID], seg.FirstSeq)
		subMu.Unlock()
	})

	baseline := runtime.NumGoroutine()
	errc := make(chan error, devices)
	var wg sync.WaitGroup
	var wireSent atomic.Uint64
	for d := 0; d < devices; d++ {
		deviceID := uint64(200 + d)
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl, err := Loopback(srv, psk, deviceID)
			if err != nil {
				errc <- err
				return
			}
			defer cl.Close()
			blobs, lastSeqs := blobsFor(buildSegments(deviceID, segsPerDevice, 8))
			for _, b := range blobs {
				wireSent.Add(uint64(len(b)))
			}
			if err := cl.PushSegmentBlobs(blobs, lastSeqs, window); err != nil {
				errc <- fmt.Errorf("device %d: %w", deviceID, err)
				return
			}
			// Ordered after the pipelined burst on the same wire: every
			// pushed segment must be visible first.
			if err := cl.PushCheckpoint(&nvmeoe.Checkpoint{Seq: 1, WriteSeqs: []uint64{deviceID}}); err != nil {
				errc <- fmt.Errorf("device %d checkpoint: %w", deviceID, err)
				return
			}
			h, err := cl.Head()
			if err != nil {
				errc <- fmt.Errorf("device %d head: %w", deviceID, err)
				return
			}
			if want := uint64(segsPerDevice * 8); h.NextSeq != want {
				errc <- fmt.Errorf("device %d head after burst = %d, want %d", deviceID, h.NextSeq, want)
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	want := uint64(segsPerDevice * 8)
	for d := 0; d < devices; d++ {
		deviceID := uint64(200 + d)
		if h := st.Head(deviceID); h.NextSeq != want {
			t.Fatalf("device %d head %d, want %d", deviceID, h.NextSeq, want)
		}
		if err := oplog.VerifyChain(st.Entries(deviceID, 0, want), [oplog.HashSize]byte{}); err != nil {
			t.Fatalf("device %d chain: %v", deviceID, err)
		}
		subMu.Lock()
		seqs := delivered[deviceID]
		subMu.Unlock()
		if len(seqs) != segsPerDevice {
			t.Fatalf("device %d: subscriber saw %d segments, want %d", deviceID, len(seqs), segsPerDevice)
		}
		for i := 1; i < len(seqs); i++ {
			if seqs[i] <= seqs[i-1] {
				t.Fatalf("device %d: out-of-order delivery %v", deviceID, seqs)
			}
		}
	}
	if ist, want := srv.IngestTotals(), (IngestStats{Segments: devices * segsPerDevice, BytesWire: wireSent.Load()}); ist != want {
		t.Fatalf("ingest stats %+v, want %+v", ist, want)
	}
	// An idle server keeps no goroutine: every session's reader and handler
	// are gone once Server.Close returns and their last defers have run.
	srv.Close()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before the first dial", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDecodeLaneErrorKeepsSession: a rejected segment (chain gap) ledgered
// as an error must not kill the session — the device resyncs and pushes the
// missing prefix on the same connection.
func TestDecodeLaneErrorKeepsSession(t *testing.T) {
	st := NewStore(NewMemStore())
	srv := NewServer(st, psk)
	cl, err := Loopback(srv, psk, 13)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	blobs, lastSeqs := blobsFor(buildSegments(13, 3, 5))
	// Gap: segment 2 before segments 0 and 1.
	var re *RemoteError
	if err := cl.PushSegmentBlobs(blobs[2:], lastSeqs[2:], 1); !errors.As(err, &re) || re.Code != CodeBadData {
		t.Fatalf("gap push err = %v", err)
	}
	// Same session recovers with the full ordered chain.
	if err := cl.PushSegmentBlobs(blobs, lastSeqs, 2); err != nil {
		t.Fatalf("resync push: %v", err)
	}
	ist := srv.IngestTotals()
	if ist.Errors != 1 || ist.Segments != 3 {
		t.Fatalf("ingest stats after resync %+v", ist)
	}
}

// TestServerDecodeSteadyStateAllocs pins ingest's codec step — wire blob to
// logical segment bytes in a pooled buffer — at zero allocations per
// operation once warm, for both deflated and stored frames.
func TestServerDecodeSteadyStateAllocs(t *testing.T) {
	if bufpool.RaceEnabled {
		t.Skip("race instrumentation allocates; alloc assertions run in the non-race job")
	}
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"deflate", compressiblePage(16 << 10)},
		{"stored", incompressiblePage(16<<10, 0)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			seg := buildSegments(1, 1, 1)[0]
			seg.Pages[0].Data = tc.data
			seg.Pages[0].Hash = oplog.HashData(tc.data)
			blob := nvmeoe.EncodeSegmentBlob(seg.Marshal())
			buf := bufpool.Get(nvmeoe.SegmentBlobLogicalSize(blob))
			defer buf.Release()
			if n := testing.AllocsPerRun(50, func() {
				if _, err := decodeBlob(buf, blob); err != nil {
					t.Fatal(err)
				}
			}); n != 0 {
				t.Errorf("decodeBlob(%s): %v allocs/op, want 0", tc.name, n)
			}
		})
	}
}

// failWriteConn fails every Write once failing is set: a link whose send
// side died while its receive side still delivers.
type failWriteConn struct {
	net.Conn
	failing atomic.Bool
}

func (c *failWriteConn) Write(p []byte) (int, error) {
	if c.failing.Load() {
		return 0, errors.New("injected write failure")
	}
	return c.Conn.Write(p)
}

// TestAckFailureDrainsSessionQueue: when a segment's ack cannot be written,
// the session closes its conn and serves nothing its reader queued behind
// the failure. The reader is blocked on a full queue at that moment and must
// get out, so HandleConn returns; the store holds a prefix of the chain,
// every segment up to the failed ack and none after it.
func TestAckFailureDrainsSessionQueue(t *testing.T) {
	const dev, failAt = 41, 5
	blobs, lastSeqs := blobsFor(buildSegments(dev, failAt+sessionQueueDepth+8, 1))
	st := NewStore(NewMemStore())
	srv := NewServer(st, psk)
	baseline := runtime.NumGoroutine()
	dc, sc := net.Pipe()
	fc := &failWriteConn{Conn: sc}
	ingested := 0
	st.Subscribe(func(uint64, *oplog.Segment) {
		if ingested++; ingested != failAt {
			return
		}
		fc.failing.Store(true)
		// Hold the handler until the queue is full and the reader holds the
		// next frame: backlog = queue + this frame + the reader's.
		for deadline := time.Now().Add(10 * time.Second); srv.queueDepth.Load() < sessionQueueDepth+2 && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
	})
	handled := make(chan struct{})
	go func() {
		srv.HandleConn(fc)
		close(handled)
	}()
	cl, err := Dial(dc, psk, dev)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// The device pushes without waiting for acks; a second goroutine reads
	// them, so only the failed write stops the handler.
	wrote, acked := make(chan int, 1), make(chan int, 1)
	go func() {
		n := 0
		for _, b := range blobs {
			if cl.conn.WriteMsg(nvmeoe.MsgSegment, b) != nil {
				break
			}
			n++
		}
		wrote <- n
	}()
	go func() {
		n := 0
		for {
			typ, _, err := cl.conn.ReadMsg()
			if err != nil {
				break
			}
			if typ == nvmeoe.MsgSegmentAck {
				n++
			}
		}
		acked <- n
	}()
	select {
	case <-handled:
	case <-time.After(10 * time.Second):
		t.Fatal("session still running after its ack write failed: reader blocked on a full queue")
	}
	if n := <-wrote; n >= len(blobs) {
		t.Fatalf("device wrote all %d segments into a dead session", n)
	}
	if n := <-acked; n != failAt-1 {
		t.Fatalf("device read %d acks, want %d", n, failAt-1)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the session ended, %d before: the reader is still blocked", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
	if peak := srv.QueuePeak(); peak != sessionQueueDepth+2 {
		t.Fatalf("decode backlog peaked at %d, want a full queue (%d)", peak, sessionQueueDepth+2)
	}
	if d := srv.queueDepth.Load(); d != 0 {
		t.Fatalf("decode backlog %d after the session ended", d)
	}
	want := lastSeqs[failAt-1]
	if h := st.Head(dev); h.NextSeq != want {
		t.Fatalf("store head %d, want %d: the chain up to the failed ack", h.NextSeq, want)
	}
	if err := oplog.VerifyChain(st.Entries(dev, 0, want), [oplog.HashSize]byte{}); err != nil {
		t.Fatal(err)
	}
	if ist := srv.IngestTotals(); ist.Segments != failAt || ist.Errors != 0 {
		t.Fatalf("ingest stats %+v, want %d segments", ist, failAt)
	}
}

func compressiblePage(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + i%17)
	}
	return b
}

// incompressiblePage is n bytes of xorshift noise, distinct per seed:
// content no code shrinks and no other seed repeats.
func incompressiblePage(n int, seed uint64) []byte {
	b := make([]byte, n)
	x := (seed + 1) * 0x9e3779b97f4a7c15
	for i := range b {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		b[i] = byte(x)
	}
	return b
}
