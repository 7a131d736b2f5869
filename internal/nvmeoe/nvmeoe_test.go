package nvmeoe

import (
	"bytes"
	"crypto/rand"
	"errors"
	"net"
	"testing"
	"testing/quick"

	"repro/internal/oplog"
)

var testPSK = []byte("device-0001-enrollment-key-32byt")

// pipePair establishes an authenticated session over net.Pipe, returning
// (device, server) conns.
func pipePair(t testing.TB) (*Conn, *Conn) {
	t.Helper()
	dc, sc := net.Pipe()
	type srvResult struct {
		conn *Conn
		id   uint64
		err  error
	}
	ch := make(chan srvResult, 1)
	go func() {
		conn, id, err := ServerHandshake(sc, func(uint64) ([]byte, bool) { return testPSK, true })
		ch <- srvResult{conn, id, err}
	}()
	dev, err := DeviceHandshake(dc, testPSK, 42)
	if err != nil {
		t.Fatalf("device handshake: %v", err)
	}
	res := <-ch
	if res.err != nil {
		t.Fatalf("server handshake: %v", res.err)
	}
	if res.id != 42 {
		t.Fatalf("server saw device %d, want 42", res.id)
	}
	t.Cleanup(func() { dev.Close(); res.conn.Close() })
	return dev, res.conn
}

func TestHandshakeAndEcho(t *testing.T) {
	dev, srv := pipePair(t)
	payload := []byte("retained pages in time order")
	errCh := make(chan error, 1)
	go func() { errCh <- dev.WriteMsg(MsgSegment, payload) }()
	typ, got, err := srv.ReadMsg()
	if err != nil {
		t.Fatal(err)
	}
	if typ != MsgSegment || !bytes.Equal(got, payload) {
		t.Fatalf("got %v %q", typ, got)
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	// And the reverse direction.
	go func() { errCh <- srv.WriteMsg(MsgSegmentAck, (&Ack{UpTo: 9}).Marshal()) }()
	typ, got, err = dev.ReadMsg()
	if err != nil {
		t.Fatal(err)
	}
	ack, err := UnmarshalAck(got)
	if err != nil || typ != MsgSegmentAck || ack.UpTo != 9 {
		t.Fatalf("ack round trip: %v %v %+v", typ, err, ack)
	}
}

func TestHandshakeRejectsWrongPSK(t *testing.T) {
	dc, sc := net.Pipe()
	defer dc.Close()
	defer sc.Close()
	done := make(chan error, 1)
	go func() {
		_, _, err := ServerHandshake(sc, func(uint64) ([]byte, bool) {
			return []byte("a-completely-different-psk-32byt"), true
		})
		done <- err
	}()
	_, devErr := DeviceHandshake(dc, testPSK, 1)
	if devErr != nil {
		// The device bailed without sending its confirm record; close so
		// the server unblocks (net.Pipe is unbuffered).
		dc.Close()
	}
	srvErr := <-done
	if devErr == nil && srvErr == nil {
		t.Fatal("mismatched PSKs completed handshake")
	}
}

func TestHandshakeRejectsUnknownDevice(t *testing.T) {
	dc, sc := net.Pipe()
	defer dc.Close()
	defer sc.Close()
	done := make(chan error, 1)
	go func() {
		_, _, err := ServerHandshake(sc, func(uint64) ([]byte, bool) { return nil, false })
		done <- err
	}()
	go DeviceHandshake(dc, testPSK, 7)
	if err := <-done; !errors.Is(err, ErrHandshake) {
		t.Fatalf("unknown device err = %v", err)
	}
}

func TestLargeCompressiblePayload(t *testing.T) {
	dev, srv := pipePair(t)
	payload := bytes.Repeat([]byte("RSSD retains all stale data. "), 10000)
	go dev.WriteMsg(MsgSegment, payload)
	_, got, err := srv.ReadMsg()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("compressible payload corrupted")
	}
}

func TestIncompressiblePayload(t *testing.T) {
	dev, srv := pipePair(t)
	payload := make([]byte, 32<<10)
	rand.Read(payload)
	go dev.WriteMsg(MsgSegment, payload)
	_, got, err := srv.ReadMsg()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("incompressible payload corrupted")
	}
}

func TestConfidentialityOnWire(t *testing.T) {
	// Capture the raw bytes the device emits and check the plaintext is
	// not visible: a host-resident attacker sniffing the wire learns
	// nothing about retained data.
	dc, sc := net.Pipe()
	defer sc.Close()
	go func() {
		srv, _, err := ServerHandshake(sc, func(uint64) ([]byte, bool) { return testPSK, true })
		if err != nil {
			return
		}
		srv.ReadMsg()
	}()
	// Intercept by wrapping: do the handshake, then write one frame and
	// inspect it via a recording wrapper.
	rec := &recordingConn{Conn: dc}
	dev, err := DeviceHandshake(rec, testPSK, 42)
	if err != nil {
		t.Fatal(err)
	}
	secret := bytes.Repeat([]byte("TOP-SECRET-USER-DATA"), 10)
	if err := dev.WriteMsg(MsgSegment, secret); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(rec.sent.Bytes(), []byte("TOP-SECRET")) {
		t.Fatal("plaintext visible on the wire")
	}
}

type recordingConn struct {
	net.Conn
	sent bytes.Buffer
}

func (r *recordingConn) Write(p []byte) (int, error) {
	r.sent.Write(p)
	return r.Conn.Write(p)
}

func TestTamperDetected(t *testing.T) {
	// A man-in-the-middle flipping any ciphertext bit must be caught by
	// the MAC before decryption output is used.
	dc, sc := net.Pipe()
	srvCh := make(chan *Conn, 1)
	go func() {
		srv, _, err := ServerHandshake(sc, func(uint64) ([]byte, bool) { return testPSK, true })
		if err != nil {
			srvCh <- nil
			return
		}
		srvCh <- srv
	}()
	tamper := &tamperConn{Conn: dc, corruptAfterHandshake: true}
	dev, err := DeviceHandshake(tamper, testPSK, 42)
	if err != nil {
		t.Fatal(err)
	}
	srv := <-srvCh
	if srv == nil {
		t.Fatal("server handshake failed")
	}
	tamper.armed = true
	go dev.WriteMsg(MsgSegment, []byte("payload-to-corrupt-in-flight-xx"))
	if _, _, err := srv.ReadMsg(); !errors.Is(err, ErrBadMAC) {
		t.Fatalf("tampered frame err = %v, want ErrBadMAC", err)
	}
}

type tamperConn struct {
	net.Conn
	corruptAfterHandshake bool
	armed                 bool
}

func (c *tamperConn) Write(p []byte) (int, error) {
	if c.armed && len(p) > headerSize {
		q := append([]byte(nil), p...)
		q[headerSize] ^= 0x80 // flip a ciphertext bit
		return c.Conn.Write(q)
	}
	return c.Conn.Write(p)
}

func TestReplayRejected(t *testing.T) {
	// Replaying a recorded frame must fail the sequence check even
	// though its MAC is valid.
	dc, sc := net.Pipe()
	srvCh := make(chan *Conn, 1)
	go func() {
		srv, _, _ := ServerHandshake(sc, func(uint64) ([]byte, bool) { return testPSK, true })
		srvCh <- srv
	}()
	rec := &replayConn{Conn: dc}
	dev, err := DeviceHandshake(rec, testPSK, 42)
	if err != nil {
		t.Fatal(err)
	}
	srv := <-srvCh
	rec.record = true
	done := make(chan struct{})
	go func() {
		dev.WriteMsg(MsgSegment, []byte("frame-one"))
		rec.record = false
		rec.replay() // resend the recorded bytes
		close(done)
	}()
	if _, _, err := srv.ReadMsg(); err != nil {
		t.Fatalf("first read: %v", err)
	}
	if _, _, err := srv.ReadMsg(); !errors.Is(err, ErrReplay) {
		t.Fatalf("replayed frame err = %v, want ErrReplay", err)
	}
	<-done
}

type replayConn struct {
	net.Conn
	record   bool
	recorded bytes.Buffer
}

func (c *replayConn) Write(p []byte) (int, error) {
	if c.record {
		c.recorded.Write(p)
	}
	return c.Conn.Write(p)
}

func (c *replayConn) replay() { c.Conn.Write(c.recorded.Bytes()) }

func TestSegmentOverWire(t *testing.T) {
	dev, srv := pipePair(t)
	l := oplog.New()
	for i := 0; i < 100; i++ {
		l.Append(oplog.KindWrite, 0, uint64(i), 0, uint64(i), 2.5, oplog.HashData([]byte{byte(i)}))
	}
	seg := &oplog.Segment{DeviceID: 42, LastSeq: 100, Entries: l.All()}
	go dev.WriteMsg(MsgSegment, seg.Marshal())
	typ, body, err := srv.ReadMsg()
	if err != nil || typ != MsgSegment {
		t.Fatalf("read: %v %v", typ, err)
	}
	got, err := oplog.UnmarshalSegment(body)
	if err != nil {
		t.Fatal(err)
	}
	if err := oplog.VerifyChain(got.Entries, [32]byte{}); err != nil {
		t.Fatalf("chain broken after transport: %v", err)
	}
}

func TestFetchReqRoundTrip(t *testing.T) {
	r := FetchReq{Kind: FetchImageStream, LPN: 5, From: 1, To: 2, Before: 99, ChunkPages: 64}
	got, err := UnmarshalFetchReq(r.Marshal())
	if err != nil || got != r {
		t.Fatalf("round trip: %+v %v", got, err)
	}
	if _, err := UnmarshalFetchReq([]byte{1, 2}); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("short req err = %v", err)
	}
}

func TestStreamEndRoundTrip(t *testing.T) {
	e := StreamEnd{Chunks: 3, Pages: 129, NextLPN: 4096}
	got, err := UnmarshalStreamEnd(e.Marshal())
	if err != nil || got != e {
		t.Fatalf("round trip: %+v %v", got, err)
	}
	if _, err := UnmarshalStreamEnd([]byte{1}); !errors.Is(err, ErrBadMessage) {
		t.Fatal("short stream end accepted")
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	c := Checkpoint{Seq: 7, WriteSeqs: []uint64{1, 2, 3, ^uint64(0)}}
	got, err := UnmarshalCheckpoint(c.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != 7 || len(got.WriteSeqs) != 4 || got.WriteSeqs[3] != ^uint64(0) {
		t.Fatalf("round trip: %+v", got)
	}
	if _, err := UnmarshalCheckpoint([]byte{1}); !errors.Is(err, ErrBadMessage) {
		t.Fatal("short checkpoint accepted")
	}
	if _, err := UnmarshalCheckpoint(make([]byte, 17)); !errors.Is(err, ErrBadMessage) {
		t.Fatal("ragged checkpoint accepted")
	}
}

func TestHeadRoundTrip(t *testing.T) {
	h := Head{NextSeq: 1234}
	h.Hash[0] = 0xAB
	got, err := UnmarshalHead(h.Marshal())
	if err != nil || got != h {
		t.Fatalf("round trip: %+v %v", got, err)
	}
}

func TestErrorMsgRoundTrip(t *testing.T) {
	e := ErrorMsg{Code: 3, Text: "chain gap"}
	got, err := UnmarshalErrorMsg(e.Marshal())
	if err != nil || got != e {
		t.Fatalf("round trip: %+v %v", got, err)
	}
}

func TestCompressionRatio(t *testing.T) {
	zeros := make([]byte, 4096)
	if r := CompressionRatio(zeros); r < 10 {
		t.Fatalf("zero page ratio = %v, want large", r)
	}
	rnd := make([]byte, 4096)
	rand.Read(rnd)
	if r := CompressionRatio(rnd); r != 1 {
		t.Fatalf("random page ratio = %v, want 1", r)
	}
}

func TestWriteMsgTooLarge(t *testing.T) {
	c := &Conn{}
	if err := c.WriteMsg(MsgSegment, make([]byte, MaxPayload+1)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v", err)
	}
}

// Property: arbitrary payloads of any size survive the full encrypt/
// compress/frame round trip.
func TestTransportRoundTripProperty(t *testing.T) {
	dev, srv := pipePair(t)
	f := func(payload []byte, typ uint8) bool {
		mt := MsgType(typ%8 + 1)
		errCh := make(chan error, 1)
		go func() { errCh <- dev.WriteMsg(mt, payload) }()
		gotType, got, err := srv.ReadMsg()
		if err != nil || <-errCh != nil {
			return false
		}
		return gotType == mt && bytes.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestAckServiceTimeRoundTripAndLegacy(t *testing.T) {
	// Acks carry the tier's modeled Put service time.
	a := Ack{UpTo: 42, SvcNs: 18_000_000}
	got, err := UnmarshalAck(a.Marshal())
	if err != nil || got != a {
		t.Fatalf("ack roundtrip = %+v, %v", got, err)
	}
	// The 8-byte ack without a service time is not a second form of it.
	if _, err := UnmarshalAck(a.Marshal()[:8]); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("8-byte ack: err=%v", err)
	}
	if _, err := UnmarshalAck(a.Marshal()[:5]); err == nil {
		t.Fatal("truncated ack decoded")
	}
}
