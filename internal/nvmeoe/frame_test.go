package nvmeoe

import (
	"bufio"
	"bytes"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"
)

// memConn is an in-memory wire: what WriteMsg writes, ReadMsg reads back,
// on one goroutine.
type memConn struct {
	net.Conn // deadlines and addresses are never asked for
	buf      bytes.Buffer
}

func (m *memConn) Write(p []byte) (int, error) { return m.buf.Write(p) }
func (m *memConn) Read(p []byte) (int, error)  { return m.buf.Read(p) }
func (m *memConn) Close() error                { return nil }

// memPair is pipePair with the device-to-server direction rerouted over a
// memConn once the handshake is done.
func memPair(tb testing.TB) (dev, srv *Conn, wire *memConn) {
	tb.Helper()
	dev, srv = pipePair(tb)
	wire = &memConn{}
	dev.nc = wire
	srv.br = bufio.NewReaderSize(wire, 1<<16)
	return dev, srv, wire
}

// fixedKey makes frames reproducible across runs (the GCM nonce is the
// frame sequence number), which the committed fuzz corpus depends on.
var fixedKey = bytes.Repeat([]byte{0x5D}, 32)

// fixedWriter is the sending half of a session under fixedKey.
func fixedWriter() (*Conn, *memConn) {
	wire := &memConn{}
	return &Conn{nc: wire, out: newHalfConn(fixedKey)}, wire
}

// fixedReader is the receiving half of that session, at frame 0, fed wire.
func fixedReader(wire []byte) *Conn {
	return &Conn{br: bufio.NewReader(bytes.NewReader(wire)), in: newHalfConn(fixedKey)}
}

// framePayloads are what the frame tests send: one short enough to go out
// uncompressed, one that deflates, one segment blob (sent as it is).
func framePayloads() [][]byte {
	return [][]byte{
		[]byte("durable up to 41"),
		bytes.Repeat([]byte("retained pages in time order; "), 40),
		EncodeSegmentBlob(bytes.Repeat([]byte{0xA7, 0x00, 0x13}, 300)),
	}
}

// sealedFrames returns each payload's frame, sealed in order on one session.
func sealedFrames(tb testing.TB, payloads [][]byte) [][]byte {
	tb.Helper()
	w, wire := fixedWriter()
	frames := make([][]byte, len(payloads))
	for i, p := range payloads {
		if err := w.WriteMsg(MsgSegment, p); err != nil {
			tb.Fatal(err)
		}
		frames[i] = append([]byte(nil), wire.buf.Bytes()...)
		wire.buf.Reset()
	}
	return frames
}

// frameErr reports whether err is one ReadMsg may return for bytes off the
// wire: a transport error, or the reader running dry.
func frameErr(err error) bool {
	for _, want := range []error{ErrBadFrame, ErrBadMAC, ErrReplay, ErrTooLarge, ErrBadVersion, io.EOF, io.ErrUnexpectedEOF} {
		if errors.Is(err, want) {
			return true
		}
	}
	return false
}

// TestFrameRejectsEveryBitFlip: no single flipped bit of a valid frame —
// header, ciphertext or tag — delivers a payload, and the error names what
// was wrong.
func TestFrameRejectsEveryBitFlip(t *testing.T) {
	payloads := framePayloads()
	for k, p := range payloads {
		frame := sealedFrames(t, [][]byte{p})[0] // as the session's first frame
		if compressed := binary.LittleEndian.Uint16(frame[6:])&flagCompressed != 0; compressed != (k == 1) {
			t.Fatalf("payload %d: compressed=%v: the table lost a row", k, compressed)
		}
		if typ, got, err := fixedReader(frame).ReadMsg(); err != nil || typ != MsgSegment || !bytes.Equal(got, p) {
			t.Fatalf("frame %d does not read back intact: %v", k, err)
		}
		for bit := 0; bit < len(frame)*8; bit++ {
			mut := append([]byte(nil), frame...)
			mut[bit/8] ^= 1 << (bit % 8)
			_, got, err := fixedReader(mut).ReadMsg()
			if err == nil || got != nil || !frameErr(err) {
				t.Fatalf("frame %d bit %d: err=%v, %d payload bytes", k, bit, err, len(got))
			}
			var want error
			off := bit / 8
			switch {
			case off < 4:
				want = ErrBadFrame
			case off == 4:
				want = ErrBadVersion
			case off < 16, off >= headerSize: // type, flags, seq; ciphertext and tag
				want = ErrBadMAC
			default: // clen: the tag is looked for in the wrong place, or never arrives
				continue
			}
			if !errors.Is(err, want) {
				t.Fatalf("frame %d bit %d (byte %d): err=%v, want %v", k, bit, off, err, want)
			}
		}
	}
}

// TestFrameRejectsReplaySwapAndV1: a frame is accepted once, in its place,
// and only at this protocol version.
func TestFrameRejectsReplaySwapAndV1(t *testing.T) {
	payloads := framePayloads()
	frames := sealedFrames(t, payloads)
	join := func(fs ...[]byte) []byte { return bytes.Join(fs, nil) }

	// In order: every payload arrives.
	r := fixedReader(join(frames...))
	for k := range frames {
		if _, got, err := r.ReadMsg(); err != nil || !bytes.Equal(got, payloads[k]) {
			t.Fatalf("frame %d in order: %v", k, err)
		}
	}
	// Replayed: the second copy of frame 0 is refused, its tag still valid.
	r = fixedReader(join(frames[0], frames[0]))
	if _, _, err := r.ReadMsg(); err != nil {
		t.Fatal(err)
	}
	if _, got, err := r.ReadMsg(); !errors.Is(err, ErrReplay) || got != nil {
		t.Fatalf("replayed frame: err=%v", err)
	}
	// Swapped: frame 1 ahead of frame 0 is refused.
	if _, got, err := fixedReader(join(frames[1], frames[0])).ReadMsg(); !errors.Is(err, ErrReplay) || got != nil {
		t.Fatalf("swapped frames: err=%v", err)
	}
	// Dropped: frame 2 straight after frame 0 is refused.
	r = fixedReader(join(frames[0], frames[2]))
	r.ReadMsg()
	if _, got, err := r.ReadMsg(); !errors.Is(err, ErrReplay) || got != nil {
		t.Fatalf("frame after a dropped one: err=%v", err)
	}
	// Neither earlier version is spoken: 1 (CTR + HMAC, 32-byte tag) nor 2
	// (141-byte entries, each with its two chain hashes).
	for _, v := range []byte{1, 2} {
		old := append([]byte(nil), frames[0]...)
		old[4] = v
		if _, got, err := fixedReader(old).ReadMsg(); !errors.Is(err, ErrBadVersion) || got != nil {
			t.Fatalf("v%d frame: err=%v", v, err)
		}
	}
	// A frame sealed for the other direction's key does not open.
	dev, _, wire := memPair(t)
	if err := dev.WriteMsg(MsgSegment, payloads[0]); err != nil {
		t.Fatal(err)
	}
	dev.br = bufio.NewReader(&wire.buf)
	if _, got, err := dev.ReadMsg(); !errors.Is(err, ErrBadMAC) || got != nil {
		t.Fatalf("frame reflected to its sender: err=%v", err)
	}
}

// TestFrameIsThreeWrites pins the order the package comment explains:
// header, ciphertext, tag, and clen counting the ciphertext alone.
func TestFrameIsThreeWrites(t *testing.T) {
	dc, sc := net.Pipe()
	defer dc.Close()
	defer sc.Close()
	w := &Conn{nc: dc, out: newHalfConn(fixedKey)}
	payload := framePayloads()[0]
	go w.WriteMsg(MsgSegmentAck, payload)
	// net.Pipe hands over one Write per Read when the buffer is large enough.
	var sizes []int
	buf := make([]byte, 1<<10)
	for len(sizes) < 3 {
		n, err := sc.Read(buf)
		if err != nil {
			t.Fatal(err)
		}
		if len(sizes) == 0 && int(binary.LittleEndian.Uint32(buf[16:])) != len(payload) {
			t.Fatalf("clen = %d, want the %d ciphertext bytes", binary.LittleEndian.Uint32(buf[16:]), len(payload))
		}
		sizes = append(sizes, n)
	}
	if sizes[0] != headerSize || sizes[1] != len(payload) || sizes[2] != tagSize {
		t.Fatalf("frame went out as writes of %v bytes, want [%d %d %d]", sizes, headerSize, len(payload), tagSize)
	}
}

// FuzzFrame feeds ReadMsg arbitrary bytes on an established session, as a
// network adversary can: it must not panic, must fail only with a transport
// error or the reader running dry, and — the key being out of the fuzzer's
// reach — may deliver nothing but the frames the session's peer sealed, each
// once and in its place.
//
//	go test -run xxx -fuzz FuzzFrame -fuzztime 30s ./internal/nvmeoe
func FuzzFrame(f *testing.F) {
	payloads := framePayloads()
	frames := sealedFrames(f, payloads)
	all := bytes.Join(frames, nil)
	f.Add(all)
	f.Add(all[:len(all)-1])
	f.Add(bytes.Join([][]byte{frames[1], frames[0]}, nil))
	f.Add(bytes.Join([][]byte{frames[0], frames[0]}, nil))
	for _, fr := range frames {
		f.Add(fr[:headerSize])
		mut := append([]byte(nil), fr...)
		mut[len(mut)-1] ^= 1
		f.Add(mut)
	}
	for _, v := range []byte{1, 2} {
		old := append([]byte(nil), frames[0]...)
		old[4] = v
		f.Add(old)
	}
	huge := append([]byte(nil), frames[0]...)
	binary.LittleEndian.PutUint32(huge[16:], MaxPayload+1)
	f.Add(huge)
	noise := make([]byte, 256)
	rand.Read(noise)
	f.Add(noise)

	f.Fuzz(func(t *testing.T, wire []byte) {
		r := fixedReader(wire)
		for k := 0; ; k++ {
			typ, got, err := r.ReadMsg()
			if err != nil {
				if !frameErr(err) || got != nil {
					t.Fatalf("frame %d: err=%v, %d payload bytes", k, err, len(got))
				}
				return
			}
			if k >= len(payloads) || typ != MsgSegment || !bytes.Equal(got, payloads[k]) {
				t.Fatalf("frame %d accepted: type %v, %d bytes nobody sealed there", k, typ, len(got))
			}
		}
	})
}

// BenchmarkFrame is one message through the frame layer and back —
// WriteMsg, then ReadMsg — over an in-memory wire: an ack, a segment blob
// the codec deflated, and one it stored. MB/s is of payload.
//
//	go test -run xxx -bench BenchmarkFrame -cpu 1 ./internal/nvmeoe
func BenchmarkFrame(b *testing.B) {
	noise := make([]byte, 64<<10)
	rand.Read(noise)
	third := make([]byte, 64<<10) // a third noise: deflates to about 24 KiB
	for i := 0; i < len(third); i += 4096 {
		copy(third[i:i+1400], noise[i:])
	}
	for _, tc := range []struct {
		name    string
		payload []byte
	}{
		{"ack-8B", make([]byte, 8)},
		{"blob-deflated-24K", EncodeSegmentBlob(testSegment(b, third).Marshal())},
		{"blob-stored-64K", EncodeSegmentBlob(testSegment(b, noise).Marshal())},
	} {
		b.Run(tc.name, func(b *testing.B) {
			dev, srv, _ := memPair(b)
			b.ReportAllocs()
			b.SetBytes(int64(len(tc.payload)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := dev.WriteMsg(MsgSegment, tc.payload); err != nil {
					b.Fatal(err)
				}
				if _, got, err := srv.ReadMsg(); err != nil || len(got) != len(tc.payload) {
					b.Fatalf("read back %d of %d bytes: %v", len(got), len(tc.payload), err)
				}
			}
		})
	}
}
