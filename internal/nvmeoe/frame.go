// Package nvmeoe implements RSSD's hardware-isolated NVMe over Ethernet
// transport.
//
// On the real device this is a dedicated engine (MAC, DMA, Tx/Rx buffers in
// Figure 1 of the paper) that moves retained pages and operation logs from
// the SSD controller to remote storage without host involvement: the host
// cannot observe, block, or forge the traffic because it never touches host
// memory. Here the engine is modeled as a message layer over any net.Conn
// (net.Pipe in tests, TCP in the examples) with the properties that matter
// for the threat model implemented cryptographically:
//
//   - confidentiality, integrity and authenticity: every frame is sealed
//     with AES-256-GCM under a per-session, per-direction key derived from
//     a pre-shared device key — one pass over the payload, a 16-byte tag,
//     the plaintext header as associated data,
//   - replay and reorder protection: the frame sequence number is the GCM
//     nonce and sits in the authenticated header, and is enforced strictly
//     in order,
//   - efficiency: payloads are DEFLATE-compressed when that helps, which is
//     also how the paper stretches retention capacity in Figure 2.
//
// A frame (protocol version 3) is header ‖ ciphertext ‖ tag and goes out as
// exactly those three writes, the pooled ciphertext buffer released before
// the tag is written. The peer cannot complete a frame, so cannot answer
// it, until the tag arrives: pool-gauge checks (chaos.PoolSteady, the
// benchmark's) read balanced at every round-trip boundary. With the tag
// riding the ciphertext write they do not.
package nvmeoe

import (
	"bufio"
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"

	"repro/internal/bufpool"
)

// MsgType identifies the meaning of a frame's payload.
type MsgType uint8

const (
	MsgHello MsgType = iota + 1
	MsgHelloAck
	MsgSegment    // device -> server: oplog.Segment (push of logs + retained pages)
	MsgSegmentAck // server -> device: durable up to sequence N
	MsgCheckpoint // device -> server: live write sequence per LPN (Checkpoint)
	MsgCheckpointAck
	MsgFetch     // device -> server: retrieval request (recovery/forensics)
	MsgFetchResp // server -> device
	MsgError
	_                // 10: retired, unassigned
	MsgFetchEnd      // server -> device: stream trailer (StreamEnd; empty after entries frames)
	MsgFetchChunkRef // server -> device: one codec-framed chunk (RefChunk) of an image stream
)

func (t MsgType) String() string {
	switch t {
	case MsgHello:
		return "hello"
	case MsgHelloAck:
		return "hello-ack"
	case MsgSegment:
		return "segment"
	case MsgSegmentAck:
		return "segment-ack"
	case MsgCheckpoint:
		return "checkpoint"
	case MsgCheckpointAck:
		return "checkpoint-ack"
	case MsgFetch:
		return "fetch"
	case MsgFetchResp:
		return "fetch-resp"
	case MsgError:
		return "error"
	case MsgFetchEnd:
		return "fetch-end"
	case MsgFetchChunkRef:
		return "fetch-chunk-ref"
	default:
		return fmt.Sprintf("MsgType(%d)", uint8(t))
	}
}

const (
	frameMagic   = 0x4E4F4553 // "NOES": NVMe-oE Secure
	protoVersion = 3          // segments carry entries without their chain hashes
	tagSize      = 16         // AES-GCM authentication tag
	// MaxPayload bounds a single frame; segments above this are split by
	// the offload policy before they reach the transport.
	MaxPayload = 64 << 20

	flagCompressed = 1 << 0
)

// Transport-level errors.
var (
	ErrBadFrame   = errors.New("nvmeoe: malformed frame")
	ErrBadMAC     = errors.New("nvmeoe: MAC verification failed")
	ErrReplay     = errors.New("nvmeoe: frame sequence violation (replay or drop)")
	ErrTooLarge   = errors.New("nvmeoe: payload exceeds MaxPayload")
	ErrBadVersion = errors.New("nvmeoe: protocol version mismatch")
)

// header layout: magic(4) ver(1) type(1) flags(2) seq(8) clen(4) = 20 bytes.
// clen counts ciphertext bytes only; the tag follows them.
const headerSize = 20

// direction labels for key derivation.
const (
	dirDeviceToServer = "rssd-c2s"
	dirServerToDevice = "rssd-s2c"
)

// deriveKey produces a 32-byte key from the pre-shared key, the session
// nonces, and a label, using HMAC-SHA-256 as the PRF (an HKDF-expand with
// a single block, which suffices for fixed-size session keys).
func deriveKey(psk, nonceC, nonceS []byte, label string) []byte {
	mac := hmac.New(sha256.New, psk)
	mac.Write(nonceC)
	mac.Write(nonceS)
	mac.Write([]byte(label))
	return mac.Sum(nil)
}

// halfConn holds one direction's cipher state, built once per session, and
// the per-frame scratch that would escape to the heap as local arrays (the
// AEAD, the net.Conn and the reader are all behind interfaces).
type halfConn struct {
	aead  cipher.AEAD
	seq   uint64
	hdr   [headerSize]byte
	nonce [12]byte
	tag   [tagSize]byte
}

// newHalfConn builds the AES-256-GCM state for one direction's session key.
// The nonce of a frame is its sequence number, then fixed domain bytes: it
// is unique per key because keys are per direction per session and seq only
// ever increases.
func newHalfConn(key []byte) halfConn {
	blk, err := aes.NewCipher(key)
	if err != nil {
		panic(err) // deriveKey yields 32 bytes: only a bug gets here
	}
	aead, err := cipher.NewGCM(blk)
	if err != nil {
		panic(err)
	}
	h := halfConn{aead: aead}
	copy(h.nonce[8:], "NOE2")
	return h
}

// nonceFor returns the GCM nonce of frame seq.
func (h *halfConn) nonceFor(seq uint64) []byte {
	binary.LittleEndian.PutUint64(h.nonce[:], seq)
	return h.nonce[:]
}

// Conn is an established, authenticated NVMe-oE session over an underlying
// net.Conn. One writer and one reader may run side by side, but it is not
// safe for concurrent writers (or readers); the offload engine serializes
// its traffic, as the hardware's single Tx queue does.
type Conn struct {
	nc  net.Conn
	br  *bufio.Reader
	out halfConn
	in  halfConn
}

// WriteMsg compresses (when profitable), seals, and sends one message.
// Compression scratch and the ciphertext ride pooled buffers; nothing
// written here outlives the call.
func (c *Conn) WriteMsg(t MsgType, payload []byte) error {
	if len(payload) > MaxPayload {
		return ErrTooLarge
	}
	flags := uint16(0)
	body := payload
	var comp *bufpool.Buf
	// Codec-framed segment blobs arrive already compressed (the offload
	// engine encodes them at seal time); re-deflating them only burns CPU.
	if len(payload) > 128 && !IsSegmentBlob(payload) {
		comp = bufpool.Get(len(payload))
		if compressed, ok := AppendDeflate(comp.B, payload); ok {
			body = compressed
			flags |= flagCompressed
		} else {
			comp.Release()
			comp = nil
		}
	}
	hdr, tag := c.out.hdr[:], c.out.tag[:]
	binary.LittleEndian.PutUint32(hdr[0:], frameMagic)
	hdr[4] = protoVersion
	hdr[5] = byte(t)
	binary.LittleEndian.PutUint16(hdr[6:], flags)
	binary.LittleEndian.PutUint64(hdr[8:], c.out.seq)
	binary.LittleEndian.PutUint32(hdr[16:], uint32(len(body)))

	ct := bufpool.Get(len(body) + tagSize)
	ct.B = append(ct.B, body...)
	comp.Release() // body copied into ct; the scratch can go back
	ct.B = c.out.aead.Seal(ct.B[:0], c.out.nonceFor(c.out.seq), ct.B, hdr)
	copy(tag, ct.B[len(body):])

	c.out.seq++
	// Three writes, and the pooled buffer goes back before the last one:
	// see the package comment.
	if _, err := c.nc.Write(hdr); err != nil {
		ct.Release()
		return err
	}
	_, err := c.nc.Write(ct.B[:len(body)])
	ct.Release()
	if err != nil {
		return err
	}
	_, err = c.nc.Write(tag)
	return err
}

// ReadMsg receives, authenticates, decrypts, and decompresses one message.
// The returned payload is freshly owned by the caller; compressed frames
// decrypt through a pooled intermediate that never escapes.
func (c *Conn) ReadMsg() (MsgType, []byte, error) {
	t, pt, _, err := c.read(false)
	return t, pt, err
}

// ReadMsgBuf is ReadMsg into a pooled buffer: the payload is buf.B, and the
// caller releases buf once it is done with the payload. A stream's reader
// that hands each payload on (remote.Client.AppendEntries) reads a long
// stream without an allocation per frame.
func (c *Conn) ReadMsgBuf() (MsgType, *bufpool.Buf, error) {
	t, pt, buf, err := c.read(true)
	if err == nil {
		buf.B = pt
	}
	return t, buf, err
}

// read is ReadMsg, the payload in a pooled buffer when pooled is set.
func (c *Conn) read(pooled bool) (MsgType, []byte, *bufpool.Buf, error) {
	hdr := c.in.hdr[:]
	if _, err := io.ReadFull(c.br, hdr); err != nil {
		return 0, nil, nil, err
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != frameMagic {
		return 0, nil, nil, ErrBadFrame
	}
	if hdr[4] != protoVersion {
		return 0, nil, nil, ErrBadVersion
	}
	t := MsgType(hdr[5])
	flags := binary.LittleEndian.Uint16(hdr[6:])
	seq := binary.LittleEndian.Uint64(hdr[8:])
	clen := binary.LittleEndian.Uint32(hdr[16:])
	if clen > MaxPayload {
		return 0, nil, nil, ErrTooLarge
	}
	// A compressed frame's ciphertext is scratch (the inflated payload is
	// what escapes); an uncompressed frame's ciphertext becomes the payload
	// and must be a plain allocation unless the caller takes a pooled one.
	// Either holds the tag behind it.
	n := int(clen) + tagSize
	var ct []byte
	var ctBuf *bufpool.Buf
	if pooled || flags&flagCompressed != 0 {
		ctBuf = bufpool.Get(n)
		ct = ctBuf.B[:n]
	} else {
		ct = make([]byte, n)
	}
	if _, err := io.ReadFull(c.br, ct); err != nil {
		ctBuf.Release()
		return 0, nil, nil, err
	}
	pt, err := c.in.aead.Open(ct[:0], c.in.nonceFor(seq), ct, hdr)
	if err != nil {
		ctBuf.Release()
		return 0, nil, nil, ErrBadMAC
	}
	// The tag binds seq; strict in-order delivery rejects replays and
	// drops (the underlying transport is reliable, so any deviation is
	// an attack or a bug, not loss).
	if seq != c.in.seq {
		ctBuf.Release()
		return 0, nil, nil, fmt.Errorf("%w: got seq %d, want %d", ErrReplay, seq, c.in.seq)
	}
	c.in.seq++
	if flags&flagCompressed == 0 {
		return t, pt, ctBuf, nil
	}
	var out *bufpool.Buf
	var dst []byte
	if pooled {
		out = bufpool.Get(2 * len(pt))
		dst = out.B
	}
	pt, err = AppendInflateLimited(dst, pt, MaxPayload)
	ctBuf.Release()
	if err != nil {
		out.Release()
		return 0, nil, nil, fmt.Errorf("%w: %v", ErrBadFrame, err)
	}
	return t, pt, out, nil
}

// Close closes the underlying connection.
func (c *Conn) Close() error { return c.nc.Close() }
