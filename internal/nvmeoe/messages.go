package nvmeoe

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// This file defines the typed payloads carried inside frames. They are
// hand-encoded with encoding/binary — the firmware counterpart would do the
// same; no reflection-based codec survives in a storage controller.

// FetchKind selects what a MsgFetch asks the remote store for.
type FetchKind uint8

// The numbers are wire values. 2, 3 and 7 are retired and stay unassigned: a
// server answers them, like any unknown kind, with an error message.
const (
	// FetchEntries requests log entries with From <= Seq < To, answered by
	// a stream: MsgFetchResp frames, each a stored page-less segment
	// marshal of remote.FrameEntries entries (the last shorter), then an
	// empty MsgFetchEnd. The client derives each frame's chain while the
	// next is on the wire.
	FetchEntries FetchKind = 1
	// FetchCheckpoint requests the newest mapping checkpoint with
	// Seq <= Before.
	FetchCheckpoint FetchKind = 4
	// FetchHead requests the remote chain state: highest contiguous
	// sequence and its chain hash (used to anchor forensic verification).
	FetchHead FetchKind = 5
	// FetchImageStream requests the point-in-time image — for every LPN in
	// [From, To) the newest retained version written before sequence Before
	// — as a stream of LPN-ordered, codec-framed chunks (MsgFetchChunkRef,
	// then MsgFetchEnd). A restorer resumes an interrupted stream by asking
	// again from its cursor, and one page is a one-LPN range; ChunkPages
	// bounds pages per chunk (0 = server default).
	FetchImageStream FetchKind = 6
	// FetchHeld requests the identity of every page version the store holds
	// for the device — (LPN, WriteSeq, StaleSeq, Cause, Hash), no payloads.
	// A reopening device uses it to tell the stale pages it already shipped
	// from the unshipped tail it must pin again.
	FetchHeld FetchKind = 8
)

// FetchReq is a retrieval request issued during recovery or forensics.
// For FetchImageStream, From and To bound logical page numbers rather than
// log sequences.
type FetchReq struct {
	Kind       FetchKind
	From       uint64
	To         uint64
	Before     uint64
	ChunkPages uint32 // FetchImageStream: pages per chunk (0 = server default)
	// Anchor, when non-zero on FetchImageStream, requests a
	// checkpoint-anchored delta image: the server streams only LPNs
	// touched by a state-changing log entry at or after this sequence.
	// Everything below the anchor is reconstructible from the device's
	// verified checkpoint + local state, so it never crosses the wire.
	Anchor uint64
	Flags  uint8
}

// Fetch request flags.
const (
	// FetchFlagDedup lets the server send a repeated page of an image
	// stream as a reference: the first occurrence of each content hash in
	// the stream carries the literal page, repeats carry only the 32-byte
	// hash and resolve from the device-side cache. Without it every page
	// is a literal, still with its hash.
	FetchFlagDedup uint8 = 1 << 0
)

// GrantQuantumBytes is the transfer quantum restore chunking targets on
// the shared-NIC QoS arbiter: one streamed chunk is one arbiter grant, so
// a ~512 KiB quantum bounds cross-class head-of-line blocking (a grant in
// flight delays a higher-priority class by at most quantum/allocation)
// without paying per-page grant accounting.
const GrantQuantumBytes = 512 << 10

// ChunkPagesForQuantum sizes FetchReq.ChunkPages so one chunk's logical
// payload lands near the grant quantum for the given page size (at least
// one page; 0 for a non-positive page size, deferring to the server
// default). With 4 KiB pages this is 128 — exactly the server's default
// chunking.
func ChunkPagesForQuantum(pageSize int) uint32 {
	if pageSize <= 0 {
		return 0
	}
	n := GrantQuantumBytes / pageSize
	if n < 1 {
		n = 1
	}
	return uint32(n)
}

// ErrBadMessage reports a payload that does not decode.
var ErrBadMessage = errors.New("nvmeoe: malformed message payload")

const fetchReqSize = 1 + 3*8 + 4 + 8 + 1

// Marshal encodes the request.
func (r *FetchReq) Marshal() []byte {
	b := make([]byte, 0, fetchReqSize)
	b = append(b, byte(r.Kind))
	b = binary.LittleEndian.AppendUint64(b, r.From)
	b = binary.LittleEndian.AppendUint64(b, r.To)
	b = binary.LittleEndian.AppendUint64(b, r.Before)
	b = binary.LittleEndian.AppendUint32(b, r.ChunkPages)
	b = binary.LittleEndian.AppendUint64(b, r.Anchor)
	b = append(b, r.Flags)
	return b
}

// UnmarshalFetchReq decodes a request.
func UnmarshalFetchReq(b []byte) (FetchReq, error) {
	if len(b) != fetchReqSize {
		return FetchReq{}, fmt.Errorf("%w: fetch req size %d", ErrBadMessage, len(b))
	}
	return FetchReq{
		Kind:       FetchKind(b[0]),
		From:       binary.LittleEndian.Uint64(b[1:]),
		To:         binary.LittleEndian.Uint64(b[9:]),
		Before:     binary.LittleEndian.Uint64(b[17:]),
		ChunkPages: binary.LittleEndian.Uint32(b[25:]),
		Anchor:     binary.LittleEndian.Uint64(b[29:]),
		Flags:      b[37],
	}, nil
}

// StreamEnd terminates a FetchImageStream reply: how much the stream
// carried, and the first LPN past the streamed range (a resume issued with
// From = NextLPN would continue an already-complete stream with nothing).
type StreamEnd struct {
	Chunks  uint64
	Pages   uint64
	NextLPN uint64
}

// Marshal encodes the stream trailer.
func (e *StreamEnd) Marshal() []byte {
	b := make([]byte, 0, 3*8)
	b = binary.LittleEndian.AppendUint64(b, e.Chunks)
	b = binary.LittleEndian.AppendUint64(b, e.Pages)
	b = binary.LittleEndian.AppendUint64(b, e.NextLPN)
	return b
}

// UnmarshalStreamEnd decodes a stream trailer.
func UnmarshalStreamEnd(b []byte) (StreamEnd, error) {
	if len(b) != 3*8 {
		return StreamEnd{}, fmt.Errorf("%w: stream end size %d", ErrBadMessage, len(b))
	}
	return StreamEnd{
		Chunks:  binary.LittleEndian.Uint64(b),
		Pages:   binary.LittleEndian.Uint64(b[8:]),
		NextLPN: binary.LittleEndian.Uint64(b[16:]),
	}, nil
}

// Ack acknowledges durable receipt of segments (or checkpoints) up to and
// including sequence UpTo. The device may only release local pins for data
// covered by an ack — that ordering is what makes retention loss-free.
//
// SvcNs carries the storage tier's modeled service time for persisting the
// acked payload (s3sim's Put latency; zero on free local tiers), so the
// device-side ack latency model reflects the backend the server actually
// wrote to, not just the NVMe-oE wire.
type Ack struct {
	UpTo  uint64
	SvcNs uint64
}

const ackSize = 16

// Marshal encodes the ack.
func (a *Ack) Marshal() []byte {
	b := make([]byte, 0, ackSize)
	b = binary.LittleEndian.AppendUint64(b, a.UpTo)
	return binary.LittleEndian.AppendUint64(b, a.SvcNs)
}

// UnmarshalAck decodes an ack.
func UnmarshalAck(b []byte) (Ack, error) {
	if len(b) != ackSize {
		return Ack{}, fmt.Errorf("%w: ack size %d", ErrBadMessage, len(b))
	}
	return Ack{UpTo: binary.LittleEndian.Uint64(b), SvcNs: binary.LittleEndian.Uint64(b[8:])}, nil
}

// Checkpoint carries the device's live-version table at a given log
// sequence: per LPN, the sequence of the write that produced its current
// content (all ones for an unmapped page), as it stood just before entry
// Seq. core.Reopen seeds its log replay from it; a delta restore reads only
// its Seq.
type Checkpoint struct {
	Seq       uint64
	WriteSeqs []uint64
}

// Marshal encodes the checkpoint.
func (c *Checkpoint) Marshal() []byte { return c.AppendMarshal(make([]byte, 0, c.MarshaledSize())) }

// MarshaledSize is the length of the checkpoint's marshal.
func (c *Checkpoint) MarshaledSize() int { return 16 + 8*len(c.WriteSeqs) }

// AppendMarshal is Marshal appending to b.
func (c *Checkpoint) AppendMarshal(b []byte) []byte {
	b = binary.LittleEndian.AppendUint64(b, c.Seq)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(c.WriteSeqs)))
	for _, v := range c.WriteSeqs {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	return b
}

// UnmarshalCheckpoint decodes a checkpoint.
func UnmarshalCheckpoint(b []byte) (Checkpoint, error) {
	if len(b) < 16 {
		return Checkpoint{}, fmt.Errorf("%w: checkpoint header", ErrBadMessage)
	}
	c := Checkpoint{Seq: binary.LittleEndian.Uint64(b)}
	// Bound the count by the body before multiplying: 8*n wraps for a
	// count of 2^61 and would pass a header-only payload.
	n := binary.LittleEndian.Uint64(b[8:])
	if body := uint64(len(b) - 16); n > body/8 || 8*n != body {
		return Checkpoint{}, fmt.Errorf("%w: checkpoint body %d for %d entries", ErrBadMessage, len(b)-16, n)
	}
	c.WriteSeqs = make([]uint64, n)
	for i := range c.WriteSeqs {
		c.WriteSeqs[i] = binary.LittleEndian.Uint64(b[16+8*i:])
	}
	return c, nil
}

// Head describes the remote store's view of a device's log chain.
type Head struct {
	NextSeq uint64   // one past the highest contiguous sequence stored
	Hash    [32]byte // chain hash at NextSeq-1 (zero when empty)
}

// Marshal encodes the head.
func (h *Head) Marshal() []byte {
	b := binary.LittleEndian.AppendUint64(nil, h.NextSeq)
	return append(b, h.Hash[:]...)
}

// UnmarshalHead decodes a head.
func UnmarshalHead(b []byte) (Head, error) {
	if len(b) != 8+32 {
		return Head{}, fmt.Errorf("%w: head size %d", ErrBadMessage, len(b))
	}
	var h Head
	h.NextSeq = binary.LittleEndian.Uint64(b)
	copy(h.Hash[:], b[8:])
	return h, nil
}

// ErrorMsg carries a server-side failure back to the device.
type ErrorMsg struct {
	Code uint32
	Text string
}

// Marshal encodes the error message.
func (e *ErrorMsg) Marshal() []byte {
	b := binary.LittleEndian.AppendUint32(nil, e.Code)
	return append(b, e.Text...)
}

// UnmarshalErrorMsg decodes an error message.
func UnmarshalErrorMsg(b []byte) (ErrorMsg, error) {
	if len(b) < 4 {
		return ErrorMsg{}, fmt.Errorf("%w: error msg size %d", ErrBadMessage, len(b))
	}
	return ErrorMsg{Code: binary.LittleEndian.Uint32(b), Text: string(b[4:])}, nil
}
