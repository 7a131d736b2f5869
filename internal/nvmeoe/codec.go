package nvmeoe

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"repro/internal/bufpool"
)

// This file is the one compression implementation in the tree: the frame
// layer, the segment-blob wire format, and the retention-capacity models
// all compress through it.
//
// Segment blobs — the unit the offload engine ships and the remote store
// persists — carry their own codec header, so the same encoded bytes travel
// the NVMe-oE wire and land in the object store unchanged: compressed on
// the wire IS compressed at rest, and the server never re-compresses. The
// header is mandatory: a payload without it does not decode. Only bytes kept
// at rest (segment blobs) or priced on the link (image-stream chunks) deflate:
// a fetch reply is stored (AppendStoredHeader), and its header keeps the frame
// layer from deflating it either. A decoder accepts both codecs from anyone.
//
// The same rule holds inside a deflate blob, one block at a time: the
// encoder stores every match-less run of at least 1 KiB that no code could
// shrink by a sixteenth — the random part of a page — as a block of its own,
// so the server's ingest, a restore and a re-push copy those bytes instead
// of Huffman-decoding them, and codes only what compresses.

// Codec identifies how a segment blob's payload is encoded.
type Codec uint8

// Segment-blob codecs. The numbers are wire values; 0 is not a codec.
const (
	// CodecDeflate stores the segment marshal DEFLATE-compressed.
	CodecDeflate Codec = 1
	// CodecStored stores the segment marshal verbatim, and DecodeSegmentBlob
	// hands it back in place. The encoder picks it when deflate saves less
	// than 1/16th of the raw size — at that ratio the wire win cannot pay
	// for inflating on every ingest, restore, and recovery read — and every
	// fetch reply is stored (AppendStoredHeader).
	CodecStored Codec = 2
)

func (c Codec) String() string {
	switch c {
	case CodecDeflate:
		return "deflate"
	case CodecStored:
		return "stored"
	default:
		return fmt.Sprintf("Codec(%d)", uint8(c))
	}
}

// storedSavingShift sets the deflate-versus-stored break-even: compression
// must save at least raw>>storedSavingShift (1/16th) or the blob is stored.
const storedSavingShift = 4

// blob header layout: magic(4) codec(1) rawLen(4) = 9 bytes.
const (
	blobMagic      = 0x43535352 // "RSSC": RSSD Segment Codec
	blobHeaderSize = 9
)

// ErrBadBlob reports a segment blob whose codec framing does not decode.
var ErrBadBlob = errors.New("nvmeoe: malformed segment blob")

// BlobOverhead is the codec frame's fixed cost; AppendSegmentBlob never
// appends more than BlobOverhead+len(raw) bytes, so callers can size a
// pooled destination exactly.
const BlobOverhead = blobHeaderSize

// EncodeSegmentBlob wraps a marshaled segment in the codec frame,
// compressing when that shrinks it. The result is what goes on the wire
// and into the object store.
func EncodeSegmentBlob(raw []byte) []byte {
	return AppendSegmentBlob(make([]byte, 0, blobHeaderSize+len(raw)), raw)
}

// AppendSegmentBlob is EncodeSegmentBlob into a caller-provided buffer: it
// appends the codec-framed blob to dst and returns the extended slice. This
// is the encode hot loop's entry point — with a pooled dst of capacity
// BlobOverhead+len(raw) it allocates nothing.
func AppendSegmentBlob(dst, raw []byte) []byte {
	base := len(dst)
	dst = AppendStoredHeader(dst, len(raw))
	out, ok := AppendDeflate(dst, raw)
	if !ok || len(raw)-(len(out)-len(dst)) < len(raw)>>storedSavingShift {
		// Deflate failed to shrink, or shrank by less than 1/16th: take the
		// stored fast path so every downstream decode is a straight copy.
		return append(dst, raw...)
	}
	out[base+4] = byte(CodecDeflate)
	return out
}

// AppendStoredHeader appends the codec header of a stored blob whose marshal
// is rawLen bytes; the caller appends exactly that marshal behind it. A fetch
// reply is marshaled this way, once, into the buffer it is framed from.
func AppendStoredHeader(dst []byte, rawLen int) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, blobMagic)
	dst = append(dst, byte(CodecStored))
	return binary.LittleEndian.AppendUint32(dst, uint32(rawLen))
}

// DecodeSegmentBlob returns the marshaled segment inside blob, inflating
// when the codec header says so. A stored blob's result aliases blob rather
// than copying; use AppendDecodeSegmentBlob when the result must land in a
// caller-owned (pooled) buffer.
func DecodeSegmentBlob(blob []byte) ([]byte, error) {
	if IsSegmentBlob(blob) && Codec(blob[4]) == CodecStored {
		body := blob[blobHeaderSize:]
		if rawLen := binary.LittleEndian.Uint32(blob[5:]); uint32(len(body)) != rawLen {
			return nil, fmt.Errorf("%w: raw length %d, header says %d", ErrBadBlob, len(body), rawLen)
		}
		return body, nil
	}
	return AppendDecodeSegmentBlob(nil, blob)
}

// AppendDecodeSegmentBlob is DecodeSegmentBlob into a caller-provided
// buffer: the decoded marshal is appended to dst (always copied, so the
// result never aliases blob). The ingest hot loop decodes through it with
// a pooled dst sized by SegmentBlobLogicalSize; with sufficient capacity it
// allocates nothing.
// dst's spare capacity is the inflater's scratch (see bufpool's
// Inflater.Append): pass a pooled or fresh buffer.
func AppendDecodeSegmentBlob(dst, blob []byte) ([]byte, error) {
	if !IsSegmentBlob(blob) {
		return nil, fmt.Errorf("%w: no codec header", ErrBadBlob)
	}
	codec := Codec(blob[4])
	rawLen := binary.LittleEndian.Uint32(blob[5:])
	body := blob[blobHeaderSize:]
	switch codec {
	case CodecStored:
		if uint32(len(body)) != rawLen {
			return nil, fmt.Errorf("%w: raw length %d, header says %d", ErrBadBlob, len(body), rawLen)
		}
		return append(dst, body...), nil
	case CodecDeflate:
		// A flipped bit in the header can claim any 32-bit logical size; no
		// honest encoder exceeds the frame bound, so reject before decoding
		// and cap the inflate at the claimed size — corruption can neither
		// trigger a giant allocation nor balloon output past its own claim.
		if rawLen > MaxPayload {
			return nil, fmt.Errorf("%w: claimed logical size %d exceeds %d", ErrBadBlob, rawLen, MaxPayload)
		}
		// Where dst lacks the room the header asks for — the fetch path
		// decodes into nil — grow it once, with the decoder's slack, rather
		// than let the inflate regrow it by doubling as it goes.
		if cap(dst)-len(dst) < int(rawLen) {
			dst = slices.Grow(dst, int(rawLen)+bufpool.InflateSlack)
		}
		base := len(dst)
		out, err := AppendInflateLimited(dst, body, int(rawLen))
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadBlob, err)
		}
		if uint32(len(out)-base) != rawLen {
			return nil, fmt.Errorf("%w: inflated to %d, header says %d", ErrBadBlob, len(out)-base, rawLen)
		}
		return out, nil
	default:
		return nil, fmt.Errorf("%w: unknown codec %d", ErrBadBlob, codec)
	}
}

// SegmentBlobLogicalSize returns the decoded (logical) size of a segment
// blob without inflating it: the codec header records it. It is 0 for a
// payload decode is going to reject — no header, or a claim past the frame
// bound, which no honest encoder makes — so nothing is sized by such a
// claim.
func SegmentBlobLogicalSize(blob []byte) int {
	if !IsSegmentBlob(blob) {
		return 0
	}
	n := int(binary.LittleEndian.Uint32(blob[5:]))
	if n > MaxPayload {
		return 0
	}
	return n
}

// IsSegmentBlob reports whether b carries the codec frame header.
func IsSegmentBlob(b []byte) bool {
	return len(b) >= blobHeaderSize && binary.LittleEndian.Uint32(b) == blobMagic
}

// Deflate compresses p, reporting false when compression does not shrink it.
func Deflate(p []byte) ([]byte, bool) { return AppendDeflate(nil, p) }

// AppendDeflate appends the DEFLATE compression of p to dst, reporting
// false — with dst returned unchanged — when compression does not shrink p.
// The compressor is pooled (bufpool.Deflater, the in-house one-pass encoder:
// a quarter-megabyte of tables that nothing clears between calls); with
// capacity for the stream and a few bytes more the call allocates nothing,
// and like the inflater it may scribble on spare capacity beyond the result.
func AppendDeflate(dst, p []byte) ([]byte, bool) {
	d := bufpool.GetDeflater()
	out, err := d.Append(dst, p)
	d.Release()
	if err != nil || len(out)-len(dst) >= len(p) {
		return dst, false
	}
	return out, true
}

// AppendInflateLimited appends the decompression of the DEFLATE stream p
// to dst, bounded to max decoded bytes: a stream that would produce more
// fails instead of ballooning memory — the decode guard for wire blobs
// whose header declares their logical size. The decompressor is pooled;
// with sufficient dst capacity the call allocates nothing.
func AppendInflateLimited(dst, p []byte, max int) ([]byte, error) {
	i := bufpool.GetInflater()
	out, err := i.AppendLimited(dst, p, max)
	i.Release()
	return out, err
}

// CompressionRatio reports how much the codec shrinks p (original/encoded);
// the retention-capacity models use it to size the LocalSSD+Compression
// baseline and the offload bandwidth estimates.
func CompressionRatio(p []byte) float64 {
	c, ok := Deflate(p)
	if !ok || len(c) == 0 {
		return 1
	}
	return float64(len(p)) / float64(len(c))
}
