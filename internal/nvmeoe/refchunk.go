package nvmeoe

import (
	"encoding/binary"
	"fmt"
)

// RefChunk is the restore wire format: one MsgFetchChunkRef frame carries
// a run of LPN-ordered page versions where each page is either a
// literal (full payload with its content hash) or, on a stream opened with
// FetchFlagDedup, a hash reference (32-byte content hash only; the device
// resolves it from the literals it has already cached this restore). The
// server guarantees every referenced hash was sent as a literal earlier in
// the same stream session, so a resolve miss is a protocol error, not a
// cache-sizing problem. The raw chunk is wrapped in the segment-blob codec
// before framing so literal payloads still compress.
//
// Layout (little-endian):
//
//	magic   u32  "RSSH"
//	device  u64
//	count   u32
//	count × page:
//	  lpn      u64
//	  writeSeq u64
//	  staleSeq u64
//	  cause    u8
//	  flags    u8   bit0 = hash reference (no payload)
//	  hash     [32]byte
//	  dataLen  u32  (0 for references)
//	  data     [dataLen]byte
const refChunkMagic = 0x48535352 // "RSSH"

const (
	refChunkHeaderSize = 4 + 8 + 4
	refPageFixedSize   = 8 + 8 + 8 + 1 + 1 + 32 + 4
	refPageFlagRef     = uint8(1 << 0)
)

// RefPage is one page of a RefChunk. It mirrors oplog.PageRecord but stays
// wire-local: this package does not import oplog, so the server and device
// convert at the boundary.
type RefPage struct {
	LPN      uint64
	WriteSeq uint64
	StaleSeq uint64
	Cause    uint8
	Ref      bool // true: Data omitted on the wire; resolve Hash device-side
	Hash     [32]byte
	Data     []byte // literal payload; nil when Ref
}

// RefChunkWireSize returns exactly len(AppendRefChunk(nil, ...)); the
// server uses it to size pooled encode buffers.
func RefChunkWireSize(pages []RefPage) int {
	size := refChunkHeaderSize + len(pages)*refPageFixedSize
	for i := range pages {
		if !pages[i].Ref {
			size += len(pages[i].Data)
		}
	}
	return size
}

// AppendRefChunk appends the serialized chunk to dst and returns the
// extended slice. With a pooled buffer of capacity RefChunkWireSize it
// allocates nothing — the dedup encode hot loop's contract.
func AppendRefChunk(dst []byte, deviceID uint64, pages []RefPage) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, refChunkMagic)
	dst = binary.LittleEndian.AppendUint64(dst, deviceID)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(pages)))
	for i := range pages {
		p := &pages[i]
		dst = binary.LittleEndian.AppendUint64(dst, p.LPN)
		dst = binary.LittleEndian.AppendUint64(dst, p.WriteSeq)
		dst = binary.LittleEndian.AppendUint64(dst, p.StaleSeq)
		dst = append(dst, p.Cause)
		var flags uint8
		if p.Ref {
			flags |= refPageFlagRef
		}
		dst = append(dst, flags)
		dst = append(dst, p.Hash[:]...)
		if p.Ref {
			dst = binary.LittleEndian.AppendUint32(dst, 0)
			continue
		}
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(p.Data)))
		dst = append(dst, p.Data...)
	}
	return dst
}

// WalkRefChunk decodes a serialized RefChunk, invoking fn once per page in
// stream order. Literal Data slices alias b — callers that retain a page
// past the walk must copy. Returns the encoding device ID.
func WalkRefChunk(b []byte, fn func(p RefPage) error) (deviceID uint64, err error) {
	if len(b) < refChunkHeaderSize {
		return 0, fmt.Errorf("%w: ref chunk header %d bytes", ErrBadMessage, len(b))
	}
	if binary.LittleEndian.Uint32(b) != refChunkMagic {
		return 0, fmt.Errorf("%w: bad ref chunk magic", ErrBadMessage)
	}
	deviceID = binary.LittleEndian.Uint64(b[4:])
	count := int(binary.LittleEndian.Uint32(b[12:]))
	off := refChunkHeaderSize
	for i := 0; i < count; i++ {
		if len(b)-off < refPageFixedSize {
			return deviceID, fmt.Errorf("%w: ref chunk truncated at page %d", ErrBadMessage, i)
		}
		var p RefPage
		p.LPN = binary.LittleEndian.Uint64(b[off:])
		p.WriteSeq = binary.LittleEndian.Uint64(b[off+8:])
		p.StaleSeq = binary.LittleEndian.Uint64(b[off+16:])
		p.Cause = b[off+24]
		flags := b[off+25]
		copy(p.Hash[:], b[off+26:off+58])
		dataLen := int(binary.LittleEndian.Uint32(b[off+58:]))
		off += refPageFixedSize
		if flags&^refPageFlagRef != 0 {
			return deviceID, fmt.Errorf("%w: ref page %d has unknown flags %#x", ErrBadMessage, i, flags)
		}
		p.Ref = flags&refPageFlagRef != 0
		if p.Ref {
			if dataLen != 0 {
				return deviceID, fmt.Errorf("%w: ref page %d carries %d payload bytes", ErrBadMessage, i, dataLen)
			}
		} else {
			if len(b)-off < dataLen {
				return deviceID, fmt.Errorf("%w: ref chunk payload truncated at page %d", ErrBadMessage, i)
			}
			p.Data = b[off : off+dataLen : off+dataLen]
			off += dataLen
		}
		if err := fn(p); err != nil {
			return deviceID, err
		}
	}
	if off != len(b) {
		return deviceID, fmt.Errorf("%w: %d trailing bytes after ref chunk", ErrBadMessage, len(b)-off)
	}
	return deviceID, nil
}
