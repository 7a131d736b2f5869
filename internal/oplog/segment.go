package oplog

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/simclock"
)

// PageRecord carries one retained page's contents out of the device during
// offload. WriteSeq is the log sequence of the write that produced this
// version (stamped in the flash page's OOB area), StaleSeq the sequence of
// the overwrite/trim that made it stale. Together they let the remote
// store index versions by (LPN, lifetime interval), which is what recovery
// queries.
type PageRecord struct {
	LPN      uint64
	WriteSeq uint64
	StaleSeq uint64
	Cause    uint8 // ftl.StaleCause value; kept as raw byte to avoid a dependency cycle
	Hash     [HashSize]byte
	Data     []byte
}

// Segment is the unit of offload: a contiguous run of log entries plus the
// retained pages whose local copies the device wants to reclaim. Segments
// are produced in time order, preserving the paper's "transfer in time
// order" property that post-attack analysis relies on.
//
// Marshaled, a segment that has entries carries two chain hashes once — the
// one its first entry chains onto and the one its last entry ends at — and
// each entry as its EntrySize-byte hashed body. UnmarshalSegment derives
// every entry's PrevHash and Hash from the first and holds the chain it
// derived against the second, so reading a segment and verifying its chain
// are one SHA-256 pass.
type Segment struct {
	DeviceID  uint64
	FirstSeq  uint64 // first entry sequence (== Entries[0].Seq when present)
	LastSeq   uint64 // one past the last entry sequence
	FirstTime simclock.Time
	LastTime  simclock.Time
	Entries   []Entry
	Pages     []PageRecord

	// derived is Entries as UnmarshalSegment returned it, a verified chain
	// from Entries[0].PrevHash; VerifyChain hashes again unless Entries is
	// still that slice.
	derived []Entry
}

const segmentMagic = 0x33535352 // "RSS3": entries without their chain hashes

// Marshaled sizes: the fixed header (magic, five uint64s, two counts), the
// two chain hashes that follow it when the segment has entries, and a page
// record's fixed part.
const (
	headerSize     = 4 + 8 + 8 + 8 + 8 + 8 + 4 + 4
	chainSize      = 2 * HashSize
	pageHeaderSize = 8 + 8 + 8 + 1 + HashSize + 4
)

// Errors returned by segment decoding.
var (
	ErrBadSegment = errors.New("oplog: malformed segment")
	ErrBadMagic   = errors.New("oplog: bad segment magic")
)

// MarshaledSize returns exactly len(Marshal()) without marshaling; the
// offload engine uses it to size pooled encode buffers and to model the
// encode stage's simulated duration before the real encode runs.
func (s *Segment) MarshaledSize() int {
	size := headerSize + len(s.Entries)*EntrySize
	if len(s.Entries) > 0 {
		size += chainSize
	}
	for i := range s.Pages {
		size += pageHeaderSize + len(s.Pages[i].Data)
	}
	return size
}

// Marshal serializes the segment.
func (s *Segment) Marshal() []byte {
	return s.AppendMarshal(make([]byte, 0, s.MarshaledSize()))
}

// AppendMarshal is Marshal into a caller-provided buffer: the serialized
// segment is appended to b and the extended slice returned. With a pooled
// buffer of capacity MarshaledSize it allocates nothing — the encode hot
// loop's contract.
func (s *Segment) AppendMarshal(b []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, segmentMagic)
	b = binary.LittleEndian.AppendUint64(b, s.DeviceID)
	b = binary.LittleEndian.AppendUint64(b, s.FirstSeq)
	b = binary.LittleEndian.AppendUint64(b, s.LastSeq)
	b = binary.LittleEndian.AppendUint64(b, uint64(s.FirstTime))
	b = binary.LittleEndian.AppendUint64(b, uint64(s.LastTime))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(s.Entries)))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(s.Pages)))
	if n := len(s.Entries); n > 0 {
		b = append(b, s.Entries[0].PrevHash[:]...)
		b = append(b, s.Entries[n-1].Hash[:]...)
	}
	for i := range s.Entries {
		b = s.Entries[i].Marshal(b)
	}
	for i := range s.Pages {
		p := &s.Pages[i]
		b = binary.LittleEndian.AppendUint64(b, p.LPN)
		b = binary.LittleEndian.AppendUint64(b, p.WriteSeq)
		b = binary.LittleEndian.AppendUint64(b, p.StaleSeq)
		b = append(b, p.Cause)
		b = append(b, p.Hash[:]...)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(p.Data)))
		b = append(b, p.Data...)
	}
	return b
}

// UnmarshalSegment decodes a segment produced by Marshal. The entries it
// returns are a verified chain from Entries[0].PrevHash: each is sealed onto
// the hash derived for the one before it, and a segment whose derived chain
// does not end at the carried last hash, or whose sequences are not
// contiguous, is refused with ErrBadSegment wrapping a *ChainError. What is
// left to the caller is whether that first PrevHash is the hash it expected.
func UnmarshalSegment(b []byte) (*Segment, error) {
	if len(b) < headerSize {
		return nil, ErrBadSegment
	}
	if binary.LittleEndian.Uint32(b[0:]) != segmentMagic {
		return nil, ErrBadMagic
	}
	s := &Segment{
		DeviceID:  binary.LittleEndian.Uint64(b[4:]),
		FirstSeq:  binary.LittleEndian.Uint64(b[12:]),
		LastSeq:   binary.LittleEndian.Uint64(b[20:]),
		FirstTime: simclock.Time(binary.LittleEndian.Uint64(b[28:])),
		LastTime:  simclock.Time(binary.LittleEndian.Uint64(b[36:])),
	}
	nEntries := binary.LittleEndian.Uint32(b[44:])
	nPages := binary.LittleEndian.Uint32(b[48:])
	b = b[headerSize:]
	// The counts are the sender's claim: hold them against the bytes that
	// follow before sizing anything by them.
	entryBytes := uint64(nEntries) * EntrySize
	if nEntries > 0 {
		entryBytes += chainSize
	}
	if entryBytes > uint64(len(b)) || uint64(nPages) > (uint64(len(b))-entryBytes)/pageHeaderSize {
		return nil, fmt.Errorf("%w: %d entries and %d pages claimed in %d bytes", ErrBadSegment, nEntries, nPages, len(b))
	}
	s.Entries = make([]Entry, nEntries)
	if nEntries > 0 {
		// One stack buffer holds what an entry's hash covers: the previous
		// hash, then the body as it lies in b.
		var sealed [HashSize + EntrySize]byte
		prev, body := sealed[:HashSize], sealed[HashSize:]
		copy(prev, b)
		last := [HashSize]byte(b[HashSize:chainSize])
		b = b[chainSize:]
		for i := range s.Entries {
			e := &s.Entries[i]
			copy(body, b)
			e.setBody(body)
			e.PrevHash = [HashSize]byte(prev)
			e.Hash = sha256.Sum256(sealed[:])
			if i > 0 && e.Seq != s.Entries[i-1].Seq+1 {
				return nil, fmt.Errorf("%w: %w", ErrBadSegment, &ChainError{Index: i, Seq: e.Seq, Reason: "sequence gap"})
			}
			copy(prev, e.Hash[:])
			b = b[EntrySize:]
		}
		if e := &s.Entries[nEntries-1]; e.Hash != last {
			return nil, fmt.Errorf("%w: %w", ErrBadSegment,
				&ChainError{Index: int(nEntries) - 1, Seq: e.Seq, Reason: "derived chain does not end at the segment's last hash"})
		}
		s.derived = s.Entries
	}
	s.Pages = make([]PageRecord, 0, nPages)
	for i := uint32(0); i < nPages; i++ {
		if len(b) < pageHeaderSize {
			return nil, fmt.Errorf("%w: page %d header", ErrBadSegment, i)
		}
		var p PageRecord
		p.LPN = binary.LittleEndian.Uint64(b[0:])
		p.WriteSeq = binary.LittleEndian.Uint64(b[8:])
		p.StaleSeq = binary.LittleEndian.Uint64(b[16:])
		p.Cause = b[24]
		copy(p.Hash[:], b[25:25+HashSize])
		n := binary.LittleEndian.Uint32(b[25+HashSize:])
		b = b[pageHeaderSize:]
		if uint32(len(b)) < n {
			return nil, fmt.Errorf("%w: page %d data", ErrBadSegment, i)
		}
		p.Data = append([]byte(nil), b[:n]...)
		b = b[n:]
		s.Pages = append(s.Pages, p)
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadSegment, len(b))
	}
	return s, nil
}

// VerifyChain checks that the segment's entries form an unbroken hash chain
// starting from prev, as the package's VerifyChain does. Entries that came
// out of UnmarshalSegment were hashed there, once: for them what remains is
// that the chain they were derived from starts at prev.
func (s *Segment) VerifyChain(prev [HashSize]byte) error {
	if n := len(s.Entries); n == 0 || len(s.derived) != n || &s.derived[0] != &s.Entries[0] {
		return VerifyChain(s.Entries, prev)
	}
	if e := &s.Entries[0]; e.PrevHash != prev {
		return &ChainError{Index: 0, Seq: e.Seq, Reason: "previous-hash mismatch"}
	}
	return nil
}

// VerifyPages checks each page record's content hash. Recovery refuses to
// restore from a page whose hash does not match the log.
func (s *Segment) VerifyPages() error {
	for i := range s.Pages {
		p := &s.Pages[i]
		if sha256.Sum256(p.Data) != p.Hash {
			return fmt.Errorf("oplog: page record %d (lpn %d, writeSeq %d): content hash mismatch",
				i, p.LPN, p.WriteSeq)
		}
	}
	return nil
}

// HashData returns the SHA-256 content hash used throughout the log.
func HashData(data []byte) [HashSize]byte { return sha256.Sum256(data) }
