package oplog

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

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
func (s *Segment) MarshaledSize() int { return s.MarshaledSizeRuns(s.Entries) }

// MarshaledSizeRuns is MarshaledSize with runs in place of s.Entries, as
// AppendMarshalRuns writes them.
func (s *Segment) MarshaledSizeRuns(runs ...[]Entry) int {
	size := headerSize
	for _, r := range runs {
		size += len(r) * EntrySize
	}
	if size > headerSize {
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
func (s *Segment) AppendMarshal(b []byte) []byte { return s.AppendMarshalRuns(b, s.Entries) }

// AppendMarshalRuns is AppendMarshal with runs, laid end to end, in place of
// s.Entries: byte for byte the marshal of s with Entries set to their
// concatenation, which is never built. remote.Store keeps a device's chain as
// one run per accepted segment and answers a fetch this way.
func (s *Segment) AppendMarshalRuns(b []byte, runs ...[]Entry) []byte {
	n := 0
	var first, last *Entry
	for _, r := range runs {
		if len(r) > 0 {
			if first == nil {
				first = &r[0]
			}
			last = &r[len(r)-1]
		}
		n += len(r)
	}
	b = binary.LittleEndian.AppendUint32(b, segmentMagic)
	b = binary.LittleEndian.AppendUint64(b, s.DeviceID)
	b = binary.LittleEndian.AppendUint64(b, s.FirstSeq)
	b = binary.LittleEndian.AppendUint64(b, s.LastSeq)
	b = binary.LittleEndian.AppendUint64(b, uint64(s.FirstTime))
	b = binary.LittleEndian.AppendUint64(b, uint64(s.LastTime))
	b = binary.LittleEndian.AppendUint32(b, uint32(n))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(s.Pages)))
	if n > 0 {
		b = append(b, first.PrevHash[:]...)
		b = append(b, last.Hash[:]...)
	}
	for _, r := range runs {
		for i := range r {
			b = r[i].Marshal(b)
		}
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
// Each page's Data aliases b: the caller keeps b as long as it uses a page,
// or copies what it keeps.
func UnmarshalSegment(b []byte) (*Segment, error) {
	s := &Segment{}
	nEntries, nPages, b, err := s.decodeHeader(b)
	if err != nil {
		return nil, err
	}
	if nEntries > 0 {
		entries := make([]Entry, nEntries)
		if b, err = deriveChain(entries, b); err != nil {
			return nil, err
		}
		s.Entries, s.derived = entries, entries
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
		p.Data = b[:n:n]
		b = b[n:]
		s.Pages = append(s.Pages, p)
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadSegment, len(b))
	}
	return s, nil
}

// AppendSegmentEntries decodes a page-less segment marshal, what one frame of
// a FetchEntries stream carries, and appends its chain to dst, derived and
// held as UnmarshalSegment does. It accepts exactly what UnmarshalSegment
// accepts with no pages. On error it returns dst, its elements as they were.
// It is SegmentEntryCount and DeriveSegmentEntries in one call.
func AppendSegmentEntries(dst []Entry, b []byte) ([]Entry, error) {
	n, err := SegmentEntryCount(b)
	if err != nil {
		return dst, err
	}
	out := slices.Grow(dst, n)[:len(dst)+n]
	if err := DeriveSegmentEntries(out[len(dst):], b); err != nil {
		return dst, err
	}
	return out, nil
}

// SegmentEntryCount reads the header of a page-less segment marshal and
// returns how many entries it carries, refusing a header AppendSegmentEntries
// refuses. A reader that places each marshal of a stream in one slice sizes
// the place by it before the chain is derived.
func SegmentEntryCount(b []byte) (int, error) {
	var hdr Segment
	n, _, _, err := hdr.decodeHeader(b)
	return n, err
}

// DeriveSegmentEntries derives the chain of a page-less segment marshal into
// dst, which holds exactly SegmentEntryCount(b) entries, and returns the error
// AppendSegmentEntries would: dst is then AppendSegmentEntries' result without
// the slice it appended to. It writes nothing outside dst and reads nothing
// but b, so marshals of one stream derive side by side.
func DeriveSegmentEntries(dst []Entry, b []byte) error {
	var hdr Segment
	n, _, b, err := hdr.decodeHeader(b)
	if err == nil && n != len(dst) {
		err = fmt.Errorf("%w: %d entries to derive into %d", ErrBadSegment, n, len(dst))
	}
	if err == nil {
		b, err = deriveChain(dst, b)
	}
	if err == nil && len(b) != 0 {
		// Page records, which the header's count says are there, are
		// trailing bytes here.
		err = fmt.Errorf("%w: %d trailing bytes", ErrBadSegment, len(b))
	}
	return err
}

// decodeHeader reads the header at the front of b into s and returns the
// entry and page counts and the bytes behind the header. The counts are the
// sender's claim: they are held against the bytes that follow before anything
// is sized by them.
func (s *Segment) decodeHeader(b []byte) (int, uint32, []byte, error) {
	if len(b) < headerSize {
		return 0, 0, nil, ErrBadSegment
	}
	if binary.LittleEndian.Uint32(b[0:]) != segmentMagic {
		return 0, 0, nil, ErrBadMagic
	}
	s.DeviceID = binary.LittleEndian.Uint64(b[4:])
	s.FirstSeq = binary.LittleEndian.Uint64(b[12:])
	s.LastSeq = binary.LittleEndian.Uint64(b[20:])
	s.FirstTime = simclock.Time(binary.LittleEndian.Uint64(b[28:]))
	s.LastTime = simclock.Time(binary.LittleEndian.Uint64(b[36:]))
	nEntries := int(binary.LittleEndian.Uint32(b[44:]))
	nPages := binary.LittleEndian.Uint32(b[48:])
	b = b[headerSize:]
	entryBytes := uint64(nEntries) * EntrySize
	if nEntries > 0 {
		entryBytes += chainSize
	}
	if entryBytes > uint64(len(b)) || uint64(nPages) > (uint64(len(b))-entryBytes)/pageHeaderSize {
		return 0, 0, nil, fmt.Errorf("%w: %d entries and %d pages claimed in %d bytes", ErrBadSegment, nEntries, nPages, len(b))
	}
	return nEntries, nPages, b, nil
}

// deriveChain derives len(entries) entries from b, which holds the two chain
// hashes and then the bodies (nothing when entries is empty), and returns the
// bytes behind the bodies. The header has already been held against len(b).
func deriveChain(entries []Entry, b []byte) ([]byte, error) {
	n := len(entries)
	if n == 0 {
		return b, nil
	}
	// One stack buffer holds what an entry's hash covers: the previous hash,
	// then the body as it lies in b.
	var sealed [HashSize + EntrySize]byte
	prev, body := sealed[:HashSize], sealed[HashSize:]
	copy(prev, b)
	last := [HashSize]byte(b[HashSize:chainSize])
	b = b[chainSize:]
	for i := range entries {
		e := &entries[i]
		copy(body, b)
		e.setBody(body)
		e.PrevHash = [HashSize]byte(prev)
		e.Hash = sha256.Sum256(sealed[:])
		if i > 0 && e.Seq != entries[i-1].Seq+1 {
			return nil, fmt.Errorf("%w: %w", ErrBadSegment, &ChainError{Index: i, Seq: e.Seq, Reason: "sequence gap"})
		}
		copy(prev, e.Hash[:])
		b = b[EntrySize:]
	}
	if e := &entries[n-1]; e.Hash != last {
		return nil, fmt.Errorf("%w: %w", ErrBadSegment,
			&ChainError{Index: n - 1, Seq: e.Seq, Reason: "derived chain does not end at the segment's last hash"})
	}
	return b, nil
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

// VerifyPages checks each page record's content hash, one SHA-256 a page.
// The remote store hashes only a page whose content it does not yet hold.
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
