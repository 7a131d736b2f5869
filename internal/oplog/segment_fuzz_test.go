package oplog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime/metrics"
	"slices"
	"testing"
)

// Offsets of the two counts in the 52-byte segment header.
const (
	hdrEntryCount = 44
	hdrPageCount  = 48
)

// oldLayout is seg as it was marshaled before protocol v3: another magic, and
// every entry followed by its PrevHash and Hash, 141 bytes in all.
func oldLayout(seg *Segment) []byte {
	now := seg.Marshal()
	b := binary.LittleEndian.AppendUint32(nil, 0x52535347) // "RSSG"
	b = append(b, now[4:headerSize]...)
	for i := range seg.Entries {
		e := &seg.Entries[i]
		b = append(append(e.appendBody(b), e.PrevHash[:]...), e.Hash[:]...)
	}
	return append(b, now[headerSize+chainSize+len(seg.Entries)*EntrySize:]...)
}

// TestUnmarshalSegmentRefusesBrokenChains: what the committed seeds
// body-bit-flipped, last-hash-flipped, entries-swapped and
// old-141-byte-layout hold, each refused for its own reason.
func TestUnmarshalSegmentRefusesBrokenChains(t *testing.T) {
	seg := allocTestSegment()
	full := seg.Marshal()
	const entriesAt = headerSize + chainSize
	last := len(seg.Entries) - 1
	for _, tc := range []struct {
		name   string
		mutate func(b []byte)
		index  int
	}{
		{"body bit flipped", func(b []byte) { b[entriesAt+EntrySize+20] ^= 0x04 }, last},
		{"previous hash flipped", func(b []byte) { b[headerSize] ^= 0x01 }, last},
		{"last hash flipped", func(b []byte) { b[headerSize+HashSize+5] ^= 0x80 }, last},
		{"entries swapped", func(b []byte) {
			one := append([]byte(nil), b[entriesAt+EntrySize:entriesAt+2*EntrySize]...)
			copy(b[entriesAt+EntrySize:], b[entriesAt+2*EntrySize:entriesAt+3*EntrySize])
			copy(b[entriesAt+2*EntrySize:], one)
		}, 1},
	} {
		b := append([]byte(nil), full...)
		tc.mutate(b)
		got, err := UnmarshalSegment(b)
		var ce *ChainError
		if got != nil || !errors.Is(err, ErrBadSegment) || !errors.As(err, &ce) || ce.Index != tc.index {
			t.Fatalf("%s: err=%v, want ErrBadSegment with a ChainError at %d", tc.name, err, tc.index)
		}
	}
	if got, err := UnmarshalSegment(oldLayout(seg)); got != nil || !errors.Is(err, ErrBadMagic) {
		t.Fatalf("141-byte layout: err=%v, want ErrBadMagic", err)
	}
}

// lyingHeader is the marshal of an empty segment whose header claims count
// entries or pages: 52 bytes in all.
func lyingHeader(off int, count uint32) []byte {
	b := (&Segment{DeviceID: 1}).Marshal()
	binary.LittleEndian.PutUint32(b[off:], count)
	return b
}

// TestUnmarshalSegmentBoundsCounts: the header's counts size two slices, so
// they are held against the bytes that follow first. Unchecked, 52 bytes
// claiming 2^31 entries end the process in an out-of-memory fatal error no
// recover catches.
func TestUnmarshalSegmentBoundsCounts(t *testing.T) {
	for _, off := range []int{hdrEntryCount, hdrPageCount} {
		for _, count := range []uint32{1, 1 << 31, ^uint32(0)} {
			if _, err := UnmarshalSegment(lyingHeader(off, count)); !errors.Is(err, ErrBadSegment) {
				t.Fatalf("count %d at byte %d: err=%v, want ErrBadSegment", count, off, err)
			}
		}
	}
}

// heapAllocated is the cumulative bytes allocated, read without stopping the
// world. Large allocations, the ones a lying count causes, are counted at
// once; small ones when their span fills.
func heapAllocated() uint64 {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(sample)
	return sample[0].Value.Uint64()
}

// FuzzUnmarshalSegment feeds the segment decoder arbitrary bytes, as the
// server's ingest, Store.Reload and every client fetch do with whatever
// a blob decoded to: it must not panic, must fail only with ErrBadSegment or
// ErrBadMagic, must not allocate beyond a small multiple of its input, and
// what it accepts must be a verified chain from its first entry's PrevHash
// that marshals back to the same bytes.
//
//	go test -run xxx -fuzz FuzzUnmarshalSegment -fuzztime 30s ./internal/oplog
func FuzzUnmarshalSegment(f *testing.F) {
	full := allocTestSegment().Marshal()
	// testdata/fuzz/FuzzUnmarshalSegment holds the shapes: cuts, trailing
	// bytes, entries only, empty pages, headers that lie about a count, a
	// flipped body bit, a flipped last hash, two entries swapped, and the
	// 141-byte layout.
	f.Add(full)
	f.Add(lyingHeader(hdrEntryCount, 1<<20))
	f.Add(oldLayout(allocTestSegment()))

	f.Fuzz(func(t *testing.T, b []byte) {
		var seg *Segment
		var err error
		withinDecodeBound(t, b, func() { seg, err = UnmarshalSegment(b) })
		if err != nil {
			if seg != nil || !(errors.Is(err, ErrBadSegment) || errors.Is(err, ErrBadMagic)) {
				t.Fatalf("err=%v, segment %v", err, seg != nil)
			}
			return
		}
		if len(seg.Entries) > 0 {
			if err := VerifyChain(seg.Entries, seg.Entries[0].PrevHash); err != nil {
				t.Fatalf("accepted entries that are not a chain: %v", err)
			}
		}
		if again := seg.Marshal(); !bytes.Equal(again, b) {
			t.Fatalf("accepted %d bytes, marshals back to %d different ones", len(b), len(again))
		}
	})
}

// withinDecodeBound runs decode, which decodes b, and fails t if it allocated
// more than a small multiple of b. In memory an entry is twice its 77 bytes
// on the wire and a page record of no data twice its 61; the rest is error
// text. The counter is the process's, and a fuzzing worker allocates on the
// side: what the decoder itself allocates shows on every one of three tries.
func withinDecodeBound(t *testing.T, b []byte, decode func()) {
	t.Helper()
	limit := uint64(4*len(b) + 64<<10)
	allocated := ^uint64(0)
	for try := 0; try < 3 && allocated > limit; try++ {
		before := heapAllocated()
		decode()
		allocated = min(allocated, heapAllocated()-before)
	}
	if allocated > limit {
		t.Fatalf("%d bytes in, %d allocated (limit %d)", len(b), allocated, limit)
	}
}

// FuzzAppendSegmentEntries holds the fetch path's decoder to the segment
// decoder on arbitrary bytes: it accepts exactly what UnmarshalSegment accepts
// with no pages, appending the same entries behind dst's; on error it leaves
// dst's elements as they were; and it stays inside the same allocation bound.
//
//	go test -run xxx -fuzz FuzzAppendSegmentEntries -fuzztime 30s ./internal/oplog
func FuzzAppendSegmentEntries(f *testing.F) {
	f.Add(chainedSegment(5).Marshal())
	f.Add(allocTestSegment().Marshal())
	f.Add((&Segment{DeviceID: 1}).Marshal())
	f.Add(lyingHeader(hdrEntryCount, 1<<20))
	f.Add(oldLayout(chainedSegment(3)))

	prefix := chainedSegment(3).Entries
	f.Fuzz(func(t *testing.T, b []byte) {
		dst := slices.Clone(prefix)
		var got []Entry
		var err error
		withinDecodeBound(t, b, func() { got, err = AppendSegmentEntries(dst, b) })
		seg, segErr := UnmarshalSegment(b)
		if segErr == nil && len(seg.Pages) > 0 {
			segErr = ErrBadSegment
		}
		if (err == nil) != (segErr == nil) {
			t.Fatalf("AppendSegmentEntries err=%v, UnmarshalSegment err=%v", err, segErr)
		}
		if !slices.Equal(dst, prefix) {
			t.Fatal("dst's elements were written")
		}
		if err != nil {
			if !errors.Is(err, ErrBadSegment) && !errors.Is(err, ErrBadMagic) {
				t.Fatalf("err=%v", err)
			}
			if len(got) != len(dst) || &got[0] != &dst[0] {
				t.Fatalf("on error returned %d entries, not dst", len(got))
			}
			return
		}
		if !slices.Equal(got[:len(prefix)], prefix) || !slices.Equal(got[len(prefix):], seg.Entries) {
			t.Fatalf("appended %d entries, UnmarshalSegment decoded %d", len(got)-len(prefix), len(seg.Entries))
		}
	})
}
