package oplog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime/metrics"
	"testing"
)

// Offsets of the two counts in the 52-byte segment header.
const (
	hdrEntryCount = 44
	hdrPageCount  = 48
)

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
// server's ingest lane, Store.Reload and every client fetch do with whatever
// a blob decoded to: it must not panic, must fail only with ErrBadSegment or
// ErrBadMagic, must not allocate beyond a small multiple of its input, and
// what it accepts must marshal back to the same bytes.
//
//	go test -run xxx -fuzz FuzzUnmarshalSegment -fuzztime 30s ./internal/oplog
func FuzzUnmarshalSegment(f *testing.F) {
	full := allocTestSegment().Marshal()
	// testdata/fuzz/FuzzUnmarshalSegment holds the shapes: cuts, trailing
	// bytes, entries only, empty pages, and headers that lie about a count.
	f.Add(full)
	f.Add(lyingHeader(hdrEntryCount, 1<<20))

	f.Fuzz(func(t *testing.T, b []byte) {
		// In memory an entry is a little larger than on the wire and a page
		// record of no data twice its 61 bytes; the rest is error text. The
		// counter is the process's, and a fuzzing worker allocates on the
		// side: what the decoder itself allocates shows on every try.
		limit := uint64(4*len(b) + 64<<10)
		var seg *Segment
		var err error
		allocated := ^uint64(0)
		for try := 0; try < 3 && allocated > limit; try++ {
			before := heapAllocated()
			seg, err = UnmarshalSegment(b)
			allocated = min(allocated, heapAllocated()-before)
		}
		if allocated > limit {
			t.Fatalf("%d bytes in, %d allocated (limit %d)", len(b), allocated, limit)
		}
		if err != nil {
			if seg != nil || !(errors.Is(err, ErrBadSegment) || errors.Is(err, ErrBadMagic)) {
				t.Fatalf("err=%v, segment %v", err, seg != nil)
			}
			return
		}
		if again := seg.Marshal(); !bytes.Equal(again, b) {
			t.Fatalf("accepted %d bytes, marshals back to %d different ones", len(b), len(again))
		}
	})
}
