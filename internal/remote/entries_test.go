package remote

import (
	"reflect"
	"testing"

	"repro/internal/nvmeoe"
	"repro/internal/oplog"
)

// appendFrames is the reference a streamed fetch must equal: each frame's
// marshal appended with oplog.AppendSegmentEntries, one after another, dst
// back as it was at the first error.
func appendFrames(dst []oplog.Entry, frames [][]byte) ([]oplog.Entry, error) {
	out := dst
	for _, raw := range frames {
		var err error
		if out, err = oplog.AppendSegmentEntries(out, raw); err != nil {
			return dst, err
		}
	}
	return out, nil
}

// TestFetchEntriesMatchesAppendingFrames: whatever frames a stream carries,
// AppendEntries returns what appending them one after another returns — the
// same entries in the same places behind what dst held, or the error of the
// earliest frame that fails, with its index — however many workers derive
// them and in whatever order they finish. Five full frames, two of them
// broken at a time; and a range past the room AppendEntries makes up front,
// which grows the slice under frames in flight.
func TestFetchEntriesMatchesAppendingFrames(t *testing.T) {
	l := oplog.New()
	const nFrames = 5
	honest := make([][]byte, nFrames)
	for f := range honest {
		honest[f] = entriesOnly(l, 1, FrameEntries).Marshal()
		l.Prune(l.NextSeq())
	}
	flip := func(raw []byte, off int) []byte {
		raw = append([]byte(nil), raw...)
		raw[off] ^= 0x20
		return raw
	}
	body := func(i int) int { return segEntries + i*oplog.EntrySize + 17 } // an entry's LPN
	seq := func(i int) int { return segEntries + i*oplog.EntrySize }
	for _, tc := range []struct {
		name   string
		broken map[int][]byte
	}{
		{"honest", nil},
		{"bodies of frames 1 and 3", map[int][]byte{1: flip(honest[1], body(700)), 3: flip(honest[3], body(5))}},
		// Frame 2 fails at its second entry, long before frame 1's chain
		// is derived far enough to miss its last hash.
		{"body of frame 1, sequence of frame 2", map[int][]byte{1: flip(honest[1], body(3)), 2: flip(honest[2], seq(1))}},
		{"magic of frame 3, body of frame 4", map[int][]byte{3: flip(honest[3], 0), 4: flip(honest[4], body(0))}},
		{"last hash of frame 4, body of frame 0", map[int][]byte{4: flip(honest[4], segHdr+oplog.HashSize), 0: flip(honest[0], body(FrameEntries-1))}},
		{"count of frame 2, previous hash of frame 3", map[int][]byte{
			2: setCount(append([]byte(nil), honest[2]...), FrameEntries-1),
			3: flip(honest[3], segHdr),
		}},
	} {
		frames := append([][]byte(nil), honest...)
		for f, raw := range tc.broken {
			frames[f] = raw
		}
		cl := scriptedServer(t, nvmeoe.CodecStored, func(nvmeoe.FetchReq) [][]byte { return frames })
		held := []oplog.Entry{{Seq: 99}}
		want, wantErr := appendFrames(held, frames)
		for range 3 {
			dst := append(make([]oplog.Entry, 0, 1), held...)
			got, err := cl.AppendEntries(dst, 0, nFrames*FrameEntries)
			if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
				t.Fatalf("%s: err=%v, appending the frames gives %v", tc.name, err, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: %d entries, appending the frames gives %d", tc.name, len(got), len(want))
			}
		}
	}

	// Past the up-front room: the slice grows while frames are in flight.
	var long [][]byte
	for range fetchReserveEntries/FrameEntries + 3 {
		long = append(long, entriesOnly(l, 1, FrameEntries).Marshal())
		l.Prune(l.NextSeq())
	}
	cl := scriptedServer(t, nvmeoe.CodecStored, func(nvmeoe.FetchReq) [][]byte { return long })
	want, _ := appendFrames(nil, long)
	got, err := cl.FetchEntries(want[0].Seq, want[0].Seq+uint64(len(want)))
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("a %d-frame stream: %d entries, err=%v", len(long), len(got), err)
	}
}
