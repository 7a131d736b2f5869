package oplog

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/bufpool"
	"repro/internal/simclock"
)

func allocTestSegment() *Segment {
	seg := &Segment{DeviceID: 3, FirstSeq: 10, LastSeq: 14,
		FirstTime: simclock.Time(100), LastTime: simclock.Time(400)}
	l := ResumeFrom(10, [HashSize]byte{})
	for i := uint64(10); i < 14; i++ {
		seg.Entries = append(seg.Entries, l.Append(KindWrite, simclock.Time(100*i), i, 0, 0, 0, HashData([]byte{byte(i)})))
	}
	data := bytes.Repeat([]byte("retained page "), 300)
	seg.Pages = []PageRecord{
		{LPN: 9, WriteSeq: 8, StaleSeq: 11, Cause: 1, Hash: HashData(data), Data: data},
	}
	return seg
}

func TestAppendMarshalMatchesMarshal(t *testing.T) {
	seg := allocTestSegment()
	want := seg.Marshal()
	if got := seg.MarshaledSize(); got != len(want) {
		t.Fatalf("MarshaledSize = %d, marshal produced %d bytes", got, len(want))
	}
	got := seg.AppendMarshal([]byte("prefix"))
	if string(got[:6]) != "prefix" || !bytes.Equal(got[6:], want) {
		t.Fatal("AppendMarshal differs from Marshal")
	}
	back, err := UnmarshalSegment(got[6:])
	if err != nil {
		t.Fatal(err)
	}
	if back.LastSeq != seg.LastSeq || len(back.Entries) != len(seg.Entries) || len(back.Pages) != 1 {
		t.Fatal("roundtrip mismatch")
	}
}

// TestAppendMarshalRunsMatchesMarshal: a segment marshaled from runs, empty
// ones among them, is byte for byte the segment whose Entries are the runs
// laid end to end, and MarshaledSizeRuns is its length.
func TestAppendMarshalRunsMatchesMarshal(t *testing.T) {
	seg := allocTestSegment()
	all := chainedSegment(64).Entries
	for _, cuts := range [][]int{{}, {0}, {64}, {0, 1, 1, 40, 63}, {32, 32, 64}} {
		var runs [][]Entry
		from := 0
		for _, to := range append(cuts, len(all)) {
			runs = append(runs, all[from:to])
			from = to
		}
		seg.Entries = all
		want := seg.Marshal()
		seg.Entries = nil
		if got := seg.AppendMarshalRuns(nil, runs...); !bytes.Equal(got, want) || seg.MarshaledSizeRuns(runs...) != len(want) {
			t.Fatalf("runs cut at %v: %d bytes (size %d), Marshal %d", cuts, len(got), seg.MarshaledSizeRuns(runs...), len(want))
		}
	}
}

// TestMarshalSteadyStateAllocs: sealing a segment into a pooled buffer is
// allocation-free once the buffer is warm — the seal side of the
// zero-allocation datapath contract.
func TestMarshalSteadyStateAllocs(t *testing.T) {
	if bufpool.RaceEnabled {
		t.Skip("race instrumentation allocates; alloc assertions run in the non-race job")
	}
	seg := allocTestSegment()
	buf := bufpool.Get(seg.MarshaledSize())
	defer buf.Release()
	if n := testing.AllocsPerRun(50, func() {
		buf.B = seg.AppendMarshal(buf.B[:0])[:0]
	}); n != 0 {
		t.Errorf("AppendMarshal: %v allocs/op, want 0", n)
	}
}

func BenchmarkSegmentAppendMarshal(b *testing.B) {
	seg := allocTestSegment()
	buf := bufpool.Get(seg.MarshaledSize())
	defer buf.Release()
	b.ReportAllocs()
	b.SetBytes(int64(seg.MarshaledSize()))
	for i := 0; i < b.N; i++ {
		buf.B = seg.AppendMarshal(buf.B[:0])[:0]
	}
}

// chainedSegment is an entries-only segment of n sealed entries that chain
// onto a non-zero hash, as a fetch reply or a log-only offload carries.
func chainedSegment(n int) *Segment {
	l := ResumeFrom(100, HashData([]byte("head")))
	seg := &Segment{DeviceID: 3, FirstSeq: 100, LastSeq: 100 + uint64(n)}
	for i := 0; i < n; i++ {
		seg.Entries = append(seg.Entries, l.Append(KindWrite, simclock.Time(i), uint64(i), 0, uint64(i), 1, HashData([]byte{byte(i), byte(i >> 8)})))
	}
	return seg
}

// TestUnmarshalDerivesTheChain: what comes out of UnmarshalSegment is the
// chain that went in, every PrevHash and Hash re-derived from the two the
// marshal carries, and Segment.VerifyChain does not hash it again — until
// Entries is no longer the slice that was derived.
func TestUnmarshalDerivesTheChain(t *testing.T) {
	seg := chainedSegment(64)
	got, err := UnmarshalSegment(seg.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	for i := range seg.Entries {
		if got.Entries[i] != seg.Entries[i] {
			t.Fatalf("entry %d: derived %+v, sealed %+v", i, got.Entries[i], seg.Entries[i])
		}
	}
	prev := seg.Entries[0].PrevHash
	if err := got.VerifyChain(prev); err != nil {
		t.Fatal(err)
	}
	var ce *ChainError
	if err := got.VerifyChain(HashData([]byte("another head"))); !errors.As(err, &ce) || ce.Index != 0 || ce.Reason != "previous-hash mismatch" {
		t.Fatalf("chain from another head: err=%v", err)
	}
	if !bufpool.RaceEnabled {
		if n := testing.AllocsPerRun(20, func() { got.VerifyChain(prev) }); n != 0 {
			t.Errorf("VerifyChain of a derived chain: %v allocs/op, want 0 (it compares one hash)", n)
		}
	}
	// A hand-built segment, and a decoded one whose entries were replaced or
	// cut, are hashed in full.
	got.Entries[5].LPN ^= 1
	replaced := *got
	replaced.Entries = append([]Entry(nil), got.Entries...)
	for _, s := range []*Segment{{Entries: got.Entries}, &replaced} {
		if err := s.VerifyChain(prev); !errors.As(err, &ce) || ce.Index != 5 {
			t.Fatalf("entry 5 rewritten in a segment UnmarshalSegment did not derive: err=%v", err)
		}
	}
	got.Entries[5].LPN ^= 1
	short := *got
	short.Entries = got.Entries[1:]
	if err := short.VerifyChain(prev); !errors.As(err, &ce) || ce.Index != 0 {
		t.Fatalf("decoded segment cut to its tail, from the old previous hash: err=%v", err)
	}
	if err := short.VerifyChain(got.Entries[0].Hash); err != nil {
		t.Fatal(err)
	}
}

// TestUnmarshalSegmentAllocsDoNotGrowWithEntries: the chain is derived
// through one stack buffer and every page's Data aliases the marshal — the
// segment, its entry slice and its page slice are all a decode allocates,
// however many entries it seals and pages it carries.
func TestUnmarshalSegmentAllocsDoNotGrowWithEntries(t *testing.T) {
	if bufpool.RaceEnabled {
		t.Skip("race instrumentation allocates; alloc assertions run in the non-race job")
	}
	allocs := func(entries, pages int) float64 {
		seg := chainedSegment(entries)
		for i := 0; i < pages; i++ {
			data := bytes.Repeat([]byte{byte(i)}, 4096)
			seg.Pages = append(seg.Pages, PageRecord{LPN: uint64(i), WriteSeq: 100, StaleSeq: 101, Hash: HashData(data), Data: data})
		}
		raw := seg.Marshal()
		got, err := UnmarshalSegment(raw)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got.Pages {
			if d := got.Pages[i].Data; !bytes.Equal(d, seg.Pages[i].Data) || cap(d) != len(d) || &d[0] != &raw[len(raw)-(pages-i)*(pageHeaderSize+4096)+pageHeaderSize] {
				t.Fatalf("page %d of %d: Data is not its bytes of the marshal, capped", i, pages)
			}
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := UnmarshalSegment(raw); err != nil {
				t.Fatal(err)
			}
		})
	}
	if few, many := allocs(4, 0), allocs(1024, 0); few != 2 || many != 2 {
		t.Fatalf("UnmarshalSegment: %v allocs for 4 entries, %v for 1024, want 2 and 2", few, many)
	}
	if one, many := allocs(4, 1), allocs(4, 64); one != 3 || many != 3 {
		t.Fatalf("UnmarshalSegment: %v allocs for 1 page, %v for 64, want 3 and 3", one, many)
	}
}
