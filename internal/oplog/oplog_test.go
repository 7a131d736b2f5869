package oplog

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/simclock"
)

func TestAppendAssignsSequentialSeqs(t *testing.T) {
	l := New()
	for i := uint64(0); i < 5; i++ {
		e := l.Append(KindWrite, simclock.Time(i), i, 0, i+100, 1.5, [32]byte{})
		if e.Seq != i {
			t.Fatalf("seq = %d, want %d", e.Seq, i)
		}
	}
	if l.NextSeq() != 5 {
		t.Fatalf("NextSeq = %d", l.NextSeq())
	}
}

func TestChainVerifies(t *testing.T) {
	l := New()
	for i := 0; i < 50; i++ {
		l.Append(KindWrite, simclock.Time(i), uint64(i), 0, uint64(i+1), 0, HashData([]byte{byte(i)}))
	}
	if err := VerifyChain(l.Entries(0, l.NextSeq()), [32]byte{}); err != nil {
		t.Fatalf("valid chain rejected: %v", err)
	}
}

func TestChainDetectsTampering(t *testing.T) {
	l := New()
	for i := 0; i < 20; i++ {
		l.Append(KindWrite, simclock.Time(i), uint64(i), 0, 0, 0, [32]byte{})
	}
	entries := l.Entries(0, l.NextSeq())

	// Mutating any field of any entry must be detected.
	mutated := append([]Entry(nil), entries...)
	mutated[7].LPN = 9999
	err := VerifyChain(mutated, [32]byte{})
	var ce *ChainError
	if !errors.As(err, &ce) || ce.Index != 7 {
		t.Fatalf("tampered entry not located: %v", err)
	}

	// Deleting an entry must be detected at the splice point.
	deleted := append(append([]Entry(nil), entries[:5]...), entries[6:]...)
	if err := VerifyChain(deleted, [32]byte{}); err == nil {
		t.Fatal("deletion not detected")
	}

	// Reordering must be detected.
	swapped := append([]Entry(nil), entries...)
	swapped[3], swapped[4] = swapped[4], swapped[3]
	if err := VerifyChain(swapped, [32]byte{}); err == nil {
		t.Fatal("reorder not detected")
	}
}

func TestChainMidStartVerification(t *testing.T) {
	l := New()
	for i := 0; i < 10; i++ {
		l.Append(KindTrim, simclock.Time(i), uint64(i), uint64(i), 0, 0, [32]byte{})
	}
	all := l.Entries(0, l.NextSeq())
	// Verifying a suffix requires the hash of the entry just before it.
	if err := VerifyChain(all[4:], all[3].Hash); err != nil {
		t.Fatalf("suffix verification failed: %v", err)
	}
	// With the wrong starting hash it must fail.
	if err := VerifyChain(all[4:], all[2].Hash); err == nil {
		t.Fatal("wrong prev hash accepted")
	}
}

// oneEntrySegment marshals a segment holding only e, the form in which an
// entry crosses the wire and lies at rest.
func oneEntrySegment(e Entry) []byte {
	return (&Segment{DeviceID: 1, FirstSeq: e.Seq, LastSeq: e.Seq + 1, Entries: []Entry{e}}).Marshal()
}

func TestEntryMarshalRoundTrip(t *testing.T) {
	prev := HashData([]byte("prev"))
	e := ResumeFrom(42, prev).Append(KindTrim, simclock.Time(1234567), 7, 99, 100, 7.91, HashData([]byte("abc")))
	buf := e.Marshal(nil)
	// The hashed body and neither chain hash: 141 bytes before protocol v3.
	if len(buf) != 77 || EntrySize != 77 {
		t.Fatalf("marshal size = %d, EntrySize = %d, want 77", len(buf), EntrySize)
	}
	seg, err := UnmarshalSegment(oneEntrySegment(e))
	if err != nil {
		t.Fatal(err)
	}
	if len(seg.Entries) != 1 {
		t.Fatalf("decoded %d entries, want 1", len(seg.Entries))
	}
	if got := seg.Entries[0]; got != e {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, e)
	}
	if !seg.Entries[0].Verify() {
		t.Fatal("round-tripped entry fails verification")
	}
}

// TestUnmarshalShort: an entry cut short is refused, not read past.
func TestUnmarshalShort(t *testing.T) {
	buf := oneEntrySegment(New().Append(KindWrite, 1, 2, 3, 4, 5, [32]byte{}))
	if _, err := UnmarshalSegment(buf[:len(buf)-1]); !errors.Is(err, ErrBadSegment) {
		t.Fatalf("err = %v", err)
	}
}

func TestEntriesRangeAndPrune(t *testing.T) {
	l := New()
	for i := 0; i < 10; i++ {
		l.Append(KindWrite, simclock.Time(i), uint64(i), 0, 0, 0, [32]byte{})
	}
	got := l.Entries(3, 6)
	if len(got) != 3 || got[0].Seq != 3 || got[2].Seq != 5 {
		t.Fatalf("Entries(3,6) = %+v", got)
	}
	l.Prune(4)
	if l.baseSeq != 4 || len(l.entries) != 6 {
		t.Fatalf("after prune: base=%d len=%d", l.baseSeq, len(l.entries))
	}
	// Range clamps to what's held locally.
	got = l.Entries(0, 100)
	if len(got) != 6 || got[0].Seq != 4 {
		t.Fatalf("clamped range = %d entries starting %d", len(got), got[0].Seq)
	}
	// Chain still verifies from the pruned point given the right prev hash.
	if err := VerifyChain(got, got[0].PrevHash); err != nil {
		t.Fatalf("pruned suffix chain: %v", err)
	}
	// Pruning backwards is a no-op.
	l.Prune(2)
	if l.baseSeq != 4 {
		t.Fatal("prune moved backwards")
	}
}

func TestSegmentRoundTrip(t *testing.T) {
	l := New()
	var entries []Entry
	for i := 0; i < 8; i++ {
		entries = append(entries, l.Append(KindWrite, simclock.Time(i*10), uint64(i), uint64(i+50), uint64(i+100), 3.3, HashData([]byte{byte(i)})))
	}
	seg := &Segment{
		DeviceID: 9, FirstSeq: 0, LastSeq: 8,
		FirstTime: 0, LastTime: 70,
		Entries: entries,
		Pages: []PageRecord{
			{LPN: 1, WriteSeq: 1, StaleSeq: 5, Cause: 1, Hash: HashData([]byte("page1")), Data: []byte("page1")},
			{LPN: 2, WriteSeq: 2, StaleSeq: 6, Cause: 2, Hash: HashData([]byte("page2")), Data: []byte("page2")},
		},
	}
	buf := seg.Marshal()
	got, err := UnmarshalSegment(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.DeviceID != 9 || got.LastSeq != 8 || len(got.Entries) != 8 || len(got.Pages) != 2 {
		t.Fatalf("decoded header mismatch: %+v", got)
	}
	for i := range got.Entries {
		if got.Entries[i] != entries[i] {
			t.Fatalf("entry %d mismatch", i)
		}
	}
	if !bytes.Equal(got.Pages[1].Data, []byte("page2")) || got.Pages[1].Cause != 2 {
		t.Fatalf("page record mismatch: %+v", got.Pages[1])
	}
	if err := got.VerifyPages(); err != nil {
		t.Fatal(err)
	}
}

func TestSegmentVerifyPagesDetectsCorruption(t *testing.T) {
	seg := &Segment{
		Pages: []PageRecord{{LPN: 1, Hash: HashData([]byte("good")), Data: []byte("evil")}},
	}
	if err := seg.VerifyPages(); err == nil {
		t.Fatal("corrupted page accepted")
	}
}

func TestSegmentRejectsGarbage(t *testing.T) {
	if _, err := UnmarshalSegment(nil); !errors.Is(err, ErrBadSegment) {
		t.Fatalf("nil: %v", err)
	}
	buf := make([]byte, 100)
	if _, err := UnmarshalSegment(buf); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("zero magic: %v", err)
	}
	// Valid segment with trailing junk must be rejected.
	seg := &Segment{DeviceID: 1}
	b := append(seg.Marshal(), 0xFF)
	if _, err := UnmarshalSegment(b); !errors.Is(err, ErrBadSegment) {
		t.Fatalf("trailing junk: %v", err)
	}
}

func TestKindStrings(t *testing.T) {
	kinds := []Kind{KindWrite, KindTrim, KindMigrate, KindOffload, KindCheckpoint, KindRecovery, KindRead, Kind(99)}
	want := []string{"write", "trim", "migrate", "offload", "checkpoint", "recovery", "read", "Kind(99)"}
	for i, k := range kinds {
		if k.String() != want[i] {
			t.Errorf("Kind %d String = %q, want %q", i, k.String(), want[i])
		}
	}
}

// Property: marshal/unmarshal round-trips arbitrary entries.
func TestEntryRoundTripProperty(t *testing.T) {
	f := func(seq, lpn, old, new uint64, at int64, kind uint8, ent float32, dh [32]byte, ph [32]byte) bool {
		e := ResumeFrom(seq, ph).Append(Kind(kind), simclock.Time(at), lpn, old, new, ent, dh)
		seg, err := UnmarshalSegment(oneEntrySegment(e))
		return err == nil && len(seg.Entries) == 1 && seg.Entries[0] == e
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: any single-bit corruption of a marshaled entry changes the hash
// a reader derives for it (i.e., the chain detects it).
func TestEntryTamperDetectionProperty(t *testing.T) {
	base := ResumeFrom(1, [32]byte{1, 2, 3}).Append(KindWrite, 2, 3, 4, 5, 6, [32]byte{})
	buf := oneEntrySegment(base)
	body := len(buf) - EntrySize
	f := func(bitIdx uint16) bool {
		idx := int(bitIdx) % (EntrySize * 8)
		mutated := append([]byte(nil), buf...)
		mutated[body+idx/8] ^= 1 << (idx % 8)
		// Derived onto the same predecessor it no longer hashes to the
		// segment's last hash.
		_, err := UnmarshalSegment(mutated)
		return errors.Is(err, ErrBadSegment)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: segments round-trip arbitrary page payloads.
func TestSegmentRoundTripProperty(t *testing.T) {
	f := func(dev uint64, datas [][]byte) bool {
		seg := &Segment{DeviceID: dev}
		for i, d := range datas {
			seg.Pages = append(seg.Pages, PageRecord{
				LPN: uint64(i), WriteSeq: uint64(i), StaleSeq: uint64(i + 1),
				Hash: HashData(d), Data: append([]byte(nil), d...),
			})
		}
		got, err := UnmarshalSegment(seg.Marshal())
		if err != nil || len(got.Pages) != len(datas) {
			return false
		}
		for i := range got.Pages {
			if !bytes.Equal(got.Pages[i].Data, datas[i]) {
				return false
			}
		}
		return got.VerifyPages() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
