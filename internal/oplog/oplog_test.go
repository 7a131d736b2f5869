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
	if err := VerifyChain(l.All(), [32]byte{}); err != nil {
		t.Fatalf("valid chain rejected: %v", err)
	}
}

func TestChainDetectsTampering(t *testing.T) {
	l := New()
	for i := 0; i < 20; i++ {
		l.Append(KindWrite, simclock.Time(i), uint64(i), 0, 0, 0, [32]byte{})
	}
	entries := l.All()

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
	all := l.All()
	// Verifying a suffix requires the hash of the entry just before it.
	if err := VerifyChain(all[4:], all[3].Hash); err != nil {
		t.Fatalf("suffix verification failed: %v", err)
	}
	// With the wrong starting hash it must fail.
	if err := VerifyChain(all[4:], all[2].Hash); err == nil {
		t.Fatal("wrong prev hash accepted")
	}
}

func TestEntryMarshalRoundTrip(t *testing.T) {
	e := Entry{
		Seq: 42, At: simclock.Time(1234567), Kind: KindTrim,
		LPN: 7, OldPPN: 99, NewPPN: 100, Entropy: 7.91,
		DataHash: HashData([]byte("abc")),
	}
	prev := HashData([]byte("prev"))
	e.Seal(prev)
	buf := e.Marshal(nil)
	// The hashed body and neither chain hash: 141 bytes before protocol v3.
	if len(buf) != 77 || EntrySize != 77 {
		t.Fatalf("marshal size = %d, EntrySize = %d, want 77", len(buf), EntrySize)
	}
	got, rest, err := UnmarshalEntry(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatal("trailing bytes")
	}
	if got.PrevHash != ([HashSize]byte{}) || got.Hash != ([HashSize]byte{}) {
		t.Fatal("UnmarshalEntry filled a chain hash the bytes do not carry")
	}
	got.Seal(prev)
	if got != e {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, e)
	}
	if !got.Verify() {
		t.Fatal("round-tripped entry fails verification")
	}
}

func TestUnmarshalShort(t *testing.T) {
	if _, _, err := UnmarshalEntry(make([]byte, EntrySize-1)); !errors.Is(err, ErrShortEntry) {
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
	if l.BaseSeq() != 4 || l.Len() != 6 {
		t.Fatalf("after prune: base=%d len=%d", l.BaseSeq(), l.Len())
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
	if l.BaseSeq() != 4 {
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
		e := Entry{
			Seq: seq, At: simclock.Time(at), Kind: Kind(kind),
			LPN: lpn, OldPPN: old, NewPPN: new, Entropy: ent, DataHash: dh,
		}
		e.Seal(ph)
		got, rest, err := UnmarshalEntry(e.Marshal(nil))
		got.Seal(ph)
		return err == nil && len(rest) == 0 && got == e
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: any single-bit corruption of a marshaled entry changes the hash
// a reader derives for it (i.e., the chain detects it).
func TestEntryTamperDetectionProperty(t *testing.T) {
	base := Entry{Seq: 1, At: 2, Kind: KindWrite, LPN: 3, OldPPN: 4, NewPPN: 5, Entropy: 6}
	base.Seal([32]byte{1, 2, 3})
	buf := base.Marshal(nil)
	f := func(bitIdx uint16) bool {
		idx := int(bitIdx) % (len(buf) * 8)
		mutated := append([]byte(nil), buf...)
		mutated[idx/8] ^= 1 << (idx % 8)
		got, _, err := UnmarshalEntry(mutated)
		if err != nil {
			return true
		}
		// Sealed onto the same predecessor it no longer hashes to what the
		// successor's PrevHash, or the segment's last hash, holds.
		got.Seal(base.PrevHash)
		return got.Hash != base.Hash
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
