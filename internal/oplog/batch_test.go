package oplog

import (
	"testing"

	"repro/internal/simclock"
)

// TestAppendBatchChainsLikeAppend: a batched append must produce the
// byte-identical chain a sequence of per-op appends produces — same
// sequence numbers, same hashes, same head.
func TestAppendBatchChainsLikeAppend(t *testing.T) {
	perOp := New()
	batched := New()
	// One entry ahead, so the batch's first sequence is not zero.
	perOp.Append(KindWrite, 0, 0, 0, 0, 0, [HashSize]byte{})
	batched.Append(KindWrite, 0, 0, 0, 0, 0, [HashSize]byte{})
	var recs []Rec
	for i := 0; i < 64; i++ {
		rec := Rec{
			Kind: KindWrite, At: simclock.Time(i), LPN: uint64(i),
			OldPPN: uint64(i * 2), NewPPN: uint64(i * 3),
			Entropy: float32(i) / 8, DataHash: HashData([]byte{byte(i)}),
		}
		recs = append(recs, rec)
		perOp.Append(rec.Kind, rec.At, rec.LPN, rec.OldPPN, rec.NewPPN, rec.Entropy, rec.DataHash)
	}
	if first := batched.AppendBatch(recs); first != 1 {
		t.Fatalf("AppendBatch returned first seq %d, want 1", first)
	}
	if perOp.head != batched.head {
		t.Fatal("batched chain head diverges from per-op chain")
	}
	if perOp.NextSeq() != batched.NextSeq() {
		t.Fatalf("NextSeq %d vs %d", perOp.NextSeq(), batched.NextSeq())
	}
	pe, be := perOp.Entries(0, perOp.NextSeq()), batched.Entries(0, batched.NextSeq())
	for i := range pe {
		if pe[i] != be[i] {
			t.Fatalf("entry %d diverges:\nper-op:  %+v\nbatched: %+v", i, pe[i], be[i])
		}
	}
	if err := VerifyChain(be, [HashSize]byte{}); err != nil {
		t.Fatal(err)
	}
}

// TestAppendBatchInterleavedWithAppend: mixing batched and per-op appends
// keeps one unbroken chain.
func TestAppendBatchInterleavedWithAppend(t *testing.T) {
	l := New()
	l.Append(KindWrite, 1, 1, 0, 0, 0, [HashSize]byte{})
	l.AppendBatch([]Rec{
		{Kind: KindWrite, At: 2, LPN: 2},
		{Kind: KindTrim, At: 3, LPN: 3},
	})
	l.Append(KindRead, 4, 4, 0, 0, 0, [HashSize]byte{})
	if err := VerifyChain(l.Entries(0, l.NextSeq()), [HashSize]byte{}); err != nil {
		t.Fatal(err)
	}
	if l.NextSeq() != 4 {
		t.Fatalf("NextSeq = %d, want 4", l.NextSeq())
	}
}

// TestAppendBatchEmpty: an empty batch is a no-op that names the next
// sequence as its first.
func TestAppendBatchEmpty(t *testing.T) {
	l := New()
	l.Append(KindWrite, 1, 1, 0, 0, 0, [HashSize]byte{})
	if first := l.AppendBatch(nil); first != 1 {
		t.Fatalf("AppendBatch(nil) = %d, want 1", first)
	}
	if l.NextSeq() != 1 || len(l.entries) != 1 {
		t.Fatal("empty batch advanced the sequence counter")
	}
}
