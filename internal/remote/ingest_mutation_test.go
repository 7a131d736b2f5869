package remote

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/nvmeoe"
	"repro/internal/oplog"
)

// The corrupted-frame contract of server ingest: a truncated or bit-flipped
// segment blob arriving on an authenticated session must be rejected with a
// MsgError that KEEPS the session (the device's chain state is unchanged,
// so it resyncs from its last ack), never kill the connection, never wedge
// the session's handler, and never poison the store's chain: the codec's
// mutation-corpus idiom pointed at the ingest path.
func TestIngestFrameMutationCorpus(t *testing.T) {
	st := NewStore(NewMemStore())
	srv := NewServer(st, psk)
	cl, err := Loopback(srv, psk, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	defer srv.Close()

	segs := buildSegments(1, 4, 8)
	blobs := make([][]byte, len(segs))
	for i, seg := range segs {
		blobs[i] = nvmeoe.EncodeSegmentBlob(seg.Marshal())
	}
	good := blobs[0]

	// mutate pushes one corrupted variant and asserts the session survives
	// it. mustReject marks corpus entries no honest decode may accept.
	rejected, accepted := 0, 0
	mutate := func(mutant []byte, mustReject bool, what string) {
		t.Helper()
		_, err := cl.PushSegmentBlob(mutant, segs[0].LastSeq)
		if err == nil {
			if mustReject {
				t.Fatalf("%s: corrupted blob accepted", what)
			}
			accepted++
			return
		}
		var re *RemoteError
		if !errors.As(err, &re) {
			// Anything but a server-reported rejection means the transport
			// died — the wedge this test exists to prevent.
			t.Fatalf("%s: session died instead of error-keep-session: %v", what, err)
		}
		rejected++
	}

	// Every truncation of the blob must be rejected: the codec header
	// claims a logical size the remainder cannot deliver.
	for cut := 0; cut < len(good); cut++ {
		mutate(good[:cut], true, "truncation")
	}

	// Bit flips across the whole blob. A flip in the codec framing or the
	// compressed body must be rejected; a flip that survives every check
	// (none known, but the corpus does not assume) must at least leave the
	// session and the chain intact — asserted below either way.
	rng := rand.New(rand.NewSource(1))
	for pos := 0; pos < len(good); pos++ {
		mutant := append([]byte(nil), good...)
		mutant[pos] ^= 1 << uint(rng.Intn(8))
		mutate(mutant, false, "bit flip")
	}

	// A flipped header bit claiming a multi-GiB logical size must be
	// rejected up front — before it can size a giant decode buffer (the
	// old wedge: bufpool.Get of whatever the mutated header said).
	huge := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(huge[5:], 1<<31)
	mutate(huge, true, "oversize logical-size claim")

	// A blob for someone else's chain on this session is a forgery, not a
	// transport problem: rejected, session kept.
	other := nvmeoe.EncodeSegmentBlob(buildSegments(2, 1, 4)[0].Marshal())
	mutate(other, true, "cross-device blob")

	if rejected == 0 {
		t.Fatal("corpus rejected nothing; mutations did not reach the decode path")
	}
	t.Logf("corpus: %d rejected, %d accepted", rejected, accepted)

	// Resync exactly as a device would: ask the server where the chain
	// stands, then push everything after that point on the SAME session,
	// pipelined through the handler the corpus just hammered.
	h, err := cl.Head()
	if err != nil {
		t.Fatalf("head after corpus (session should be alive): %v", err)
	}
	var resync [][]byte
	var lastSeqs []uint64
	for i, seg := range segs {
		if seg.FirstSeq >= h.NextSeq {
			resync = append(resync, blobs[i])
			lastSeqs = append(lastSeqs, seg.LastSeq)
		}
	}
	if len(resync) == 0 {
		t.Fatalf("nothing to resync: head %d after corpus", h.NextSeq)
	}
	if err := cl.PushSegmentBlobs(resync, lastSeqs, 2); err != nil {
		t.Fatalf("resync push after corpus: %v", err)
	}

	// The chain the store holds must verify end to end — no half-applied
	// or poisoned segment slipped through.
	head := st.Head(1)
	if head.NextSeq != segs[len(segs)-1].LastSeq {
		t.Fatalf("head %d after resync, want %d", head.NextSeq, segs[len(segs)-1].LastSeq)
	}
	if err := oplog.VerifyChain(st.Entries(1, 0, head.NextSeq), [oplog.HashSize]byte{}); err != nil {
		t.Fatalf("chain verify after corpus: %v", err)
	}
	if errs := srv.IngestTotals().Errors; errs != uint64(rejected) {
		t.Fatalf("ingest ledger counts %d errors, corpus drew %d rejections", errs, rejected)
	}
}
