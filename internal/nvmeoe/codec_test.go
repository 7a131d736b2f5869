package nvmeoe

import (
	"bytes"
	"crypto/rand"
	"errors"
	"testing"

	"repro/internal/oplog"
)

func testSegment(t testing.TB, data []byte) *oplog.Segment {
	t.Helper()
	return &oplog.Segment{
		DeviceID: 7,
		Pages: []oplog.PageRecord{
			{LPN: 1, WriteSeq: 2, StaleSeq: 3, Hash: oplog.HashData(data), Data: data},
		},
	}
}

func TestSegmentBlobRoundTripCompressible(t *testing.T) {
	seg := testSegment(t, make([]byte, 8192)) // zero pages deflate hard
	raw := seg.Marshal()
	blob := EncodeSegmentBlob(raw)
	if !IsSegmentBlob(blob) {
		t.Fatal("encoded blob not recognized")
	}
	if len(blob) >= len(raw) {
		t.Fatalf("compressible blob grew: wire %d >= logical %d", len(blob), len(raw))
	}
	got, err := DecodeSegmentBlob(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, raw) {
		t.Fatal("round trip mismatch")
	}
	if _, err := oplog.UnmarshalSegment(got); err != nil {
		t.Fatal(err)
	}
}

func TestSegmentBlobRoundTripIncompressible(t *testing.T) {
	data := make([]byte, 4096)
	rand.Read(data)
	raw := testSegment(t, data).Marshal()
	blob := EncodeSegmentBlob(raw)
	if Codec(blob[4]) != CodecStored {
		t.Fatalf("random data picked codec %v, want stored", Codec(blob[4]))
	}
	got, err := DecodeSegmentBlob(blob)
	if err != nil || !bytes.Equal(got, raw) {
		t.Fatalf("round trip: %v", err)
	}
	// The append-style decode must copy, not alias, the stored body.
	dec, err := AppendDecodeSegmentBlob(nil, blob)
	if err != nil || !bytes.Equal(dec, raw) {
		t.Fatalf("append decode: %v", err)
	}
	if &dec[0] == &blob[blobHeaderSize] {
		t.Fatal("AppendDecodeSegmentBlob aliased the stored body")
	}
}

// TestSegmentBlobStoredThreshold pins the deflate-versus-stored policy:
// compression that saves less than 1/16th of the raw size is not worth a
// per-ingest inflate, so such blobs take the stored fast path; anything
// saving more stays deflated.
func TestSegmentBlobStoredThreshold(t *testing.T) {
	// Random pages barely compress (the marshal framing shaves a little,
	// far under 1/16th) — must be stored.
	data := make([]byte, 16384)
	rand.Read(data)
	barely := testSegment(t, data).Marshal()
	if comp, ok := Deflate(barely); ok {
		if saving := len(barely) - len(comp); saving >= len(barely)>>storedSavingShift {
			t.Skipf("random payload compressed too well to exercise the threshold (saved %d)", saving)
		}
	}
	blob := EncodeSegmentBlob(barely)
	if Codec(blob[4]) != CodecStored {
		t.Fatalf("barely-compressible blob picked %v, want stored", Codec(blob[4]))
	}
	if len(blob) != BlobOverhead+len(barely) {
		t.Fatalf("stored blob is %d bytes, want raw+overhead %d", len(blob), BlobOverhead+len(barely))
	}

	// Repetitive pages compress far past the threshold — must stay deflate.
	wellBlob := EncodeSegmentBlob(testSegment(t, bytes.Repeat([]byte("page "), 1600)).Marshal())
	if Codec(wellBlob[4]) != CodecDeflate {
		t.Fatalf("compressible blob picked %v, want deflate", Codec(wellBlob[4]))
	}
}

// TestDecodeRejectsPayloadWithoutCodec: the codec header is mandatory and
// codec byte 0 names no codec. Both decode entry points refuse such a
// payload, and nothing is sized by it — not by its length, and not by the
// length a header claims.
func TestDecodeRejectsPayloadWithoutCodec(t *testing.T) {
	raw := testSegment(t, bytes.Repeat([]byte("bare marshal "), 40000)).Marshal() // ≈ 0.5 MB
	for name, blob := range map[string][]byte{
		"no header":    raw,
		"codec byte 0": blobWithClaim(Codec(0), uint32(len(raw)), raw),
		"empty":        nil,
		"short":        {0x52, 0x53, 0x53, 0x43, byte(CodecStored)},
	} {
		if got, err := DecodeSegmentBlob(blob); !errors.Is(err, ErrBadBlob) || got != nil {
			t.Errorf("%s: DecodeSegmentBlob: err=%v, %d bytes out", name, err, len(got))
		}
		before := heapAllocated()
		got, err := AppendDecodeSegmentBlob(nil, blob)
		if allocated := heapAllocated() - before; allocated > 16<<10 {
			t.Errorf("%s: rejecting %d bytes allocated %d", name, len(blob), allocated)
		}
		if !errors.Is(err, ErrBadBlob) || got != nil {
			t.Errorf("%s: AppendDecodeSegmentBlob: err=%v, %d bytes out", name, err, len(got))
		}
		if IsSegmentBlob(blob) && Codec(blob[4]) == Codec(0) {
			continue // a header with a claim inside the frame bound: sized, then refused by decode
		}
		if n := SegmentBlobLogicalSize(blob); n != 0 {
			t.Errorf("%s: logical size %d, want 0 (nothing to rent before the reject)", name, n)
		}
	}
}

func TestDecodeSegmentBlobCorrupt(t *testing.T) {
	blob := EncodeSegmentBlob(testSegment(t, make([]byte, 4096)).Marshal())
	// Unknown codec.
	bad := append([]byte(nil), blob...)
	bad[4] = 0x7F
	if _, err := DecodeSegmentBlob(bad); !errors.Is(err, ErrBadBlob) {
		t.Fatalf("unknown codec err = %v", err)
	}
	// Truncated compressed body.
	if _, err := DecodeSegmentBlob(blob[:len(blob)-4]); !errors.Is(err, ErrBadBlob) {
		t.Fatalf("truncated body err = %v", err)
	}
	// Length header lies.
	bad = append([]byte(nil), blob...)
	bad[5] ^= 0xFF
	if _, err := DecodeSegmentBlob(bad); !errors.Is(err, ErrBadBlob) {
		t.Fatalf("bad length err = %v", err)
	}
}

func TestWriteMsgSkipsRecompressingBlobs(t *testing.T) {
	// An encoded blob round-trips the frame layer unchanged: the frame
	// flags must not mark it compressed a second time.
	blob := EncodeSegmentBlob(testSegment(t, make([]byte, 8192)).Marshal())
	dev, srv := pipePair(t)
	go dev.WriteMsg(MsgSegment, blob)
	typ, body, err := srv.ReadMsg()
	if err != nil || typ != MsgSegment {
		t.Fatalf("read: %v %v", typ, err)
	}
	if !bytes.Equal(body, blob) {
		t.Fatal("blob changed in transit")
	}
}
