package nvmeoe

import (
	"bytes"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"

	"repro/internal/bufpool"
)

// blobWithClaim frames body as a blob of the given codec whose header
// claims rawLen decoded bytes, true or not.
func blobWithClaim(codec Codec, rawLen uint32, body []byte) []byte {
	blob := make([]byte, blobHeaderSize, blobHeaderSize+len(body))
	binary.LittleEndian.PutUint32(blob, blobMagic)
	blob[4] = byte(codec)
	binary.LittleEndian.PutUint32(blob[5:], rawLen)
	return append(blob, body...)
}

// TestDecodeZeroClaimBlobDoesNotInflate: a deflate blob whose header claims
// zero bytes is rejected at the first byte it produces, not after its body
// has been inflated and measured — 8 MiB from these 10 KB, tens of GB from a
// MaxPayload body.
func TestDecodeZeroClaimBlobDoesNotInflate(t *testing.T) {
	body, ok := Deflate(make([]byte, 8<<20))
	if !ok {
		t.Fatal("zeros did not deflate")
	}
	blob := blobWithClaim(CodecDeflate, 0, body)
	var before, after runtime.MemStats
	got := ^uint64(0)
	// The first pass leaves an Inflater in the pool; a pass that finds the
	// pool empty anyway (the goroutine moved to another P) allocates one,
	// which is larger than this body. Inflating the body would show on
	// every pass.
	for range 4 {
		runtime.ReadMemStats(&before)
		out, err := AppendDecodeSegmentBlob(nil, blob)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrBadBlob) || out != nil {
			t.Fatalf("zero-claim blob: err=%v, %d bytes out", err, len(out))
		}
		got = min(got, after.TotalAlloc-before.TotalAlloc)
	}
	// (Race builds drop pooled objects at random.)
	if !bufpool.RaceEnabled && got >= uint64(len(body)) {
		t.Fatalf("rejecting a %d-byte body allocated %d bytes", len(body), got)
	}
	if _, err := DecodeSegmentBlob(blob); !errors.Is(err, ErrBadBlob) {
		t.Fatalf("DecodeSegmentBlob: err=%v", err)
	}
	// The honest zero-length blob still decodes.
	if out, err := DecodeSegmentBlob(EncodeSegmentBlob(nil)); err != nil || len(out) != 0 {
		t.Fatalf("empty segment: err=%v, %d bytes", err, len(out))
	}
}

// FuzzDecodeSegmentBlob feeds the blob decoder arbitrary bytes, as the
// server's ingest and the device's fetch path do with whatever a frame
// carried: it must not panic, must fail only with ErrBadBlob, and must never
// return more than the header claims — exactly the claim, when it accepts.
//
//	go test -run xxx -fuzz FuzzDecodeSegmentBlob -fuzztime 30s ./internal/nvmeoe
func FuzzDecodeSegmentBlob(f *testing.F) {
	noise := make([]byte, 4096)
	rand.Read(noise)
	text := bytes.Repeat([]byte("status: nominal; next maintenance window pending approval. "), 200)
	for _, data := range [][]byte{nil, make([]byte, 8192), noise, text, append(noise[:1400:1400], text...)} {
		raw := testSegment(f, data).Marshal()
		blob := EncodeSegmentBlob(raw)
		f.Add(blob)
		f.Add(blob[:len(blob)-3])
		f.Add(raw) // no codec header: ErrBadBlob
		if body, ok := Deflate(raw); ok {
			f.Add(blobWithClaim(CodecDeflate, 0, body))
			f.Add(blobWithClaim(CodecDeflate, uint32(len(raw)-1), body))
			f.Add(blobWithClaim(CodecDeflate, uint32(len(raw)+1), body))
			f.Add(blobWithClaim(CodecDeflate, MaxPayload+1, body))
		}
		f.Add(blobWithClaim(Codec(0), uint32(len(raw)), raw)) // 0 names no codec
		f.Add(blobWithClaim(Codec(9), uint32(len(raw)), raw))
	}

	f.Fuzz(func(t *testing.T, blob []byte) {
		prefix := []byte("held")
		out, err := AppendDecodeSegmentBlob(append([]byte(nil), prefix...), blob)
		alias, aliasErr := DecodeSegmentBlob(blob)
		if (err == nil) != (aliasErr == nil) {
			t.Fatalf("AppendDecodeSegmentBlob err=%v, DecodeSegmentBlob err=%v", err, aliasErr)
		}
		if err != nil {
			if !errors.Is(err, ErrBadBlob) || out != nil {
				t.Fatalf("rejected with err=%v, %d bytes out", err, len(out))
			}
			return
		}
		if !bytes.HasPrefix(out, prefix) || !bytes.Equal(out[len(prefix):], alias) {
			t.Fatal("the two decoders disagree, or dst's contents were disturbed")
		}
		if want := SegmentBlobLogicalSize(blob); len(alias) != want {
			t.Fatalf("decoded %d bytes, header claims %d", len(alias), want)
		}
	})
}
