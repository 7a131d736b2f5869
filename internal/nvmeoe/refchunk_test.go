package nvmeoe

import (
	"bytes"
	"crypto/sha256"
	"math/rand"
	"testing"

	"repro/internal/bufpool"
)

func makeRefPages(rng *rand.Rand, n, pageSize int) []RefPage {
	pages := make([]RefPage, 0, n)
	var lastHash [32]byte
	for i := 0; i < n; i++ {
		p := RefPage{
			LPN:      uint64(i * 3),
			WriteSeq: uint64(100 + i),
			StaleSeq: uint64(200 + i),
			Cause:    uint8(i % 3),
		}
		if i > 0 && i%3 == 2 {
			p.Ref = true
			p.Hash = lastHash
		} else {
			data := make([]byte, pageSize)
			rng.Read(data)
			p.Data = data
			p.Hash = sha256.Sum256(data)
			lastHash = p.Hash
		}
		pages = append(pages, p)
	}
	return pages
}

func TestRefChunkRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pages := makeRefPages(rng, 17, 512)
	raw := AppendRefChunk(nil, 42, pages)
	if got, want := len(raw), RefChunkWireSize(pages); got != want {
		t.Fatalf("wire size mismatch: encoded %d, predicted %d", got, want)
	}
	var got []RefPage
	dev, err := WalkRefChunk(raw, func(p RefPage) error {
		got = append(got, p)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if dev != 42 {
		t.Fatalf("device id %d, want 42", dev)
	}
	if len(got) != len(pages) {
		t.Fatalf("decoded %d pages, want %d", len(got), len(pages))
	}
	for i := range pages {
		w, g := pages[i], got[i]
		if g.LPN != w.LPN || g.WriteSeq != w.WriteSeq || g.StaleSeq != w.StaleSeq ||
			g.Cause != w.Cause || g.Ref != w.Ref || g.Hash != w.Hash {
			t.Fatalf("page %d header mismatch: %+v != %+v", i, g, w)
		}
		if !bytes.Equal(g.Data, w.Data) {
			t.Fatalf("page %d payload mismatch", i)
		}
	}
}

func TestRefChunkRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pages := makeRefPages(rng, 4, 128)
	raw := AppendRefChunk(nil, 1, pages)
	nop := func(RefPage) error { return nil }
	if _, err := WalkRefChunk(raw[:len(raw)-1], nop); err == nil {
		t.Fatal("truncated chunk decoded")
	}
	if _, err := WalkRefChunk(raw[:refChunkHeaderSize-2], nop); err == nil {
		t.Fatal("truncated header decoded")
	}
	bad := append([]byte(nil), raw...)
	bad[0] ^= 0xff
	if _, err := WalkRefChunk(bad, nop); err == nil {
		t.Fatal("bad magic decoded")
	}
	if _, err := WalkRefChunk(append(append([]byte(nil), raw...), 0), nop); err == nil {
		t.Fatal("trailing bytes decoded")
	}
}

func TestFetchReqAnchorCompat(t *testing.T) {
	req := FetchReq{
		Kind: FetchImageStream, From: 5, To: 9, Before: 77,
		ChunkPages: 32, Anchor: 61, Flags: FetchFlagDedup,
	}
	b := req.Marshal()
	if len(b) != fetchReqSize {
		t.Fatalf("marshal size %d, want %d", len(b), fetchReqSize)
	}
	got, err := UnmarshalFetchReq(b)
	if err != nil {
		t.Fatal(err)
	}
	if got != req {
		t.Fatalf("round trip mismatch: %+v != %+v", got, req)
	}
}

// TestRefChunkSteadyStateAllocs gates the dedup encode hot path: building
// a hash-reference chunk into pooled buffers and wrapping it in the
// segment-blob codec must not allocate once pools are warm.
func TestRefChunkSteadyStateAllocs(t *testing.T) {
	if bufpool.RaceEnabled {
		t.Skip("race instrumentation allocates; alloc assertions run in the non-race job")
	}
	rng := rand.New(rand.NewSource(11))
	pages := makeRefPages(rng, 64, 4096)
	encode := func() {
		raw := bufpool.Get(RefChunkWireSize(pages))
		raw.B = AppendRefChunk(raw.B, 3, pages)
		blob := bufpool.Get(BlobOverhead + len(raw.B))
		blob.B = AppendSegmentBlob(blob.B, raw.B)
		blob.Release()
		raw.Release()
	}
	encode() // warm the pools
	allocs := testing.AllocsPerRun(50, encode)
	if allocs != 0 {
		t.Fatalf("dedup encode path allocates %.1f/op; want 0", allocs)
	}
}

func BenchmarkAppendRefChunk(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	pages := makeRefPages(rng, 64, 4096)
	buf := bufpool.Get(RefChunkWireSize(pages))
	defer buf.Release()
	b.SetBytes(int64(RefChunkWireSize(pages)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf.B = AppendRefChunk(buf.B[:0], 3, pages)
	}
}
