package nvmeoe

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"runtime/metrics"
	"testing"
)

// messageDecoders lists every typed payload decoder with the one size it
// accepts (0: variable) and a decode that marshals what it accepted back.
var messageDecoders = []struct {
	name   string
	size   int
	decode func(b []byte) ([]byte, error)
}{
	{"FetchReq", 38, func(b []byte) ([]byte, error) { m, err := UnmarshalFetchReq(b); return m.Marshal(), err }},
	{"Ack", 16, func(b []byte) ([]byte, error) { m, err := UnmarshalAck(b); return m.Marshal(), err }},
	{"StreamEnd", 24, func(b []byte) ([]byte, error) { m, err := UnmarshalStreamEnd(b); return m.Marshal(), err }},
	{"Head", 40, func(b []byte) ([]byte, error) { m, err := UnmarshalHead(b); return m.Marshal(), err }},
	{"Checkpoint", 0, func(b []byte) ([]byte, error) { m, err := UnmarshalCheckpoint(b); return m.Marshal(), err }},
	{"ErrorMsg", 0, func(b []byte) ([]byte, error) { m, err := UnmarshalErrorMsg(b); return m.Marshal(), err }},
}

// retiredSizes are the lengths earlier encodings of FetchReq (33, 37, 46) and
// Ack (8) had. Nothing produces them; every decoder refuses them.
var retiredSizes = []int{33, 37, 46, 8}

// checkpointClaiming is a checkpoint header claiming n entries over a body
// of the given length.
func checkpointClaiming(n uint64, body int) []byte {
	b := make([]byte, 16+body)
	binary.LittleEndian.PutUint64(b, 7)
	binary.LittleEndian.PutUint64(b[8:], n)
	return b
}

// TestFixedMessagesAcceptOneSize: a fixed-size message decodes at exactly
// its size — not one byte either side of it, and not at any size an earlier
// encoding had.
func TestFixedMessagesAcceptOneSize(t *testing.T) {
	for _, d := range messageDecoders {
		if d.size == 0 {
			continue
		}
		if again, err := d.decode(make([]byte, d.size)); err != nil || len(again) != d.size {
			t.Errorf("%s: %d bytes: err=%v, marshals back to %d", d.name, d.size, err, len(again))
		}
		for _, n := range append([]int{0, d.size - 1, d.size + 1}, retiredSizes...) {
			if _, err := d.decode(make([]byte, n)); !errors.Is(err, ErrBadMessage) {
				t.Errorf("%s: %d bytes: err=%v, want ErrBadMessage", d.name, n, err)
			}
		}
	}
}

// TestCheckpointCountOverflow: 8 × 2⁶¹ wraps to 0, which is the body length
// of a header-only payload. The count must be bounded by the body before it
// is multiplied, or it reaches make.
func TestCheckpointCountOverflow(t *testing.T) {
	for _, b := range [][]byte{
		checkpointClaiming(1<<61, 0),
		checkpointClaiming(1<<61+1, 8),
		checkpointClaiming(^uint64(0), 0),
	} {
		if _, err := UnmarshalCheckpoint(b); !errors.Is(err, ErrBadMessage) {
			t.Fatalf("%d-byte checkpoint claiming %d entries: err=%v", len(b), binary.LittleEndian.Uint64(b[8:]), err)
		}
	}
}

// heapAllocated reads the process's cumulative heap allocation in bytes.
func heapAllocated() uint64 {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(sample)
	return sample[0].Value.Uint64()
}

// FuzzMessage feeds every typed payload decoder arbitrary bytes, as the
// server's dispatch, the client's round trips and Store.Reload do with
// whatever a frame or an object carried. The first byte picks the decoder.
// None may panic, fail with anything but ErrBadMessage, or allocate beyond a
// small multiple of its input, and what one accepts must marshal back to the
// same bytes.
//
//	go test -run xxx -fuzz FuzzMessage -fuzztime 30s ./internal/nvmeoe
func FuzzMessage(f *testing.F) {
	req := FetchReq{Kind: FetchImageStream, From: 5, Before: 77, ChunkPages: 32, Anchor: 61, Flags: FetchFlagDedup}
	valid := [][]byte{
		req.Marshal(),
		(&Ack{UpTo: 42, SvcNs: 18_000_000}).Marshal(),
		(&StreamEnd{Chunks: 3, Pages: 129, NextLPN: 4096}).Marshal(),
		(&Head{NextSeq: 1234, Hash: [32]byte{0xAB}}).Marshal(),
		(&Checkpoint{Seq: 7, WriteSeqs: []uint64{1, 2, 3, ^uint64(0)}}).Marshal(),
		(&ErrorMsg{Code: 400, Text: "chain gap"}).Marshal(),
	}
	for sel := range messageDecoders {
		for _, b := range valid {
			f.Add(byte(sel), b)
			f.Add(byte(sel), b[:len(b)-1])
			f.Add(byte(sel), append(b[:len(b):len(b)], 0))
		}
		for _, n := range retiredSizes {
			f.Add(byte(sel), append(valid[0][:len(valid[0]):len(valid[0])], make([]byte, n)...)[:n])
		}
		f.Add(byte(sel), checkpointClaiming(1<<61, 0))
		f.Add(byte(sel), checkpointClaiming(1<<20, 64))
	}

	f.Fuzz(func(t *testing.T, sel byte, b []byte) {
		d := messageDecoders[int(sel)%len(messageDecoders)]
		// A checkpoint's table is its body again, an error's text likewise,
		// and both are marshaled once more below; the rest is error text.
		// (See FuzzUnmarshalSegment for why the smallest of three tries.)
		limit := uint64(4*len(b) + 64<<10)
		var again []byte
		var err error
		allocated := ^uint64(0)
		for try := 0; try < 3 && allocated > limit; try++ {
			before := heapAllocated()
			again, err = d.decode(b)
			allocated = min(allocated, heapAllocated()-before)
		}
		if allocated > limit {
			t.Fatalf("%s: %d bytes in, %d allocated (limit %d)", d.name, len(b), allocated, limit)
		}
		if err != nil {
			if !errors.Is(err, ErrBadMessage) {
				t.Fatalf("%s: err=%v", d.name, err)
			}
			return
		}
		if d.size != 0 && len(b) != d.size {
			t.Fatalf("%s: accepted %d bytes, its size is %d", d.name, len(b), d.size)
		}
		if !bytes.Equal(again, b) {
			t.Fatalf("%s: accepted %d bytes, marshals back to %d different ones", d.name, len(b), len(again))
		}
	})
}

// FuzzRefChunk feeds the ref-chunk walker arbitrary bytes, as the restoring
// device does with whatever an image-stream blob decoded to: it must not
// panic, must fail only with ErrBadMessage, must hand out literal payloads
// that lie inside the input, and what it accepts must encode back, through
// AppendRefChunk, to the same bytes.
//
//	go test -run xxx -fuzz FuzzRefChunk -fuzztime 30s ./internal/nvmeoe
func FuzzRefChunk(f *testing.F) {
	pages := makeRefPages(rand.New(rand.NewSource(5)), 6, 96)
	raw := AppendRefChunk(nil, 9, pages)
	f.Add(raw)
	f.Add(AppendRefChunk(nil, 9, nil))
	f.Add(raw[:len(raw)-1])
	f.Add(append(raw[:len(raw):len(raw)], 0)) // trailing byte
	// A reference that carries payload bytes all the same.
	for i := range pages {
		if pages[i].Ref {
			lying := AppendRefChunk(nil, 9, pages[i:i+1])
			binary.LittleEndian.PutUint32(lying[refChunkHeaderSize+refPageFixedSize-4:], 4)
			f.Add(append(lying, 1, 2, 3, 4))
			break
		}
	}
	// Counts past the buffer: one page more than is there, and 2³² − 1.
	for _, n := range []uint32{uint32(len(pages)) + 1, ^uint32(0)} {
		over := append([]byte(nil), raw...)
		binary.LittleEndian.PutUint32(over[12:], n)
		f.Add(over)
	}

	f.Fuzz(func(t *testing.T, b []byte) {
		var walked []RefPage
		off := refChunkHeaderSize // where the walker is, tracked from outside
		dev, err := WalkRefChunk(b, func(p RefPage) error {
			off += refPageFixedSize
			if p.Ref && p.Data != nil {
				t.Fatalf("page %d: a reference with %d payload bytes", len(walked), len(p.Data))
			}
			if len(p.Data) > 0 && (off+len(p.Data) > len(b) || &p.Data[0] != &b[off]) {
				t.Fatalf("page %d: literal payload is not the input's bytes at %d", len(walked), off)
			}
			off += len(p.Data)
			walked = append(walked, p)
			return nil
		})
		if err != nil {
			if !errors.Is(err, ErrBadMessage) {
				t.Fatalf("err=%v", err)
			}
			return
		}
		if again := AppendRefChunk(nil, dev, walked); !bytes.Equal(again, b) {
			t.Fatalf("accepted %d bytes, encodes back to %d different ones", len(b), len(again))
		}
	})
}
