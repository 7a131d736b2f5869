package bufpool

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"math/rand"
	"testing"
)

// benchRefChunk lays out a restore chunk the way nvmeoe.AppendRefChunk does
// (which this package cannot import): a 16-byte header, then per page 62
// bytes of sequence numbers, flags and content hash, and a literal page's
// payload. A share literalFrac of the pages are literals; the rest are hash
// references to literals an earlier chunk carried, with no payload, as a
// stream opened with the dedup flag sends them. It is what the restore
// stream deflates.
func benchRefChunk(seed int64, pages int, literalFrac, randomFrac float64) []byte {
	rng := rand.New(rand.NewSource(seed))
	b := binary.LittleEndian.AppendUint32(nil, 0x48535352)
	b = binary.LittleEndian.AppendUint64(b, 7)
	b = binary.LittleEndian.AppendUint32(b, uint32(pages))
	for j := 0; j < pages; j++ {
		literal := literalFrac >= 1 || rng.Float64() < literalFrac
		b = binary.LittleEndian.AppendUint64(b, uint64(1000+j))
		b = binary.LittleEndian.AppendUint64(b, uint64(5000+rng.Intn(4096)))
		b = binary.LittleEndian.AppendUint64(b, ^uint64(0))
		if literal {
			b = append(b, 0, 0)
		} else {
			b = append(b, 0, 1)
		}
		var hash [32]byte
		rng.Read(hash[:])
		b = append(b, hash[:]...)
		if !literal {
			b = binary.LittleEndian.AppendUint32(b, 0)
			continue
		}
		b = binary.LittleEndian.AppendUint32(b, benchPageSize)
		b = append(b, benchPage(rng, randomFrac)...)
	}
	return b
}

func benchCiphertext(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

type benchCase struct {
	name string
	raw  []byte
}

// deflateCases are the payloads the encoder meets on the datapath: first the
// five BenchmarkInflate decodes, the last of them a dedup restore chunk, then
// smaller entry batches down to a three-entry FetchEntries reply, a segment
// of encrypted pages (which ends up stored), and a restore chunk of literals
// only.
func deflateCases() []benchCase {
	return []benchCase{
		{"pages16_random35", benchSegment(1, 16, 0.35)},
		{"pages4_random35", benchSegment(2, 4, 0.35)},
		{"pages16_random10", benchSegment(3, 16, 0.10)},
		{"entries4096", benchEntrySegment(4, 4096)},
		{"refchunk64_lit30_random35", benchRefChunk(9, 64, 0.30, 0.35)},
		{"entries64", benchEntrySegment(5, 64)},
		{"entries3_reply", benchEntrySegment(6, 3)},
		{"ciphertext70k", benchCiphertext(7, 70<<10)},
		{"refchunk32_random10", benchRefChunk(8, 32, 1, 0.10)},
	}
}

// BenchmarkDeflate is the committed before/after row for the encoder: MB/s
// is input bytes per second of one lane, ratio the deflated over the input
// size. Each case also runs compress/flate at BestSpeed — a pooled, Reset
// writer, which is what Deflater.Append wrapped before — so one run prints
// both sides. The destination has the capacity AppendSegmentBlob rents, so
// allocs/op must read 0.
func BenchmarkDeflate(b *testing.B) {
	for _, c := range deflateCases() {
		b.Run(c.name, func(b *testing.B) {
			d := GetDeflater()
			defer d.Release()
			out := Get(len(c.raw) + 9)
			defer out.Release()
			b.SetBytes(int64(len(c.raw)))
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				out.B, _ = d.Append(out.B[:0], c.raw)
			}
			b.ReportMetric(float64(len(out.B))/float64(len(c.raw)), "ratio")
		})
		b.Run(c.name+"/stdlib", func(b *testing.B) {
			var sink bytes.Buffer
			sink.Grow(len(c.raw) + 64)
			w, _ := flate.NewWriter(&sink, flate.BestSpeed)
			b.SetBytes(int64(len(c.raw)))
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				sink.Reset()
				w.Reset(&sink)
				w.Write(c.raw)
				w.Close()
			}
			b.ReportMetric(float64(sink.Len())/float64(len(c.raw)), "ratio")
		})
	}
}
