package bufpool

import (
	"math/rand"
	"testing"

	"repro/internal/oplog"
	"repro/internal/simclock"
)

// The payloads the decoder meets on the datapath, built the way the device
// builds them: an offload segment is a marshaled oplog.Segment whose pages
// are a random head followed by text (the content model of internal/workload
// and of the repo benchmark), and a FetchEntries reply is a page-less segment
// of chained log entries — 141 bytes each, three of every four incompressible
// hash, the fourth quarter a repeat of the previous entry's hash.

const benchPageSize = 4096

func benchEntries(rng *rand.Rand, n int) []oplog.Entry {
	entries := make([]oplog.Entry, n)
	var prev [oplog.HashSize]byte
	for j := range entries {
		e := &entries[j]
		e.Seq = uint64(1000 + j)
		e.At = simclock.Time(50_000 * (j + 1))
		e.Kind = oplog.KindWrite
		e.LPN = uint64(rng.Intn(1 << 16))
		e.OldPPN = uint64(rng.Intn(1 << 18))
		e.NewPPN = uint64(rng.Intn(1 << 18))
		e.Entropy = 3 + rng.Float32()
		rng.Read(e.DataHash[:])
		e.Seal(prev)
		prev = e.Hash
	}
	return entries
}

// benchPage is one page of the content model: randomFrac of it
// incompressible, the rest text.
func benchPage(rng *rand.Rand, randomFrac float64) []byte {
	const phrase = "status: nominal; next maintenance window pending approval. "
	data := make([]byte, benchPageSize)
	cut := int(randomFrac * benchPageSize)
	rng.Read(data[:cut])
	for k := cut; k < len(data); k += copy(data[k:], phrase) {
	}
	return data
}

// benchSegment marshals a segment of pages retained pages (and as many log
// entries), each page randomFrac incompressible.
func benchSegment(seed int64, pages int, randomFrac float64) []byte {
	rng := rand.New(rand.NewSource(seed))
	seg := oplog.Segment{DeviceID: 7, FirstSeq: 1000, LastSeq: 1000 + uint64(pages)}
	seg.Entries = benchEntries(rng, pages)
	for j := 0; j < pages; j++ {
		data := benchPage(rng, randomFrac)
		seg.Pages = append(seg.Pages, oplog.PageRecord{
			LPN: seg.Entries[j].LPN, WriteSeq: seg.Entries[j].Seq, StaleSeq: seg.Entries[j].Seq + 9,
			Hash: seg.Entries[j].DataHash, Data: data,
		})
	}
	return seg.Marshal()
}

func benchEntrySegment(seed int64, n int) []byte {
	seg := oplog.Segment{DeviceID: 7, FirstSeq: 1000, LastSeq: 1000 + uint64(n)}
	seg.Entries = benchEntries(rand.New(rand.NewSource(seed)), n)
	return seg.Marshal()
}

// BenchmarkInflate is the committed before/after row for the decoder: MB/s
// is logical (decoded) bytes per second of one lane, ratio the deflated over
// the logical size. The destination has the capacity a pooled rental has, so
// allocs/op must read 0.
func BenchmarkInflate(b *testing.B) {
	for _, c := range deflateCases()[:5] {
		b.Run(c.name, func(b *testing.B) {
			d := GetDeflater()
			comp, err := d.Append(nil, c.raw)
			d.Release()
			if err != nil {
				b.Fatal(err)
			}
			out := Get(len(c.raw) + InflateSlack)
			defer out.Release()
			inf := GetInflater()
			defer inf.Release()
			b.SetBytes(int64(len(c.raw)))
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				if out.B, err = inf.AppendLimited(out.B[:0], comp, len(c.raw)); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if len(out.B) != len(c.raw) {
				b.Fatalf("decoded %d bytes, want %d", len(out.B), len(c.raw))
			}
			b.ReportMetric(float64(len(comp))/float64(len(c.raw)), "ratio")
		})
	}
}
