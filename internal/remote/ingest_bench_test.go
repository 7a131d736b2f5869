package remote

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/bufpool"
	"repro/internal/nvmeoe"
	"repro/internal/oplog"
	"repro/internal/simclock"
)

// heldHistory is device 1's chain of n segments, one write entry and k pages
// on LPNs 0..k-1 each, as codec blobs, and prime, a device-2 segment that
// stores the first held pages' contents. Page i < held of every segment
// carries the content prime holds at i; the rest are new to the store.
func heldHistory(n, k, held int) (prime *oplog.Segment, blobs [][]byte) {
	prime = &oplog.Segment{DeviceID: 2}
	for i := 0; i < held; i++ {
		data := incompressiblePage(4096, uint64(i+1))
		prime.Pages = append(prime.Pages, oplog.PageRecord{LPN: uint64(i), Hash: oplog.HashData(data), Data: data})
	}
	l := oplog.New()
	for s := 0; s < n; s++ {
		seg := &oplog.Segment{DeviceID: 1, FirstSeq: l.NextSeq()}
		seg.Entries = append(seg.Entries, l.Append(oplog.KindWrite, simclock.Time(s), uint64(s), 0, uint64(s), 8, [oplog.HashSize]byte{}))
		seg.LastSeq = l.NextSeq()
		for i := 0; i < k; i++ {
			data := incompressiblePage(4096, uint64(1000+s*k+i))
			if i < held {
				data = prime.Pages[i].Data
			}
			seg.Pages = append(seg.Pages, oplog.PageRecord{LPN: uint64(i), WriteSeq: seg.FirstSeq, StaleSeq: seg.LastSeq, Hash: oplog.HashData(data), Data: data})
		}
		blobs = append(blobs, nvmeoe.EncodeSegmentBlob(seg.Marshal()))
	}
	return prime, blobs
}

// BenchmarkIngestSegment is the server lane's work for one 32-page segment
// off the wire — decode into a pooled buffer, unmarshal, verify, adopt — with
// 0, 40 and 100 % of its pages already held by another device. A held page
// is compared with the store's copy, a new one hashed and copied. Every 64
// segments the store starts again, so the index stays the size of one
// history.
//
//	go test -run xxx -bench IngestSegment -cpu 1 ./internal/remote
func BenchmarkIngestSegment(b *testing.B) {
	const segs, pages = 64, 32
	for _, pct := range []int{0, 40, 100} {
		b.Run(fmt.Sprintf("held=%d%%", pct), func(b *testing.B) {
			prime, blobs := heldHistory(segs, pages, (pages*pct+50)/100)
			var st *Store
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%segs == 0 {
					b.StopTimer()
					st = NewStore(NewMemStore())
					if err := st.AppendSegment(prime); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				blob := blobs[i%segs]
				buf := bufpool.Get(nvmeoe.SegmentBlobLogicalSize(blob))
				raw, err := decodeBlob(buf, blob)
				var seg *oplog.Segment
				if err == nil {
					seg, err = oplog.UnmarshalSegment(raw)
				}
				if err == nil {
					err = st.AppendSegmentBlob(seg, blob)
				}
				buf.Release()
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*pages), "ns/page")
		})
	}
}

// TestIngestHitSteadyStateAllocs: a segment whose pages the store already
// holds allocates nothing per page at AppendSegmentBlob — each is compared
// with the held copy, not hashed into a digest or copied — so 32 held pages
// cost what one does. The version lists are given room first, as they have
// between doublings.
func TestIngestHitSteadyStateAllocs(t *testing.T) {
	if bufpool.RaceEnabled {
		t.Skip("race instrumentation allocates; alloc assertions run in the non-race job")
	}
	const runs = 50
	allocs := func(k int) float64 {
		prime, blobs := heldHistory(runs+2, k, k)
		segs := make([]*oplog.Segment, len(blobs))
		for i, blob := range blobs {
			raw, err := nvmeoe.DecodeSegmentBlob(blob)
			if err == nil {
				segs[i], err = oplog.UnmarshalSegment(raw)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		st := NewStore(NewMemStore())
		for _, seg := range []*oplog.Segment{prime, segs[0]} {
			if err := st.AppendSegment(seg); err != nil {
				t.Fatal(err)
			}
		}
		d, _ := st.lookup(1)
		for lpn, vs := range d.versions {
			d.versions[lpn] = slices.Grow(vs, runs+2)
		}
		next := 1
		n := testing.AllocsPerRun(runs, func() {
			if err := st.AppendSegmentBlob(segs[next], blobs[next]); err != nil {
				t.Fatal(err)
			}
			next++
		})
		if hits := st.DeviceStats(1).PagesDeduped; hits != int64((runs+2)*k) {
			t.Fatalf("%d of %d pages were dedup hits", hits, (runs+2)*k)
		}
		return n
	}
	if one, many := allocs(1), allocs(32); one != many {
		t.Fatalf("AppendSegmentBlob of held pages: %v allocs for 1 page, %v for 32, want the same", one, many)
	}
}

// TestIngestFirstSightSteadyStateAllocs: a segment of contents the store has
// never seen costs AppendSegmentBlob one allocation per page, the store's own
// copy of it; the index holds its entries by value, so interning one costs
// nothing more. The version lists and the index's shards are given room
// first, as they have between doublings.
func TestIngestFirstSightSteadyStateAllocs(t *testing.T) {
	if bufpool.RaceEnabled {
		t.Skip("race instrumentation allocates; alloc assertions run in the non-race job")
	}
	const runs = 50
	allocs := func(k int) float64 {
		_, blobs := heldHistory(runs+2, k, 0)
		segs := make([]*oplog.Segment, len(blobs))
		for i, blob := range blobs {
			raw, err := nvmeoe.DecodeSegmentBlob(blob)
			if err == nil {
				segs[i], err = oplog.UnmarshalSegment(raw)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		st := NewStore(NewMemStore())
		for i := range st.chunks.shards {
			st.chunks.shards[i].m = make(map[[oplog.HashSize]byte]chunkEntry, 2*(runs+2)*k/chunkShards+8)
		}
		if err := st.AppendSegmentBlob(segs[0], blobs[0]); err != nil {
			t.Fatal(err)
		}
		d, _ := st.lookup(1)
		for lpn, vs := range d.versions {
			d.versions[lpn] = slices.Grow(vs, runs+2)
		}
		next := 1
		n := testing.AllocsPerRun(runs, func() {
			if err := st.AppendSegmentBlob(segs[next], blobs[next]); err != nil {
				t.Fatal(err)
			}
			next++
		})
		if ds := st.Dedup(); ds.UniquePages != (runs+2)*k || ds.TotalRefs != int64((runs+2)*k) {
			t.Fatalf("%d unique pages, %d refs; want %d new contents", ds.UniquePages, ds.TotalRefs, (runs+2)*k)
		}
		return n
	}
	if one, many := allocs(1), allocs(32); many-one != 31 {
		t.Fatalf("AppendSegmentBlob of new pages: %v allocs for 1 page, %v for 32, want one more per page (its copy)", one, many)
	}
}
