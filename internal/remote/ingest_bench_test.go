package remote

import (
	"fmt"
	"runtime"
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

// BenchmarkIngestSegment is a server session's work for one 32-page segment
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
					if err := appendDecoded(st, prime); err != nil {
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
// with the held copy, not hashed into a digest or copied, and its record is
// chained where the decode put it — so 32 held pages cost what one does.
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
			if err := appendDecoded(st, seg); err != nil {
				t.Fatal(err)
			}
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
// never seen costs AppendSegmentBlob no allocation per page: the store's
// copies of them share one slab, the index holds its entries by value and
// each record is chained where the decode put it, so 32 new pages cost what
// one does. The index's shards are given room first, as they have between
// doublings.
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
	if one, many := allocs(1), allocs(32); one != many {
		t.Fatalf("AppendSegmentBlob of new pages: %v allocs for 1 page, %v for 32, want the same", one, many)
	}
}

// TestIngestSlabsFillWholeAllocatorPages: the slab a segment's new pages are
// copied into costs what those pages hold. Go rounds an object over 32 KiB up
// to whole 8 KiB pages, so an odd count of 4 KiB pages past eight would waste
// half a page per segment unless the spilling page gets a slab of its own. Per
// new page, AppendSegmentBlob allocates its 4 KiB copy and its 16-byte chain
// link, whatever the count.
func TestIngestSlabsFillWholeAllocatorPages(t *testing.T) {
	if bufpool.RaceEnabled {
		t.Skip("race instrumentation allocates; alloc assertions run in the non-race job")
	}
	const runs = 50
	bytesPerRun := func(k int) float64 {
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
		for _, i := range []int{0, 1} {
			if err := st.AppendSegmentBlob(segs[i], blobs[i]); err != nil {
				t.Fatal(err)
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 2; i < len(segs); i++ {
			if err := st.AppendSegmentBlob(segs[i], blobs[i]); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	one := bytesPerRun(1)
	for _, k := range []int{9, 33} {
		if perPage := (bytesPerRun(k) - one) / float64(k-1); perPage > 4096+32 {
			t.Fatalf("AppendSegmentBlob of %d new 4 KiB pages: %.0f bytes allocated per page beyond the first, want at most 4128", k, perPage)
		}
	}
}
