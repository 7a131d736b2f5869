package remote

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/oplog"
	"repro/internal/simclock"
)

// buildPageSegments builds n chain-valid segments whose k pages each land
// on distinct LPNs (unlike buildSegments' 8-LPN wrap), so image streams
// cover a wide LPN range.
func buildPageSegments(deviceID uint64, n, k int) []*oplog.Segment {
	l := oplog.New()
	var segs []*oplog.Segment
	for s := 0; s < n; s++ {
		seg := &oplog.Segment{DeviceID: deviceID, FirstSeq: l.NextSeq()}
		for i := 0; i < k; i++ {
			lpn := uint64(s*k + i)
			data := []byte(fmt.Sprintf("page-%d", lpn))
			e := l.Append(oplog.KindWrite, simclock.Time(s*k+i), lpn, 0, lpn, 1, oplog.HashData(data))
			seg.Entries = append(seg.Entries, e)
			seg.Pages = append(seg.Pages, oplog.PageRecord{
				LPN: lpn, WriteSeq: e.Seq, StaleSeq: e.Seq + 1,
				Hash: oplog.HashData(data), Data: data,
			})
		}
		seg.LastSeq = l.NextSeq()
		segs = append(segs, seg)
	}
	return segs
}

// TestImageRangeChunks walks the store's image in chunks and checks the
// walk reassembles exactly the per-LPN Version answers, in LPN order.
func TestImageRangeChunks(t *testing.T) {
	st := NewStore(NewMemStore())
	for _, seg := range buildPageSegments(1, 4, 10) {
		if err := st.AppendSegment(seg); err != nil {
			t.Fatal(err)
		}
	}
	var want []oplog.PageRecord
	for lpn := uint64(0); lpn < 50; lpn++ {
		if rec, ok := st.Version(1, lpn, 100); ok {
			want = append(want, rec)
		}
	}
	var got []oplog.PageRecord
	from := uint64(0)
	for {
		pages, next, more := st.ImageRange(1, from, ^uint64(0), 100, 7, nil)
		got = append(got, pages...)
		if !more || len(pages) == 0 {
			break
		}
		from = next
	}
	if len(got) != len(want) {
		t.Fatalf("chunked walk returned %d pages, per-LPN queries %d", len(got), len(want))
	}
	for i := range got {
		if got[i].LPN != want[i].LPN || got[i].WriteSeq != want[i].WriteSeq {
			t.Fatalf("page %d: chunked %+v, per-LPN query %+v", i, got[i], want[i])
		}
	}
	// A bounded range returns only its half-open LPN window.
	pages, _, _ := st.ImageRange(1, 5, 9, 100, 100, nil)
	if len(pages) != 4 || pages[0].LPN != 5 || pages[3].LPN != 8 {
		t.Fatalf("bounded range = %d pages starting %d", len(pages), pages[0].LPN)
	}
}

// imageRangeByFullScan is the selection ImageRange made before it had a
// sorted LPN index: every LPN of the version map filtered, sorted, cut at
// maxPages.
func imageRangeByFullScan(st *Store, dev, from, to, before uint64, maxPages int, only map[uint64]struct{}) (pages []oplog.PageRecord, next uint64, more bool) {
	d, _ := st.lookup(dev)
	var lpns []uint64
	for lpn := range d.versions {
		if _, touched := only[lpn]; lpn >= from && lpn < to && (only == nil || touched) {
			lpns = append(lpns, lpn)
		}
	}
	slices.Sort(lpns)
	next = from
	for _, lpn := range lpns {
		rec, ok := st.Version(dev, lpn, before)
		if !ok {
			continue
		}
		if len(pages) == maxPages {
			return pages, next, true
		}
		pages, next = append(pages, rec), lpn+1
	}
	return pages, next, false
}

// TestImageRangeMatchesFullScan holds the indexed ImageRange against the full
// scan on a seeded index — sparse LPNs with one to three versions each — for
// random cursors, bounds, cuts and chunk sizes, with `only` set and unset,
// and again after an expiry takes some LPNs' last version and an ingest
// gives new LPNs their first.
func TestImageRangeMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	st := NewStore(NewMemStore())
	l := oplog.New()
	ingest := func(pages int) {
		seg := &oplog.Segment{DeviceID: 1, FirstSeq: l.NextSeq()}
		for i := 0; i < pages; i++ {
			lpn := uint64(rng.Intn(400))
			data := []byte(fmt.Sprintf("v%d-%d", l.NextSeq(), lpn))
			e := l.Append(oplog.KindWrite, 0, lpn, 0, lpn, 1, oplog.HashData(data))
			seg.Entries = append(seg.Entries, e)
			seg.Pages = append(seg.Pages, oplog.PageRecord{LPN: lpn, WriteSeq: e.Seq, StaleSeq: e.Seq + 1, Hash: e.DataHash, Data: data})
		}
		seg.LastSeq = l.NextSeq()
		if err := st.AppendSegment(seg); err != nil {
			t.Fatal(err)
		}
	}
	compare := func(stage string) {
		for trial := 0; trial < 300; trial++ {
			from, to := uint64(rng.Intn(420)), ^uint64(0)
			if rng.Intn(3) == 0 {
				to = from + uint64(rng.Intn(200))
			}
			before, maxPages := uint64(rng.Intn(int(l.NextSeq())+2)), rng.Intn(40)
			var only map[uint64]struct{}
			if trial%2 == 1 {
				only = map[uint64]struct{}{}
				for i := rng.Intn(120); i > 0; i-- {
					only[uint64(rng.Intn(420))] = struct{}{}
				}
			}
			got, gotNext, gotMore := st.ImageRange(1, from, to, before, maxPages, only)
			want, wantNext, wantMore := imageRangeByFullScan(st, 1, from, to, before, max(maxPages, 1), only)
			if gotNext != wantNext || gotMore != wantMore || len(got) != len(want) {
				t.Fatalf("%s trial %d [%d,%d) before %d max %d only=%v: %d pages next %d more %v, full scan %d pages next %d more %v",
					stage, trial, from, to, before, maxPages, only != nil, len(got), gotNext, gotMore, len(want), wantNext, wantMore)
			}
			for i := range got {
				if got[i].LPN != want[i].LPN || got[i].WriteSeq != want[i].WriteSeq {
					t.Fatalf("%s trial %d page %d: %+v, full scan %+v", stage, trial, i, got[i], want[i])
				}
			}
		}
	}
	for s := 0; s < 6; s++ {
		ingest(60)
	}
	compare("seeded")
	for _, i := range []int{0, 3} {
		if err := st.DropSegmentPages(1, i); err != nil {
			t.Fatal(err)
		}
	}
	compare("after expiry")
	ingest(80)
	compare("after ingest")
}

// TestFetchImageStreamEndToEnd drives the chunked image stream over a real
// session and checks chunk ordering, the trailer, resume-from-LPN, and the
// server's restore ledger.
func TestFetchImageStreamEndToEnd(t *testing.T) {
	st := NewStore(NewMemStore())
	srv := NewServer(st, psk)
	for _, seg := range buildPageSegments(5, 4, 10) {
		if err := st.AppendSegment(seg); err != nil {
			t.Fatal(err)
		}
	}
	cl, err := Loopback(srv, psk, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	var streamed []oplog.PageRecord
	var chunks int
	end, err := cl.FetchImageStream(0, 100, 0, 8, nil, func(pages []oplog.PageRecord, cs ChunkStats) error {
		if cs.WireBytes <= 0 || cs.LogicalBytes <= 0 || cs.WireBytes > cs.LogicalBytes+64 {
			return fmt.Errorf("implausible chunk sizes wire=%d logical=%d", cs.WireBytes, cs.LogicalBytes)
		}
		if cs.Literals != len(pages) || cs.Refs != 0 {
			return fmt.Errorf("%d pages arrived as %d literals + %d refs on a stream without the dedup flag", len(pages), cs.Literals, cs.Refs)
		}
		chunks++
		streamed = append(streamed, pages...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if end.Pages != 40 || end.Chunks != uint64(chunks) || chunks != 5 {
		t.Fatalf("stream end = %+v over %d chunks", end, chunks)
	}
	for i := 1; i < len(streamed); i++ {
		if streamed[i].LPN <= streamed[i-1].LPN {
			t.Fatalf("stream not LPN-ordered at %d", i)
		}
	}
	if end.NextLPN != streamed[len(streamed)-1].LPN+1 {
		t.Fatalf("NextLPN = %d, want %d", end.NextLPN, streamed[len(streamed)-1].LPN+1)
	}

	// Resume: a stream opened at LPN 25 serves only the tail.
	end2, err := cl.FetchImageStream(25, 100, 0, 8, nil, func(pages []oplog.PageRecord, cs ChunkStats) error {
		for _, p := range pages {
			if p.LPN < 25 {
				return fmt.Errorf("resumed stream re-served lpn %d", p.LPN)
			}
		}
		return nil
	})
	if err != nil || end2.Pages != 15 {
		t.Fatalf("resumed stream = %+v, %v", end2, err)
	}

	rs := srv.RecoveryStats(5)
	if rs.Streams != 2 || rs.Resumes != 1 || rs.Pages != 55 {
		t.Fatalf("recovery stats = %+v", rs)
	}
	if rs.BytesWire == 0 || rs.BytesWire >= rs.BytesLogical {
		t.Fatalf("restore wire not compressed: %+v", rs)
	}

	// The session is still usable for ordinary requests after streaming.
	if h, err := cl.Head(); err != nil || h.NextSeq != 40 {
		t.Fatalf("post-stream head = %+v, %v", h, err)
	}
}

// TestRecoveryLinkFairShare: with k sessions open, a chunk costs k times
// its solo transfer time plus RTT — the NIC is split fairly.
func TestRecoveryLinkFairShare(t *testing.T) {
	l := NewRecoveryLink(simclock.Microsecond, 1000) // 1 GB/s, 1µs RTT
	const bytes = 1e6                                // 1 MB: 1ms solo
	rel1 := l.Open()
	solo := l.ChunkTime(bytes)
	if want := simclock.Microsecond + simclock.Millisecond; solo != want {
		t.Fatalf("solo chunk = %v, want %v", solo, want)
	}
	rel2 := l.Open()
	rel3 := l.Open()
	if got := l.ChunkTime(bytes); got != simclock.Microsecond+3*simclock.Millisecond {
		t.Fatalf("3-way chunk = %v", got)
	}
	rel2()
	rel2() // release is idempotent
	rel3()
	if got := l.ChunkTime(bytes); got != solo {
		t.Fatalf("share not returned after release: %v", got)
	}
	rel1()
	if l.Active() != 0 || l.PeakSessions() != 3 {
		t.Fatalf("active=%d peak=%d", l.Active(), l.PeakSessions())
	}
	// An unconfigured link still prices transfers (defaults), and the
	// zero value must behave exactly like NewRecoveryLink(0, 0) — the
	// contract the arbiter delegation shim must not drift from.
	var def RecoveryLink
	if def.ChunkTime(1<<20) <= 0 {
		t.Fatal("default link priced a chunk at zero")
	}
	ctor := NewRecoveryLink(0, 0)
	if got, want := def.ChunkTime(1<<20), ctor.ChunkTime(1<<20); got != want {
		t.Fatalf("zero-value ChunkTime %v != NewRecoveryLink(0,0) %v", got, want)
	}
	rel := def.Open()
	relC := ctor.Open()
	if got, want := def.ChunkTime(1<<20), ctor.ChunkTime(1<<20); got != want {
		t.Fatalf("zero-value open-session ChunkTime %v != constructor's %v", got, want)
	}
	rel()
	relC()
	if def.Active() != ctor.Active() || def.PeakSessions() != ctor.PeakSessions() {
		t.Fatalf("zero-value session ledger (%d/%d) != constructor's (%d/%d)",
			def.Active(), def.PeakSessions(), ctor.Active(), ctor.PeakSessions())
	}
	// The defaults are the arbiter defaults: one constant set, not two.
	if def.Arbiter().LineMBps() != DefaultRecoveryMBps || def.Arbiter().RTT() != DefaultRecoveryRTT {
		t.Fatal("zero-value link did not resolve the documented defaults")
	}
}
