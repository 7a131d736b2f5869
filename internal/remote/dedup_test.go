package remote

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/bufpool"
	"repro/internal/nvmeoe"
	"repro/internal/oplog"
	"repro/internal/simclock"
)

// dedupContent is the shared content pool for dedup tests: poolN distinct
// page payloads, assigned to LPNs round-robin so every content appears
// many times per device and on every device.
func dedupContent(poolN int) [][]byte {
	pool := make([][]byte, poolN)
	for i := range pool {
		pool[i] = bytes.Repeat([]byte(fmt.Sprintf("content-%02d|", i)), 24)
	}
	return pool
}

// buildDedupSegments builds n chain-valid segments of k pages each on
// distinct LPNs whose payloads cycle through the shared pool.
func buildDedupSegments(deviceID uint64, n, k int, pool [][]byte) []*oplog.Segment {
	l := oplog.New()
	var segs []*oplog.Segment
	for s := 0; s < n; s++ {
		seg := &oplog.Segment{DeviceID: deviceID, FirstSeq: l.NextSeq()}
		for i := 0; i < k; i++ {
			lpn := uint64(s*k + i)
			data := pool[int(lpn)%len(pool)]
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

// TestMixedLiteralDedupRestore checks that one store serves the identical
// image three ways — every page a literal, repeats as hash references, and
// a mixed restore that starts full-literal and resumes deduped — and that
// the dedup stream actually moves fewer bytes.
func TestMixedLiteralDedupRestore(t *testing.T) {
	st := NewStore(NewMemStore())
	srv := NewServer(st, psk)
	pool := dedupContent(8)
	for _, seg := range buildDedupSegments(7, 5, 8, pool) { // 40 pages, 8 unique
		if err := appendDecoded(st, seg); err != nil {
			t.Fatal(err)
		}
	}
	cl, err := Loopback(srv, psk, 7)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	collect := func(dedup bool, from uint64) (pages []oplog.PageRecord, wire, refs int) {
		var cache *ResolveCache
		if dedup {
			cache = NewResolveCache()
		}
		_, err := cl.FetchImageStream(from, ^uint64(0), 100, 0, 8, cache, func(ps []oplog.PageRecord, cs ChunkStats) error {
			for _, p := range ps {
				p.Data = append([]byte(nil), p.Data...)
				pages = append(pages, p)
			}
			if cs.Literals+cs.Refs != len(ps) {
				t.Errorf("chunk of %d pages counted %d literals + %d refs", len(ps), cs.Literals, cs.Refs)
			}
			wire += cs.WireBytes
			refs += cs.Refs
			return nil
		})
		if err != nil {
			t.Fatalf("stream (dedup=%v from=%d): %v", dedup, from, err)
		}
		return pages, wire, refs
	}

	full, fullWire, fullRefs := collect(false, 0)
	deduped, dedupWire, dedupRefs := collect(true, 0)
	if fullRefs != 0 {
		t.Fatalf("stream without the dedup flag carried %d hash refs", fullRefs)
	}
	if dedupRefs == 0 {
		t.Fatal("dedup stream resolved no hash refs over a duplicated image")
	}
	if len(full) != 40 || len(deduped) != len(full) {
		t.Fatalf("page counts: full-literal %d, dedup %d", len(full), len(deduped))
	}
	for i := range full {
		l, d := full[i], deduped[i]
		if l.LPN != d.LPN || l.WriteSeq != d.WriteSeq || l.Hash != d.Hash || !bytes.Equal(l.Data, d.Data) {
			t.Fatalf("page %d differs across streams: full-literal %+v, dedup %+v", i, l, d)
		}
		if want := pool[int(l.LPN)%len(pool)]; !bytes.Equal(l.Data, want) || l.Hash != oplog.HashData(want) {
			t.Fatalf("lpn %d content or hash wrong", l.LPN)
		}
	}
	if dedupWire >= fullWire {
		t.Fatalf("dedup wire %d not smaller than full-literal %d", dedupWire, fullWire)
	}

	// A mixed restore: first half full-literal, resume at the cursor
	// deduped. The splice must be seamless — the resumed session
	// re-literals anything it references, so a cache that saw none of the
	// first half still resolves everything.
	mixed := append([]oplog.PageRecord(nil), full[:20]...)
	tail, tailWire, tailRefs := collect(true, mixed[len(mixed)-1].LPN+1)
	mixed = append(mixed, tail...)
	if tailRefs == 0 {
		t.Fatal("resumed dedup stream resolved no refs")
	}
	if len(mixed) != len(full) {
		t.Fatalf("mixed restore covered %d pages, want %d", len(mixed), len(full))
	}
	for i := range mixed {
		if mixed[i].LPN != full[i].LPN || !bytes.Equal(mixed[i].Data, full[i].Data) {
			t.Fatalf("mixed restore page %d differs from the full-literal image", i)
		}
	}
	// The server's ledger counts the three streams exactly, and splits
	// every page into a literal or a reference.
	pages, refs := uint64(len(full)+len(deduped)+len(tail)), uint64(dedupRefs+tailRefs)
	rs := srv.RecoveryStats()
	if rs.Streams != 3 || rs.Resumes != 1 || rs.Pages != pages || rs.PagesRef != refs || rs.PagesLiteral != pages-refs ||
		rs.BytesWire != uint64(fullWire+dedupWire+tailWire) {
		t.Fatalf("server ledger %+v, want 3 streams (1 resume) of %d pages, %d of them refs, in %d wire bytes",
			rs, pages, refs, fullWire+dedupWire+tailWire)
	}
}

// TestImageStreamAcceptsOneChunkForm: the stream reader takes hash-carrying
// ref chunks and nothing else. A literal that fails its hash, a reference on
// a stream that asked for none, a chunk with no codec header, and the
// retired full-record chunk type (10) each fail the stream before fn sees a
// page.
func TestImageStreamAcceptsOneChunkForm(t *testing.T) {
	data := bytes.Repeat([]byte("page"), 128)
	good := nvmeoe.RefPage{LPN: 3, WriteSeq: 9, StaleSeq: 10, Hash: oplog.HashData(data), Data: data}
	wrongHash := good
	wrongHash.Hash[0] ^= 1
	ref := nvmeoe.RefPage{LPN: 3, WriteSeq: 9, StaleSeq: 10, Hash: good.Hash, Ref: true}
	chunk := func(p nvmeoe.RefPage) []byte { return nvmeoe.AppendRefChunk(nil, 7, []nvmeoe.RefPage{p}) }
	seg := &oplog.Segment{DeviceID: 7, Pages: []oplog.PageRecord{{LPN: 3, WriteSeq: 9, StaleSeq: 10, Hash: good.Hash, Data: data}}}

	for _, tc := range []struct {
		name    string
		typ     nvmeoe.MsgType
		payload []byte
		ok      bool
	}{
		{"literal with its hash", nvmeoe.MsgFetchChunkRef, nvmeoe.EncodeSegmentBlob(chunk(good)), true},
		{"literal failing its hash", nvmeoe.MsgFetchChunkRef, nvmeoe.EncodeSegmentBlob(chunk(wrongHash)), false},
		{"reference nobody asked for", nvmeoe.MsgFetchChunkRef, nvmeoe.EncodeSegmentBlob(chunk(ref)), false},
		{"chunk without the codec header", nvmeoe.MsgFetchChunkRef, chunk(good), false},
		{"retired full-record chunk type", nvmeoe.MsgType(10), nvmeoe.EncodeSegmentBlob(seg.Marshal()), false},
	} {
		dc, sc := net.Pipe()
		served := make(chan error, 1)
		go func() {
			defer sc.Close()
			conn, _, err := nvmeoe.ServerHandshake(sc, func(uint64) ([]byte, bool) { return psk, true })
			if err == nil {
				_, _, err = conn.ReadMsg() // the fetch
			}
			if err == nil {
				err = conn.WriteMsg(tc.typ, tc.payload)
			}
			if err == nil && tc.ok {
				err = conn.WriteMsg(nvmeoe.MsgFetchEnd, (&nvmeoe.StreamEnd{Chunks: 1, Pages: 1, NextLPN: 4}).Marshal())
			}
			served <- err
		}()
		cl, err := Dial(dc, psk, 7)
		if err != nil {
			t.Fatal(err)
		}
		pages := 0
		_, err = cl.FetchImageStream(0, ^uint64(0), 100, 0, 8, nil, func(ps []oplog.PageRecord, cs ChunkStats) error {
			pages += len(ps)
			return nil
		})
		cl.Close()
		if serr := <-served; serr != nil {
			t.Fatalf("%s: scripted server: %v", tc.name, serr)
		}
		if tc.ok != (err == nil) || (!tc.ok && pages != 0) || (tc.ok && pages != 1) {
			t.Errorf("%s: err=%v, %d pages reached the callback", tc.name, err, pages)
		}
	}
}

// TestServerRefusesRetiredForms: a fetch kind that was retired (2, the
// one-page version; 3, the monolithic image; 7, the LPN range), a segment push
// without the codec header and the retired message type each get
// CodeBadData, change nothing, and leave the session serving.
func TestServerRefusesRetiredForms(t *testing.T) {
	st := NewStore(NewMemStore())
	srv := NewServer(st, psk)
	cl, err := Loopback(srv, psk, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	segs := buildSegments(5, 2, 4)
	if _, err := cl.PushSegmentBlob(nvmeoe.EncodeSegmentBlob(segs[0].Marshal()), segs[0].LastSeq); err != nil {
		t.Fatal(err)
	}
	badData := func(what string, err error) {
		t.Helper()
		var re *RemoteError
		if !errors.As(err, &re) || re.Code != CodeBadData {
			t.Fatalf("%s: err=%v, want CodeBadData", what, err)
		}
		if h, err := cl.Head(); err != nil || h.NextSeq != 4 {
			t.Fatalf("%s: session or chain did not survive: head %+v, %v", what, h, err)
		}
	}
	for _, kind := range []nvmeoe.FetchKind{2, 3, 7, 0, 9} {
		req := nvmeoe.FetchReq{Kind: kind, To: 100, Before: 100}
		_, err := cl.roundTrip(nvmeoe.MsgFetch, req.Marshal(), nvmeoe.MsgFetchResp)
		badData(fmt.Sprintf("fetch kind %d", kind), err)
	}
	for _, n := range []int{33, 37} {
		req := nvmeoe.FetchReq{Kind: nvmeoe.FetchHead}
		_, err := cl.roundTrip(nvmeoe.MsgFetch, req.Marshal()[:n], nvmeoe.MsgFetchResp)
		badData(fmt.Sprintf("%d-byte fetch request", n), err)
	}
	_, err = cl.PushSegmentBlob(segs[1].Marshal(), segs[1].LastSeq)
	badData("segment without the codec header", err)
	_, err = cl.roundTrip(nvmeoe.MsgType(10), nil, nvmeoe.MsgFetchResp)
	badData("message type 10", err)
	if ist := srv.IngestTotals(); ist.Segments != 1 || ist.Errors != 1 {
		t.Fatalf("ingest ledger = %+v, want 1 segment and 1 error", ist)
	}
	if _, err := cl.PushSegmentBlob(nvmeoe.EncodeSegmentBlob(segs[1].Marshal()), segs[1].LastSeq); err != nil {
		t.Fatalf("the same segment, codec-framed: %v", err)
	}
}

// TestDedupRefcountConcurrent hammers the chunk index from three sides at
// once — per-device offload ingest, restore reads, and segment expiry
// (DropSegmentPages) — across devices sharing one content pool, then
// checks the refcount ledger balances exactly and no surviving version
// lost its payload. Runs under -race in CI.
func TestDedupRefcountConcurrent(t *testing.T) {
	const (
		devices = 4
		segs    = 6 // odd-indexed segments are dropped as they age
		pages   = 8
		poolN   = 16
	)
	st := NewStore(NewMemStore())
	pool := dedupContent(poolN)

	var done atomic.Bool
	var writers, readers sync.WaitGroup
	errCh := make(chan error, 2*devices)
	for dev := 1; dev <= devices; dev++ {
		writers.Add(1)
		// Writer: append this device's chain in order, expiring each odd
		// segment once its successor lands (and the last one at the end).
		go func(dev uint64) {
			defer writers.Done()
			for i, seg := range buildDedupSegments(dev, segs, pages, pool) {
				if err := appendDecoded(st, seg); err != nil {
					errCh <- fmt.Errorf("device %d append %d: %w", dev, i, err)
					return
				}
				if i%2 == 0 && i > 0 {
					if err := st.DropSegmentPages(dev, i-1); err != nil {
						errCh <- fmt.Errorf("device %d drop %d: %w", dev, i-1, err)
						return
					}
				}
			}
			if err := st.DropSegmentPages(dev, segs-1); err != nil {
				errCh <- fmt.Errorf("device %d drop %d: %w", dev, segs-1, err)
			}
		}(uint64(dev))
		readers.Add(1)
		// Reader: restore-style chunked image walks while ingest and
		// expiry churn; every page served must carry its true content.
		go func(dev uint64) {
			defer readers.Done()
			for !done.Load() {
				from := uint64(0)
				for {
					ps, next, more := st.ImageRange(dev, from, ^uint64(0), 1<<40, 8, nil)
					for _, p := range ps {
						if want := pool[int(p.LPN)%poolN]; !bytes.Equal(p.Data, want) {
							errCh <- fmt.Errorf("device %d lpn %d served wrong or freed content", dev, p.LPN)
							return
						}
					}
					if !more || len(ps) == 0 {
						break
					}
					from = next
				}
			}
		}(uint64(dev))
	}
	writers.Wait()
	done.Store(true)
	readers.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// Ledger balance: even segments survive on every device, odd ones are
	// dropped. Every surviving version holds exactly one chunk reference.
	surviving := 0
	wantContents := map[int]bool{}
	for dev := 1; dev <= devices; dev++ {
		for s := 0; s < segs; s += 2 {
			for i := 0; i < pages; i++ {
				surviving++
				wantContents[(s*pages+i)%poolN] = true
			}
		}
	}
	ds := st.Dedup()
	if ds.TotalRefs != int64(surviving) {
		t.Fatalf("chunk refs = %d, want %d surviving versions", ds.TotalRefs, surviving)
	}
	if ds.UniquePages != len(wantContents) {
		t.Fatalf("unique chunks = %d, want %d distinct contents", ds.UniquePages, len(wantContents))
	}
	// Every surviving version still reads back its true bytes; every
	// dropped version is gone.
	for dev := 1; dev <= devices; dev++ {
		for s := 0; s < segs; s++ {
			for i := 0; i < pages; i++ {
				lpn := uint64(s*pages + i)
				rec, ok := st.Version(uint64(dev), lpn, 1<<40)
				if s%2 == 1 {
					if ok {
						t.Fatalf("device %d lpn %d survived its segment drop", dev, lpn)
					}
					continue
				}
				if !ok || !bytes.Equal(rec.Data, pool[int(lpn)%poolN]) {
					t.Fatalf("device %d lpn %d lost its payload after expiry churn", dev, lpn)
				}
			}
		}
	}
}

// TestForgedDedupHitRefused: a page that claims a hash the index holds but
// carries other bytes is refused by the compare that stands in for its
// SHA-256, live and at Reload, however close its bytes come to the held
// copy — and so is one that claims a hash nothing holds, or the hash of an
// earlier new page of its segment with other bytes than that page's. A
// refusal leaves head, version index, chunk refcounts and tier as they were.
func TestForgedDedupHitRefused(t *testing.T) {
	prefix, target := tamperChain(1, 42)
	held := prefix.Pages[1]
	st := NewStore(NewMemStore())
	if err := appendDecoded(st, prefix); err != nil {
		t.Fatal(err)
	}
	before, dedupBefore := snapshot(t, st, 1), st.Dedup()
	flipBit := func(b []byte) []byte {
		b = slices.Clone(b)
		b[len(b)/2] ^= 0x10
		return b
	}
	flipped := flipBit(held.Data)
	for _, tc := range []struct {
		what string
		hash [oplog.HashSize]byte
		data []byte
	}{
		{"held hash, one bit flipped", held.Hash, flipped},
		{"held hash, one byte short", held.Hash, held.Data[:len(held.Data)-1]},
		{"held hash, one byte long", held.Hash, append(slices.Clone(held.Data), 0)},
		{"held hash, no bytes", held.Hash, nil},
		{"held hash, another held page's bytes", held.Hash, prefix.Pages[0].Data},
		{"hash nothing holds", oplog.HashData([]byte("elsewhere")), held.Data},
		{"an earlier new page's hash, one bit flipped", target.Pages[2].Hash, flipBit(target.Pages[2].Data)},
		{"an earlier new page's hash, no bytes", target.Pages[2].Hash, nil},
	} {
		forged := *target
		forged.Pages = slices.Clone(target.Pages)
		forged.Pages[3].Hash, forged.Pages[3].Data = tc.hash, tc.data
		raw := forged.Marshal()
		seg, err := oplog.UnmarshalSegment(raw)
		if err != nil {
			t.Fatal(err)
		}
		blob := nvmeoe.EncodeSegmentBlob(raw)
		if err := st.AppendSegmentBlob(seg, blob); err == nil || !strings.Contains(err.Error(), "page record 3") {
			t.Fatalf("%s: AppendSegmentBlob err=%v, want page record 3 refused", tc.what, err)
		}
		if after := snapshot(t, st, 1); !reflect.DeepEqual(after, before) || st.Dedup() != dedupBefore {
			t.Fatalf("%s: refused, but the store changed: stats %+v -> %+v, dedup %+v -> %+v",
				tc.what, before.stats, after.stats, dedupBefore, st.Dedup())
		}
		tier := NewMemStore()
		for k, v := range before.tier {
			tier.Put(k, v)
		}
		tier.Put(fmt.Sprintf("dev/1/seg/%020d", target.FirstSeq), blob)
		if err := NewStore(tier).Reload(); err == nil || !strings.Contains(err.Error(), "page record 3") {
			t.Fatalf("%s: Reload err=%v, want page record 3 refused", tc.what, err)
		}
	}
	if err := appendDecoded(st, target); err != nil {
		t.Fatalf("the honest segment after the forgeries: %v", err)
	}
}

// TestDedupHitReleasedBeforeAdopt: a page verified against a held copy that
// the last reference drops before adopt is interned as that verified copy,
// not as the buffer it was decoded into; nor is a page the index never held.
// Step by step on the index, then as it races on the store: device 1 expires
// the only holder while device 2 ingests the same content from a buffer it
// overwrites once the append returns. Whichever goes first, device 2 reads
// the content back and the index holds it once. Runs under -race in CI.
func TestDedupHitReleasedBeforeAdopt(t *testing.T) {
	content := incompressiblePage(4096, 7)
	h := oplog.HashData(content)

	ci := newChunkIndex()
	ci.intern(h, content)
	decoded := slices.Clone(content)
	pages := []oplog.PageRecord{{Hash: h, Data: decoded}}
	if err := ci.verify(pages); err != nil {
		t.Fatal(err)
	}
	ci.release(h)
	got, hit := ci.intern(h, pages[0].Data)
	clear(decoded)
	if canon, _ := ci.lookup(h); hit || !bytes.Equal(got, content) || !bytes.Equal(canon, content) {
		t.Fatalf("intern after the holder went: hit=%v, canonical copy is the decode buffer", hit)
	}
	ci, decoded = newChunkIndex(), slices.Clone(content)
	pages = []oplog.PageRecord{{Hash: h, Data: decoded}}
	if err := ci.verify(pages); err != nil {
		t.Fatal(err)
	}
	ci.intern(h, pages[0].Data)
	clear(decoded)
	if canon, _ := ci.lookup(h); !bytes.Equal(canon, content) {
		t.Fatal("first sight of a content: canonical copy is the decode buffer")
	}

	page := func(dev uint64, data []byte) *oplog.Segment {
		return &oplog.Segment{DeviceID: dev, Pages: []oplog.PageRecord{{LPN: 5, WriteSeq: 1, StaleSeq: 2, Hash: h, Data: data}}}
	}
	for round := 0; round < 200; round++ {
		st := NewStore(NewMemStore())
		if err := appendDecoded(st, page(1, content)); err != nil {
			t.Fatal(err)
		}
		start := make(chan struct{})
		dropped := make(chan error)
		go func() {
			<-start
			dropped <- st.DropSegmentPages(1, 0)
		}()
		buf := slices.Clone(content)
		close(start)
		err := appendDecoded(st, page(2, buf))
		clear(buf)
		if dropErr := <-dropped; err != nil || dropErr != nil {
			t.Fatalf("round %d: append %v, drop %v", round, err, dropErr)
		}
		v, ok := st.Version(2, 5, ^uint64(0))
		if ds := st.Dedup(); !ok || !bytes.Equal(v.Data, content) || ds.UniquePages != 1 || ds.TotalRefs != 1 {
			t.Fatalf("round %d: device 2 holds its page %v with the right bytes %v; index %+v", round, ok, ok && bytes.Equal(v.Data, content), ds)
		}
	}
}

// TestFetchSegmentOwnsItsPages: a segment FetchSegment returns keeps its
// pages after the pool class its marshal was decoded in has been rented and
// overwritten — deflated and stored blobs alike.
func TestFetchSegmentOwnsItsPages(t *testing.T) {
	st := NewStore(NewMemStore())
	deflated := buildDedupSegments(1, 1, 8, dedupContent(8))[0]
	stored := &oplog.Segment{DeviceID: 2}
	for i := range 8 {
		data := incompressiblePage(4096, uint64(50+i))
		stored.Pages = append(stored.Pages, oplog.PageRecord{LPN: uint64(i), Hash: oplog.HashData(data), Data: data})
	}
	for _, tc := range []struct {
		seg   *oplog.Segment
		codec nvmeoe.Codec
	}{{deflated, nvmeoe.CodecDeflate}, {stored, nvmeoe.CodecStored}} {
		seg := tc.seg
		want := slices.Clone(seg.Pages)
		if err := appendDecoded(st, seg); err != nil {
			t.Fatal(err)
		}
		keys, err := st.blobs.List(fmt.Sprintf("dev/%d/seg/", seg.DeviceID))
		if err != nil || len(keys) != 1 {
			t.Fatalf("device %d: segment keys %q, err=%v, want one", seg.DeviceID, keys, err)
		}
		if blob, err := st.blobs.Get(keys[0]); err != nil || nvmeoe.Codec(blob[4]) != tc.codec {
			t.Fatalf("device %d: blob err=%v, want codec %v", seg.DeviceID, err, tc.codec)
		}
		got, err := st.FetchSegment(seg.DeviceID, 0)
		if err != nil {
			t.Fatal(err)
		}
		size := got.MarshaledSize()
		for round := 0; round < 4; round++ {
			var rented []*bufpool.Buf
			for range 4 {
				buf := bufpool.Get(size)
				buf.B = buf.B[:cap(buf.B)]
				for i := range buf.B {
					buf.B[i] = 0xa5
				}
				rented = append(rented, buf)
			}
			for _, buf := range rented {
				buf.Release()
			}
		}
		if len(got.Pages) != len(want) {
			t.Fatalf("device %d: fetched %d pages, stored %d", seg.DeviceID, len(got.Pages), len(want))
		}
		for i, p := range got.Pages {
			if !bytes.Equal(p.Data, want[i].Data) || oplog.HashData(p.Data) != p.Hash {
				t.Fatalf("device %d page %d: bytes changed after its decode buffer's pool class was reused", seg.DeviceID, i)
			}
		}
	}
}
