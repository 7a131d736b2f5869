package remote

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/nvmeoe"
	"repro/internal/oplog"
	"repro/internal/simclock"
)

var psk = []byte("test-psk-for-remote-store-32-byt")

func TestMemStoreCRUD(t *testing.T) {
	testObjectStore(t, NewMemStore())
}

func TestDirStoreCRUD(t *testing.T) {
	ds, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	testObjectStore(t, ds)
}

func testObjectStore(t *testing.T, os ObjectStore) {
	t.Helper()
	if err := os.Put("dev/1/seg/a", []byte("alpha")); err != nil {
		t.Fatal(err)
	}
	if err := os.Put("dev/1/seg/b", []byte("beta")); err != nil {
		t.Fatal(err)
	}
	if err := os.Put("dev/2/seg/a", []byte("gamma")); err != nil {
		t.Fatal(err)
	}
	got, err := os.Get("dev/1/seg/a")
	if err != nil || !bytes.Equal(got, []byte("alpha")) {
		t.Fatalf("Get = %q, %v", got, err)
	}
	if _, err := os.Get("missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing key err = %v", err)
	}
	keys, err := os.List("dev/1/")
	if err != nil || len(keys) != 2 || keys[0] != "dev/1/seg/a" {
		t.Fatalf("List = %v, %v", keys, err)
	}
	if err := os.Delete("dev/1/seg/a"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Get("dev/1/seg/a"); !errors.Is(err, ErrNotFound) {
		t.Fatal("deleted key still readable")
	}
	if err := os.Delete("never-existed"); err != nil {
		t.Fatalf("deleting missing key: %v", err)
	}
	// Overwrite.
	os.Put("dev/2/seg/a", []byte("gamma2"))
	got, _ = os.Get("dev/2/seg/a")
	if !bytes.Equal(got, []byte("gamma2")) {
		t.Fatal("overwrite failed")
	}
}

// buildSegments creates n chained segments of k write entries each, with a
// retained page per entry.
func buildSegments(deviceID uint64, n, k int) []*oplog.Segment {
	l := oplog.New()
	var segs []*oplog.Segment
	for s := 0; s < n; s++ {
		seg := &oplog.Segment{DeviceID: deviceID, FirstSeq: l.NextSeq()}
		for i := 0; i < k; i++ {
			data := []byte(fmt.Sprintf("v%d", l.NextSeq()))
			lpn := uint64(s*k+i) % 8
			e := l.Append(oplog.KindWrite, simclock.Time(s*k+i), lpn, 0, uint64(s*k+i), 1, oplog.HashData(data))
			seg.Entries = append(seg.Entries, e)
			seg.Pages = append(seg.Pages, oplog.PageRecord{
				LPN: lpn, WriteSeq: e.Seq, StaleSeq: e.Seq + 8,
				Hash: oplog.HashData(data), Data: data,
			})
		}
		seg.LastSeq = l.NextSeq()
		segs = append(segs, seg)
	}
	return segs
}

func TestAppendSegmentAndQuery(t *testing.T) {
	st := NewStore(NewMemStore())
	for _, seg := range buildSegments(1, 3, 10) {
		if err := appendDecoded(st, seg); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(st.Entries(1, 0, 100)); got != 30 {
		t.Fatalf("entries = %d, want 30", got)
	}
	if got := len(st.Entries(1, 5, 8)); got != 3 {
		t.Fatalf("range entries = %d, want 3", got)
	}
	// Versions: LPN 2 was written at seqs 2, 10, 18, 26.
	rec, ok := st.Version(1, 2, 11)
	if !ok || rec.WriteSeq != 10 {
		t.Fatalf("Version(2, before 11) = %+v, %v", rec, ok)
	}
	rec, ok = st.Version(1, 2, 3)
	if !ok || rec.WriteSeq != 2 {
		t.Fatalf("Version(2, before 3) = %+v, %v", rec, ok)
	}
	if _, ok := st.Version(1, 2, 2); ok {
		t.Fatal("version before first write should not exist")
	}
	if _, ok := st.Version(1, 999, 100); ok {
		t.Fatal("unknown lpn returned a version")
	}
	if img, _, more := st.ImageRange(1, 0, ^uint64(0), 12, 100, nil); len(img) != 8 || more {
		t.Fatalf("image size = %d (more=%v), want 8", len(img), more)
	}
	h := st.Head(1)
	if h.NextSeq != 30 {
		t.Fatalf("head seq = %d", h.NextSeq)
	}
	stats := st.DeviceStats(1)
	if stats.Segments != 3 || stats.Entries != 30 || stats.Versions != 30 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestAppendSegmentRejectsGap(t *testing.T) {
	st := NewStore(NewMemStore())
	segs := buildSegments(1, 3, 5)
	if err := appendDecoded(st, segs[0]); err != nil {
		t.Fatal(err)
	}
	if err := appendDecoded(st, segs[2]); err == nil {
		t.Fatal("segment with sequence gap accepted")
	}
}

func TestAppendSegmentRejectsTamperedChain(t *testing.T) {
	st := NewStore(NewMemStore())
	segs := buildSegments(1, 2, 5)
	appendDecoded(st, segs[0])
	segs[1].Entries[2].LPN = 9999 // tamper, breaking the hash
	if err := appendDecoded(st, segs[1]); err == nil {
		t.Fatal("tampered segment accepted")
	}
}

func TestAppendSegmentRejectsCorruptPages(t *testing.T) {
	st := NewStore(NewMemStore())
	segs := buildSegments(1, 1, 5)
	segs[0].Pages[0].Data = []byte("not-what-was-hashed")
	if err := appendDecoded(st, segs[0]); err == nil {
		t.Fatal("corrupt page data accepted")
	}
}

func TestOnSegmentHook(t *testing.T) {
	st := NewStore(NewMemStore())
	var calls int
	st.OnSegment = func(dev uint64, seg *oplog.Segment) {
		calls++
		if dev != 1 {
			t.Errorf("hook device = %d", dev)
		}
	}
	for _, seg := range buildSegments(1, 2, 3) {
		appendDecoded(st, seg)
	}
	if calls != 2 {
		t.Fatalf("hook calls = %d", calls)
	}
}

func TestCheckpoints(t *testing.T) {
	st := NewStore(NewMemStore())
	st.AppendCheckpoint(1, nvmeoe.Checkpoint{Seq: 10, WriteSeqs: []uint64{1, 2}})
	st.AppendCheckpoint(1, nvmeoe.Checkpoint{Seq: 20, WriteSeqs: []uint64{3, 4}})
	cp, ok := st.Checkpoint(1, 15)
	if !ok || cp.Seq != 10 {
		t.Fatalf("Checkpoint(15) = %+v, %v", cp, ok)
	}
	cp, ok = st.Checkpoint(1, 20)
	if !ok || cp.Seq != 20 {
		t.Fatalf("Checkpoint(20) = %+v, %v", cp, ok)
	}
	if _, ok := st.Checkpoint(1, 5); ok {
		t.Fatal("checkpoint before first accepted")
	}
	// A sequence issued again after a power cut: the later table replaces the
	// earlier one, out of order too, in the index as in the object tier.
	st.AppendCheckpoint(1, nvmeoe.Checkpoint{Seq: 10, WriteSeqs: []uint64{5, 6}})
	for _, s := range []*Store{st, reloaded(t, st)} {
		cp, ok = s.Checkpoint(1, 19)
		if !ok || cp.Seq != 10 || cp.WriteSeqs[0] != 5 || s.DeviceStats(1).Checkpoints != 2 {
			t.Fatalf("Checkpoint(19) = %+v, %v of %d after a second push at 10", cp, ok, s.DeviceStats(1).Checkpoints)
		}
	}
}

// reloaded returns a second index rebuilt from st's object tier.
func reloaded(t *testing.T, st *Store) *Store {
	t.Helper()
	st2 := NewStore(st.blobs)
	if err := st2.Reload(); err != nil {
		t.Fatal(err)
	}
	return st2
}

func TestReloadRebuildsIndexes(t *testing.T) {
	blobs := NewMemStore()
	st := NewStore(blobs)
	for _, seg := range buildSegments(7, 3, 10) {
		if err := appendDecoded(st, seg); err != nil {
			t.Fatal(err)
		}
	}
	st.AppendCheckpoint(7, nvmeoe.Checkpoint{Seq: 5, WriteSeqs: []uint64{9}})

	st2 := NewStore(blobs)
	if err := st2.Reload(); err != nil {
		t.Fatal(err)
	}
	if got, want := st2.Head(7), st.Head(7); got != want {
		t.Fatalf("reloaded head %+v != %+v", got, want)
	}
	if got := len(st2.Entries(7, 0, 1000)); got != 30 {
		t.Fatalf("reloaded entries = %d", got)
	}
	cp, ok := st2.Checkpoint(7, 100)
	if !ok || cp.Seq != 5 {
		t.Fatalf("reloaded checkpoint = %+v %v", cp, ok)
	}
	rec, ok := st2.Version(7, 3, 100)
	if !ok || rec.LPN != 3 {
		t.Fatalf("reloaded version = %+v %v", rec, ok)
	}
}

func TestReloadDetectsTamperedBlob(t *testing.T) {
	blobs := NewMemStore()
	st := NewStore(blobs)
	for _, seg := range buildSegments(7, 2, 5) {
		appendDecoded(st, seg)
	}
	keys, _ := blobs.List("dev/")
	blob, _ := blobs.Get(keys[0])
	blob[len(blob)-1] ^= 0xFF
	blobs.Put(keys[0], blob)
	if err := NewStore(blobs).Reload(); err == nil {
		t.Fatal("tampered blob store reloaded cleanly")
	}
}

func TestClientServerEndToEnd(t *testing.T) {
	st := NewStore(NewMemStore())
	srv := NewServer(st, psk)
	cl, err := Loopback(srv, psk, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	for _, seg := range buildSegments(5, 3, 10) {
		if _, err := cl.PushSegmentBlob(nvmeoe.EncodeSegmentBlob(seg.Marshal()), seg.LastSeq); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.PushCheckpoint(&nvmeoe.Checkpoint{Seq: 12, WriteSeqs: []uint64{7, 8, 9}}); err != nil {
		t.Fatal(err)
	}

	entries, err := cl.FetchEntries(5, 15)
	if err != nil || len(entries) != 10 || entries[0].Seq != 5 {
		t.Fatalf("FetchEntries = %d entries, %v", len(entries), err)
	}
	// One page is a one-LPN image stream.
	version := func(lpn, before uint64) (recs []oplog.PageRecord) {
		t.Helper()
		_, err := cl.FetchImageStream(lpn, lpn+1, before, 0, 1, nil, func(ps []oplog.PageRecord, _ ChunkStats) error {
			recs = append(recs, ps...)
			return nil
		})
		if err != nil {
			t.Fatalf("version of lpn %d before %d: %v", lpn, before, err)
		}
		return recs
	}
	if recs := version(2, 11); len(recs) != 1 || recs[0].LPN != 2 || recs[0].WriteSeq != 10 {
		t.Fatalf("version of lpn 2 before 11 = %+v", recs)
	}
	if recs := version(2, 1); len(recs) != 0 {
		t.Fatalf("version before the first write = %+v", recs)
	}
	end, err := cl.FetchImageStream(0, 8, 30, 0, 0, nil, func([]oplog.PageRecord, ChunkStats) error { return nil })
	if err != nil || end.Pages != 8 {
		t.Fatalf("FetchImageStream = %+v, %v", end, err)
	}
	if end, err = cl.FetchImageStream(2, 5, 30, 0, 0, nil, func([]oplog.PageRecord, ChunkStats) error { return nil }); err != nil || end.Pages != 3 || end.NextLPN != 5 {
		t.Fatalf("FetchImageStream [2, 5) = %+v, %v", end, err)
	}
	cp, ok, err := cl.FetchCheckpoint(100)
	if err != nil || !ok || cp.Seq != 12 {
		t.Fatalf("FetchCheckpoint = %+v %v %v", cp, ok, err)
	}
	_, ok, err = cl.FetchCheckpoint(3)
	if err != nil || ok {
		t.Fatalf("FetchCheckpoint(3): ok=%v err=%v", ok, err)
	}
	h, err := cl.Head()
	if err != nil || h.NextSeq != 30 {
		t.Fatalf("Head = %+v %v", h, err)
	}
}

func TestServerRejectsCrossDeviceSegment(t *testing.T) {
	st := NewStore(NewMemStore())
	srv := NewServer(st, psk)
	cl, err := Loopback(srv, psk, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	seg := buildSegments(6, 1, 3)[0] // device 6 segment on device 5 session
	_, err = cl.PushSegmentBlob(nvmeoe.EncodeSegmentBlob(seg.Marshal()), seg.LastSeq)
	var re *RemoteError
	if !errors.As(err, &re) || re.Code != CodeBadData {
		t.Fatalf("cross-device push err = %v", err)
	}
}

func TestServerRejectsChainViolationFromClient(t *testing.T) {
	st := NewStore(NewMemStore())
	srv := NewServer(st, psk)
	cl, err := Loopback(srv, psk, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	segs := buildSegments(5, 3, 4)
	if _, err := cl.PushSegmentBlob(nvmeoe.EncodeSegmentBlob(segs[0].Marshal()), segs[0].LastSeq); err != nil {
		t.Fatal(err)
	}
	var re *RemoteError
	if _, err := cl.PushSegmentBlob(nvmeoe.EncodeSegmentBlob(segs[2].Marshal()), segs[2].LastSeq); !errors.As(err, &re) {
		t.Fatalf("gap push err = %v", err)
	}
}

// TestMultiDeviceIsolation: one server serves a fleet; each device's
// chain, versions, and checkpoints are independent.
func TestMultiDeviceIsolation(t *testing.T) {
	st := NewStore(NewMemStore())
	perDevice := map[uint64][]byte{
		11: []byte("psk-for-device-11-0123456789abcd"),
		22: []byte("psk-for-device-22-0123456789abcd"),
		33: []byte("psk-for-device-33-0123456789abcd"),
	}
	srv := &Server{
		Store: st,
		LookupPSK: func(id uint64) ([]byte, bool) {
			k, ok := perDevice[id]
			return k, ok
		},
	}
	clients := map[uint64]*Client{}
	for id := range perDevice {
		cl, err := Loopback(srv, perDevice[id], id)
		if err != nil {
			t.Fatalf("device %d: %v", id, err)
		}
		defer cl.Close()
		clients[id] = cl
	}
	// Interleave pushes from all three devices.
	segs := map[uint64][]*oplog.Segment{}
	for id := range clients {
		segs[id] = buildSegments(id, 3, 4)
	}
	for i := 0; i < 3; i++ {
		for id, cl := range clients {
			if _, err := cl.PushSegmentBlob(nvmeoe.EncodeSegmentBlob(segs[id][i].Marshal()), segs[id][i].LastSeq); err != nil {
				t.Fatalf("device %d segment %d: %v", id, i, err)
			}
		}
	}
	for id, cl := range clients {
		h, err := cl.Head()
		if err != nil || h.NextSeq != 12 {
			t.Fatalf("device %d head = %+v, %v", id, h, err)
		}
		entries, err := cl.FetchEntries(0, 100)
		if err != nil || len(entries) != 12 {
			t.Fatalf("device %d entries = %d, %v", id, len(entries), err)
		}
		if err := oplog.VerifyChain(entries, [32]byte{}); err != nil {
			t.Fatalf("device %d chain: %v", id, err)
		}
		_ = id
	}
	// A device with the wrong PSK for its claimed identity is rejected.
	if _, err := Loopback(srv, perDevice[11], 22); err == nil {
		t.Fatal("device 22 authenticated with device 11's key")
	}
}

// Property: Version always returns the newest record strictly before the
// query point, for arbitrary interleavings of writes to a few LPNs.
func TestVersionQueryProperty(t *testing.T) {
	f := func(writes []uint8, queryLPN uint8, before uint16) bool {
		if len(writes) == 0 {
			return true
		}
		st := NewStore(NewMemStore())
		l := oplog.New()
		seg := &oplog.Segment{DeviceID: 1}
		type w struct{ lpn, seq uint64 }
		var history []w
		for _, b := range writes {
			lpn := uint64(b % 4)
			data := []byte{b}
			e := l.Append(oplog.KindWrite, 0, lpn, 0, 0, 0, oplog.HashData(data))
			seg.Entries = append(seg.Entries, e)
			seg.Pages = append(seg.Pages, oplog.PageRecord{
				LPN: lpn, WriteSeq: e.Seq, StaleSeq: e.Seq + 1,
				Hash: oplog.HashData(data), Data: data,
			})
			history = append(history, w{lpn, e.Seq})
		}
		seg.LastSeq = l.NextSeq()
		if err := appendDecoded(st, seg); err != nil {
			return false
		}
		lpn := uint64(queryLPN % 4)
		bef := uint64(before) % (uint64(len(writes)) + 2)
		var want *w
		for i := range history {
			if history[i].lpn == lpn && history[i].seq < bef {
				want = &history[i]
			}
		}
		rec, ok := st.Version(1, lpn, bef)
		if want == nil {
			return !ok
		}
		return ok && rec.WriteSeq == want.seq
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentMultiDeviceIngest drives a fleet of clients over net.Pipe
// sessions into one server at once — the sharded-ingest contract. Each
// device's chain must stay contiguous and isolated from its neighbours, a
// streaming subscriber must see every device's segments in ingest order,
// and (under -race) the whole path must be data-race free.
func TestConcurrentMultiDeviceIngest(t *testing.T) {
	const devices = 6
	const segsPerDevice = 12

	st := NewStore(NewMemStore())
	srv := NewServer(st, psk)

	// Streaming subscriber: record, per device, the first sequence of each
	// delivered segment so ordering can be checked afterwards.
	var subMu sync.Mutex
	delivered := map[uint64][]uint64{}
	st.Subscribe(func(deviceID uint64, seg *oplog.Segment) {
		subMu.Lock()
		delivered[deviceID] = append(delivered[deviceID], seg.FirstSeq)
		subMu.Unlock()
	})

	errc := make(chan error, devices)
	var wg sync.WaitGroup
	for d := 0; d < devices; d++ {
		deviceID := uint64(100 + d)
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl, err := Loopback(srv, psk, deviceID)
			if err != nil {
				errc <- err
				return
			}
			defer cl.Close()
			for _, seg := range buildSegments(deviceID, segsPerDevice, 8) {
				if _, err := cl.PushSegmentBlob(nvmeoe.EncodeSegmentBlob(seg.Marshal()), seg.LastSeq); err != nil {
					errc <- fmt.Errorf("device %d: %w", deviceID, err)
					return
				}
			}
			if err := cl.PushCheckpoint(&nvmeoe.Checkpoint{Seq: 3, WriteSeqs: []uint64{deviceID}}); err != nil {
				errc <- fmt.Errorf("device %d checkpoint: %w", deviceID, err)
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	want := uint64(segsPerDevice * 8)
	for d := 0; d < devices; d++ {
		deviceID := uint64(100 + d)
		// Chain continuity: the head advanced over every entry.
		if h := st.Head(deviceID); h.NextSeq != want {
			t.Fatalf("device %d head %d, want %d", deviceID, h.NextSeq, want)
		}
		// Cross-device isolation: exactly this device's segments, entries,
		// version records, and checkpoint landed in its shard — a leak from
		// a concurrent neighbour would inflate these.
		ds := st.DeviceStats(deviceID)
		if ds.Segments != segsPerDevice || ds.Entries != int(want) ||
			ds.Versions != int(want) || ds.Checkpoints != 1 {
			t.Fatalf("device %d stats %+v", deviceID, ds)
		}
		// A full-chain verification from the genesis hash must hold.
		if err := oplog.VerifyChain(st.Entries(deviceID, 0, want), [oplog.HashSize]byte{}); err != nil {
			t.Fatalf("device %d chain: %v", deviceID, err)
		}
		// Streaming order: subscriber saw segments in ingest order.
		subMu.Lock()
		seqs := delivered[deviceID]
		subMu.Unlock()
		if len(seqs) != segsPerDevice {
			t.Fatalf("device %d: subscriber saw %d segments, want %d", deviceID, len(seqs), segsPerDevice)
		}
		for i := 1; i < len(seqs); i++ {
			if seqs[i] <= seqs[i-1] {
				t.Fatalf("device %d: out-of-order delivery %v", deviceID, seqs)
			}
		}
	}
	if got := srv.SessionsTotal(); got != devices {
		t.Fatalf("sessions total %d, want %d", got, devices)
	}
}
