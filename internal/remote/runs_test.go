package remote

import (
	"bytes"
	"maps"
	"net"
	"runtime/debug"
	"slices"
	"testing"

	"repro/internal/bufpool"
	"repro/internal/nvmeoe"
	"repro/internal/oplog"
	"repro/internal/simclock"
)

// runsHistory is one device's chain delivered as segments of 1, 7, 512 and
// 4096 entries of every kind, with a pages-only segment after each: the store
// keeps four runs. all is the chain as one flat slice, the reference.
func runsHistory(deviceID uint64) (segs []*oplog.Segment, all []oplog.Entry) {
	l := oplog.New()
	for _, n := range []int{1, 7, 512, 4096} {
		seg := &oplog.Segment{DeviceID: deviceID, FirstSeq: l.NextSeq()}
		for i := 0; i < n; i++ {
			seq := l.NextSeq()
			kind := oplog.Kind(1 + seq%uint64(oplog.KindRead))
			seg.Entries = append(seg.Entries, l.Append(kind, simclock.Time(seq), seq*7%300, 0, seq, 1, oplog.HashData([]byte{byte(seq), byte(seq >> 8)})))
		}
		seg.LastSeq = l.NextSeq()
		all = append(all, seg.Entries...)
		data := []byte{byte(n), 1, 2, 3}
		pagesOnly := &oplog.Segment{DeviceID: deviceID, FirstSeq: seg.LastSeq, LastSeq: seg.LastSeq, Pages: []oplog.PageRecord{
			{LPN: uint64(n), WriteSeq: seg.FirstSeq, StaleSeq: seg.LastSeq, Hash: oplog.HashData(data), Data: data},
		}}
		segs = append(segs, seg, pagesOnly)
	}
	return segs, all
}

// appendDecoded ingests seg as the server's lane does: decoded from its
// marshal, the derived entries handed to the store.
func appendDecoded(st *Store, seg *oplog.Segment) error {
	raw := seg.Marshal()
	decoded, err := oplog.UnmarshalSegment(raw)
	if err != nil {
		return err
	}
	return st.AppendSegmentBlob(decoded, nvmeoe.EncodeSegmentBlob(raw))
}

// touchedIn is TouchedSince computed from the flat reference.
func touchedIn(all []oplog.Entry, since uint64) map[uint64]struct{} {
	touched := map[uint64]struct{}{}
	for _, e := range all[min(since, uint64(len(all))):] {
		switch e.Kind {
		case oplog.KindWrite, oplog.KindTrim, oplog.KindRecovery, oplog.KindRecoveryTrim:
			touched[e.LPN] = struct{}{}
		}
	}
	return touched
}

// TestStoreRunsMatchFlatLog: a chain kept as one run per segment answers
// Entries, TouchedSince, DeviceStats and the fetch reply's marshal exactly as
// the flat log it replaced, for every range whose ends sit at, beside or past
// a run boundary — live, and after Reload rebuilds the runs from the tier.
func TestStoreRunsMatchFlatLog(t *testing.T) {
	const dev = 3
	segs, all := runsHistory(dev)
	st := NewStore(NewMemStore())
	for _, seg := range segs {
		if err := appendDecoded(st, seg); err != nil {
			t.Fatal(err)
		}
	}
	n := uint64(len(all))
	points := []uint64{0, 1, n - 1, n, n + 5}
	for _, b := range []uint64{1, 8, 520} {
		points = append(points, b-1, b, b+1)
	}
	for _, s := range []*Store{st, reloaded(t, st)} {
		if got := s.DeviceStats(dev).Entries; got != len(all) {
			t.Fatalf("DeviceStats().Entries = %d, want %d", got, len(all))
		}
		for _, from := range points {
			for _, to := range points {
				want := all[min(from, n):min(max(from, to), n)]
				if got := s.Entries(dev, from, to); !slices.Equal(got, want) {
					t.Fatalf("Entries(%d, %d): %d entries, want %d", from, to, len(got), len(want))
				}
				seg := oplog.Segment{DeviceID: dev}
				runs := s.appendRuns(nil, dev, from, to)
				wire := (&oplog.Segment{DeviceID: dev, Entries: want}).Marshal()
				if got := seg.AppendMarshalRuns(nil, runs...); !bytes.Equal(got, wire) {
					t.Fatalf("reply for [%d, %d) from %d runs differs from the flat marshal", from, to, len(runs))
				}
			}
			if from > 0 && !maps.Equal(s.TouchedSince(dev, from), touchedIn(all, from)) {
				t.Fatalf("TouchedSince(%d) differs from the flat reference", from)
			}
		}
	}
}

// TestStoreRunsReadDuringIngest: readers take views of the runs and walk
// them after the device lock is gone while another goroutine adopts segments
// (run with -race). Every prefix the head announces is a chain from genesis.
func TestStoreRunsReadDuringIngest(t *testing.T) {
	const dev = 4
	segs, _ := runsHistory(dev)
	st := NewStore(NewMemStore())
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, seg := range segs {
			if err := appendDecoded(st, seg); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for reading := true; reading; {
		select {
		case <-done:
			reading = false
		default:
		}
		head := st.Head(dev)
		if err := oplog.VerifyChain(st.Entries(dev, 0, head.NextSeq), [oplog.HashSize]byte{}); err != nil {
			t.Fatal(err)
		}
		st.TouchedSince(dev, 1)
	}
}

// TestAppendSegmentKeepsItsOwnEntries: a hand-built segment changed after
// AppendSegment accepted it leaves the stored chain as it was accepted.
func TestAppendSegmentKeepsItsOwnEntries(t *testing.T) {
	st := NewStore(NewMemStore())
	seg := buildSegments(1, 1, 10)[0]
	want := slices.Clone(seg.Entries)
	if err := st.AppendSegment(seg); err != nil {
		t.Fatal(err)
	}
	for i := range seg.Entries {
		seg.Entries[i].LPN ^= 0xff
		seg.Entries[i].Hash[0] ^= 1
	}
	if got := st.Entries(1, 0, 10); !slices.Equal(got, want) {
		t.Fatal("stored chain follows the caller's segment")
	}
	if err := oplog.VerifyChain(st.Entries(1, 0, 10), [oplog.HashSize]byte{}); err != nil {
		t.Fatal(err)
	}
}

// TestFetchEntriesSteadyStateAllocs: a warmed AppendEntries into a slice with
// room allocates the same for 512 entries, one frame, as for 4096, four frames
// derived on workers: the request payload ReadMsg returns at the server, and
// nothing per frame. The server builds each frame in a pool buffer it gives
// back, and the client reads each into a pool buffer it gives back once the
// frame is derived. Each frame is the stored marshal of its entries, so the
// client reads exactly those around the frame's BlobOverhead, and then an
// empty MsgFetchEnd: a deflated frame is a different size.
func TestFetchEntriesSteadyStateAllocs(t *testing.T) {
	if bufpool.RaceEnabled {
		t.Skip("race instrumentation allocates; alloc assertions run in the non-race job")
	}
	const n = 4096
	st := NewStore(NewMemStore())
	if err := st.AppendSegment(entriesOnly(oplog.New(), 1, n)); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(st, psk)
	defer srv.Close()
	dc, sc := net.Pipe()
	go srv.HandleConn(sc)
	wire := &countingConn{Conn: dc}
	cl, err := Dial(wire, psk, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	dst := make([]oplog.Entry, 0, n)
	fetch := func(count uint64) {
		var err error
		if dst, err = cl.AppendEntries(dst[:0], 0, count); err != nil || len(dst) != int(count) {
			t.Fatalf("%d entries, err=%v", len(dst), err)
		}
	}
	// The connection goroutine answers in order: once a head is back, the
	// entries reply before it has released its buffers.
	settled := func() bufpool.Gauge {
		if _, err := cl.Head(); err != nil {
			t.Fatal(err)
		}
		return bufpool.Outstanding()
	}
	// Each fetch reads a payload of up to 200 KB, so collections would run
	// mid-measurement and empty the pool: a refill is the collector's
	// allocation, not the fetch path's.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const frameOverhead = 20 + 16 // an nvmeoe frame's header and GCM tag
	before := wire.read.Load()
	// The first fetch also warms the pool classes, the workers and the
	// session's scratch. The stream ends with an empty MsgFetchEnd.
	fetch(n)
	want := int64(frameOverhead)
	for from := 0; from < n; from += FrameEntries {
		frame := (&oplog.Segment{DeviceID: 1, Entries: dst[from : from+FrameEntries]}).MarshaledSize()
		want += int64(frameOverhead + nvmeoe.BlobOverhead + frame)
	}
	if got := wire.read.Load() - before; got != want || want != 316_072 {
		t.Errorf("a %d-entry stream is %d wire bytes, want %d: four stored frames and the end", n, got, want)
	}
	base := settled()
	few := testing.AllocsPerRun(20, func() { fetch(512) })
	many := testing.AllocsPerRun(20, func() { fetch(n) })
	if few != many || many > 1 {
		t.Errorf("AppendEntries: %v allocs for 512 entries, %v for %d, want the same and at most 1", few, many, n)
	}
	if !slices.Equal(dst, st.Entries(1, 0, n)) {
		t.Fatal("fetched entries differ from the store's")
	}
	if d := settled().Sub(base); d.Total() != 0 {
		t.Fatalf("entries replies left %+v pool buffers outstanding", d)
	}
}
