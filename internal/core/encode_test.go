package core

import (
	"bytes"
	"testing"

	"repro/internal/bufpool"
	"repro/internal/oplog"
	"repro/internal/remote"
	"repro/internal/simclock"
)

// TestOffloadShipsWhatWasWritten: where compression runs never changes
// what ships. After OffloadNow the server holds exactly the chain the test
// derives from its own inputs — one KindWrite per page written, in
// contiguous sequence, each naming the written LPN and binding the written
// bytes' hash — across a churn that seals many segments on the codec lanes.
func TestOffloadShipsWhatWasWritten(t *testing.T) {
	const lpns, rounds = 16, 8
	e := newEnv(t, testConfig())
	done := churn(t, e.r, lpns, rounds, 0)
	if _, err := e.r.OffloadNow(done); err != nil {
		t.Fatal(err)
	}
	e.r.Close()
	if segs := e.r.Stats().OffloadSegments; segs < 2 {
		t.Fatalf("%d segments shipped, want a multi-segment run", segs)
	}
	head := e.store.Head(1)
	if head.NextSeq != lpns*rounds {
		t.Fatalf("server chain ends at %d, want %d", head.NextSeq, lpns*rounds)
	}
	got := e.store.Entries(1, 0, head.NextSeq)
	if len(got) != lpns*rounds {
		t.Fatalf("server returned %d entries, want %d", len(got), lpns*rounds)
	}
	for i, en := range got {
		round, lpn := i/lpns, uint64(i%lpns)
		want := oplog.HashData(fill(byte(round+1), 512))
		if en.Seq != uint64(i) || en.Kind != oplog.KindWrite || en.LPN != lpn || en.DataHash != want {
			t.Fatalf("entry %d = {Seq %d Kind %v LPN %d}, want {Seq %d Kind %v LPN %d} with the written page's hash",
				i, en.Seq, en.Kind, en.LPN, i, oplog.KindWrite, lpn)
		}
	}
}

// TestEncodeStageAccounted: the simulated-time model must charge the
// encode stage (EncodeTime) and observe its occupancy (EncodeQueuePeak).
func TestEncodeStageAccounted(t *testing.T) {
	e := newEnv(t, testConfig())
	done := churn(t, e.r, 6, 4, 0)
	e.r.settle(done)
	defer e.r.Close()
	st := e.r.Stats()
	if st.OffloadSegments == 0 {
		t.Fatal("no segments shipped")
	}
	if st.EncodeTime == 0 {
		t.Fatal("encode stage charged zero simulated time")
	}
	if st.EncodeQueuePeak == 0 {
		t.Fatal("encode stage occupancy never observed")
	}
	if st.OffloadAckTime < st.EncodeTime {
		// Every segment's ack waits out its own encode, so the cumulative
		// ack span dominates the cumulative encode span.
		t.Fatalf("ack time %v < encode time %v: encode not in the ack path", st.OffloadAckTime, st.EncodeTime)
	}
}

// TestTierServiceTimeInAck: a device offloading to an s3sim-backed server
// must see the tier's modeled Put latency inside its ack times — the
// device-side ack path reflects the backend, not just the wire.
func TestTierServiceTimeInAck(t *testing.T) {
	s3 := remote.NewS3Sim(remote.DefaultS3Config())
	store := remote.NewStore(s3)
	srv := remote.NewServer(store, testPSK)
	client, err := remote.Loopback(srv, testPSK, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	r := New(testConfig(), client)
	done := churn(t, r, 6, 4, 0)
	done = r.settle(done)
	defer r.Close()

	st := r.Stats()
	if st.OffloadSegments == 0 {
		t.Fatal("no segments shipped")
	}
	if st.OffloadTierTime == 0 {
		t.Fatal("s3sim-backed offload recorded zero tier service time")
	}
	// The tier's 18ms first-byte floor dwarfs the µs-scale link model; the
	// mean ack must be at least the per-segment tier floor.
	meanAck := st.OffloadAckTime / simclock.Duration(st.OffloadSegments)
	if meanAck < 18*simclock.Millisecond {
		t.Fatalf("mean ack %v does not reflect the tier's 18ms Put floor", meanAck)
	}

	// A mem-backed device acks with zero tier time, and must stay faster.
	local := newEnv(t, testConfig())
	ldone := churn(t, local.r, 6, 4, 0)
	local.r.settle(ldone)
	defer local.r.Close()
	ls := local.r.Stats()
	if ls.OffloadTierTime != 0 {
		t.Fatalf("mem tier reported service time %v", ls.OffloadTierTime)
	}
	if lm := ls.OffloadAckTime / simclock.Duration(ls.OffloadSegments); lm >= meanAck {
		t.Fatalf("local mean ack %v not below cloud mean ack %v", lm, meanAck)
	}
}

// TestEncodeStagedSteadyStateAllocs is the engine half of the
// zero-allocation contract: encoding a sealed segment — marshal, codec
// frame, page-buffer release — allocates nothing once the pools are warm.
func TestEncodeStagedSteadyStateAllocs(t *testing.T) {
	if bufpool.RaceEnabled {
		t.Skip("race instrumentation allocates; alloc assertions run in the non-race job")
	}
	data := bytes.Repeat([]byte("retained page payload "), 100)
	const nPages = 4
	seg := &oplog.Segment{DeviceID: 1, FirstSeq: 0, LastSeq: 0,
		Pages: make([]oplog.PageRecord, nPages)}
	st := &stagedSegment{seg: seg}
	var bufs [nPages]*bufpool.Buf
	// reseal refills the staged segment the way buildSegment does — pooled
	// page buffers, fresh views — without allocating anything itself.
	reseal := func() {
		st.pageBufs = bufs[:0]
		for p := 0; p < nPages; p++ {
			pb := bufpool.Get(len(data))
			pb.B = append(pb.B, data...)
			st.pageBufs = append(st.pageBufs, pb)
			seg.Pages[p] = oplog.PageRecord{
				LPN: uint64(p), Hash: oplog.HashData(pb.B), Data: pb.B,
			}
		}
		st.logical = seg.MarshaledSize()
	}
	// Warm the pools once.
	reseal()
	encodeStaged(st)
	st.blobBuf.Release()

	if n := testing.AllocsPerRun(20, func() {
		reseal()
		encodeStaged(st)
		if st.wire == 0 || st.blob == nil {
			t.Fatal("encode produced no blob")
		}
		st.blobBuf.Release()
	}); n != 0 {
		t.Errorf("encode worker loop: %v allocs/op, want 0", n)
	}
}
