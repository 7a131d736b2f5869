package core

import (
	"fmt"
	"testing"

	"repro/internal/netsim"
	"repro/internal/nvmeoe"
	"repro/internal/oplog"
	"repro/internal/remote"
	"repro/internal/simclock"
)

// churn drives rounds of overwrites across lpns so stale versions pile up
// past the offload watermark, returning the final host completion time.
func churn(t *testing.T, r *RSSD, lpns, rounds int, at simclock.Time) simclock.Time {
	t.Helper()
	for round := 0; round < rounds; round++ {
		ops := make([]Op, lpns)
		for i := range ops {
			ops[i] = Op{Kind: OpWrite, LPN: uint64(i), Data: fill(byte(round+1), 512)}
		}
		res, done, err := r.SubmitBatch(ops, at)
		if err != nil {
			t.Fatal(err)
		}
		for i := range res {
			if res[i].Err != nil {
				t.Fatalf("round %d op %d: %v", round, i, res[i].Err)
			}
		}
		at = done
	}
	return at
}

// TestAsyncOffloadOverlapsHostTime: the transfer is off the host path. The
// same churn runs against a shared NIC at 1200 MB/s and one a hundred
// times slower. Host completions must be identical and no write may stall
// on the staging queue, while the slow link's acks arrive strictly later:
// the link's cost lands in OffloadAckTime, never in host time. The largest
// churn also runs GC and Pressure, whose drains must not leak into host
// completions either.
func TestAsyncOffloadOverlapsHostTime(t *testing.T) {
	for _, c := range []struct{ lpns, rounds int }{{6, 4}, {16, 8}, {32, 12}} {
		t.Run(fmt.Sprintf("%dx%d", c.lpns, c.rounds), func(t *testing.T) {
			var host [2]simclock.Time
			var st [2]Stats
			for i, mbps := range []float64{1200, 12} {
				cfg := testConfig()
				cfg.NIC = netsim.New(netsim.Config{MBps: mbps})
				e := newEnv(t, cfg)
				host[i] = churn(t, e.r, c.lpns, c.rounds, 0)
				e.r.settle(host[i])
				st[i] = e.r.Stats()
				e.r.Close()
			}
			fast, slow := st[0], st[1]
			t.Logf("host %v / %v, ack time %v -> %v, %d pressure events",
				host[0], host[1], fast.OffloadAckTime, slow.OffloadAckTime, slow.PressureEvents)
			if fast.OffloadSegments == 0 || slow.OffloadSegments == 0 {
				t.Fatalf("no offload happened: fast %d, slow %d segments", fast.OffloadSegments, slow.OffloadSegments)
			}
			if host[0] != host[1] {
				t.Fatalf("host completion depends on the link: %v at 1200 MB/s, %v at 12 MB/s", host[0], host[1])
			}
			if fast.OffloadStalls != 0 || slow.OffloadStalls != 0 {
				t.Fatalf("host stalled on the staging queue: fast %d, slow %d stalls", fast.OffloadStalls, slow.OffloadStalls)
			}
			if fast.OffloadLatency == 0 {
				t.Fatal("offload charged zero simulated time (transfer unaccounted)")
			}
			if slow.OffloadAckTime <= fast.OffloadAckTime {
				t.Fatalf("slow-link ack time %v not above fast-link %v: the link is not priced", slow.OffloadAckTime, fast.OffloadAckTime)
			}
		})
	}
}

// TestStaleOffloadErrorClearedAfterRetrySuccess is the regression test for
// the sticky LastOffloadError: failures during an outage must surface, and
// the first successful background offload after recovery must clear them —
// host tooling polling Stats() must not see a resolved failure forever.
func TestStaleOffloadErrorClearedAfterRetrySuccess(t *testing.T) {
	cfg := testConfig()
	cfg.DropWhenOffline = false
	store := remote.NewStore(remote.NewMemStore())
	srv := remote.NewServer(store, testPSK)
	broken, err := remote.Loopback(srv, testPSK, cfg.DeviceID)
	if err != nil {
		t.Fatal(err)
	}
	broken.Close() // attached but dead: every push fails
	r := New(cfg, broken)
	defer r.Close()

	at := churn(t, r, 4, 3, 0) // 8 stale versions... keep under watermark
	at = churn(t, r, 4, 1, at) // cross it: staging starts and fails
	at = r.settle(at)
	st := r.Stats()
	if st.OffloadErrors == 0 || st.LastOffloadError == "" {
		t.Fatalf("outage not surfaced: %+v", st)
	}
	if st.OffloadRetries == 0 {
		t.Fatal("failed segments were not requeued for retry")
	}
	if st.OffloadPages != 0 || st.DroppedPages != 0 {
		t.Fatalf("data moved or dropped without a durable ack: %+v", st)
	}

	// Recovery: a healthy session; the next background watermark check
	// retries the requeued backlog and the success clears the error.
	good, err := remote.Loopback(srv, testPSK, cfg.DeviceID)
	if err != nil {
		t.Fatal(err)
	}
	defer good.Close()
	r.attachRemote(good)
	at = churn(t, r, 4, 1, at)
	at = r.settle(at)
	st = r.Stats()
	if st.OffloadSegments == 0 {
		t.Fatal("background retry did not ship the backlog")
	}
	if st.LastOffloadError != "" {
		t.Fatalf("stale error still surfaced after successful retry: %q", st.LastOffloadError)
	}
	_ = at
}

// TestOffloadBackpressureStallsHost: with a staging queue of one, draining
// to the low watermark stages more segments than the queue holds, so the
// host must stall for acks — and those stalls are recorded.
func TestOffloadBackpressureStallsHost(t *testing.T) {
	cfg := testConfig()
	cfg.OffloadQueueDepth = 1
	cfg.SegmentMaxPages = 2
	e := newEnv(t, cfg)
	defer e.r.Close()

	at := churn(t, e.r, 6, 3, 0)
	at = e.r.settle(at)
	st := e.r.Stats()
	if st.OffloadSegments < 2 {
		t.Fatalf("expected a multi-segment drain, got %d", st.OffloadSegments)
	}
	if st.OffloadStalls == 0 || st.OffloadStallTime == 0 {
		t.Fatalf("queue-full backpressure did not stall the host: %+v", st)
	}
	if st.OffloadQueuePeak < 1 {
		t.Fatalf("queue peak not tracked: %+v", st)
	}
}

// TestOffloadNowSettlesPipeline: OffloadNow must drain staged segments,
// retained pages, and the log tail, leaving the device fully remote.
func TestOffloadNowSettlesPipeline(t *testing.T) {
	e := newEnv(t, testConfig())
	defer e.r.Close()
	at := churn(t, e.r, 6, 4, 0)
	at, err := e.r.OffloadNow(at)
	if err != nil {
		t.Fatal(err)
	}
	st := e.r.Stats()
	if st.RetainedNow != 0 || st.OffloadInFlight != 0 {
		t.Fatalf("pipeline not settled: %+v", st)
	}
	if e.r.OffloadedUpTo() != e.r.Log().NextSeq() {
		t.Fatalf("log tail not offloaded: upTo %d, next %d", e.r.OffloadedUpTo(), e.r.Log().NextSeq())
	}
	if got := e.store.Head(e.r.cfg.DeviceID).NextSeq; got != e.r.Log().NextSeq() {
		t.Fatalf("remote head %d, want %d", got, e.r.Log().NextSeq())
	}
	_ = at
}

// TestRejectedEntriesNotPrunedByPagesOnlyAck pins down a frontier hazard:
// when the server rejects the entry-bearing segment of a staged run (the
// session survives — e.g. its chain diverged), a pages-only segment staged
// behind it is still accepted, because the server only chain-checks
// segments that carry entries. That ack must not advance the durable
// frontier over the rejected entries: they are not remote, so pruning
// them locally would destroy the only copy of the evidence chain.
func TestRejectedEntriesNotPrunedByPagesOnlyAck(t *testing.T) {
	cfg := testConfig()
	cfg.DropWhenOffline = false
	cfg.SegmentMaxPages = 4 // force multi-segment staging runs
	store := remote.NewStore(remote.NewMemStore())
	srv := remote.NewServer(store, testPSK)
	client, err := remote.Loopback(srv, testPSK, cfg.DeviceID)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	// Poison the device's remote chain: the server is already at seq 3 for
	// this device, so every entry-bearing segment the device ships (which
	// starts at 0) is rejected while the session stays up.
	conflict := conflictSegment(cfg.DeviceID, 3)
	if err := store.AppendSegmentBlob(conflict, nvmeoe.EncodeSegmentBlob(conflict.Marshal())); err != nil {
		t.Fatal(err)
	}
	r := New(cfg, client)
	defer r.Close()

	at := churn(t, r, 4, 4, 0)
	at = r.settle(at)
	st := r.Stats()
	if st.OffloadErrors == 0 {
		t.Fatal("conflicting chain did not surface as offload errors")
	}
	if got := r.OffloadedUpTo(); got != 0 {
		t.Fatalf("durable frontier advanced to %d over rejected entries", got)
	}
	if st.LastOffloadError == "" {
		t.Fatal("failure epoch cleared by a pages-only ack")
	}
	// The rejected entries must still be local: nothing was pruned.
	if entries := r.Log().Entries(0, 1); len(entries) != 1 {
		t.Fatal("log entries pruned without a durable remote copy")
	}
	_ = at
}

// conflictSegment builds a minimal foreign segment putting a device's
// remote chain at the given next sequence.
func conflictSegment(deviceID, upTo uint64) *oplog.Segment {
	l := oplog.New()
	seg := &oplog.Segment{DeviceID: deviceID, FirstSeq: 0, LastSeq: upTo}
	for i := uint64(0); i < upTo; i++ {
		e := l.Append(oplog.KindWrite, 0, i, 0, 0, 0, oplog.HashData([]byte("x")))
		seg.Entries = append(seg.Entries, e)
	}
	return seg
}
