package core

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"repro/internal/ftl"
	"repro/internal/oplog"
	"repro/internal/remote"
	"repro/internal/simclock"
)

// TestSubmitBatchMatchesPerOpSequence drives the same operation sequence
// per-op on one device and as a single submission batch on another, and
// verifies state, stats, and log chains agree.
func TestSubmitBatchMatchesPerOpSequence(t *testing.T) {
	perOp := newEnv(t, testConfig())
	batched := newEnv(t, testConfig())

	ops := []Op{
		{Kind: OpWrite, LPN: 0, Data: fill(0xA0, 512)},
		{Kind: OpWrite, LPN: 1, Data: fill(0xA1, 512)},
		{Kind: OpWrite, LPN: 2, Data: fill(0xA2, 512)},
		{Kind: OpRead, LPN: 0},
		{Kind: OpRead, LPN: 1},
		{Kind: OpTrim, LPN: 2},
		{Kind: OpWrite, LPN: 0, Data: fill(0xB0, 512)},
	}
	at := simclock.Time(0)
	for _, op := range ops {
		var err error
		switch op.Kind {
		case OpWrite:
			at, err = perOp.r.Write(op.LPN, op.Data, at)
		case OpRead:
			_, at, err = perOp.r.Read(op.LPN, at)
		case OpTrim:
			at, err = perOp.r.Trim(op.LPN, at)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	res, _, err := batched.r.SubmitBatch(ops, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res {
		if res[i].Err != nil {
			t.Fatalf("op %d: %v", i, res[i].Err)
		}
	}

	ps, bs := perOp.r.Stats(), batched.r.Stats()
	if ps.HostWrites != bs.HostWrites || ps.HostReads != bs.HostReads || ps.HostTrims != bs.HostTrims {
		t.Fatalf("stats diverge: per-op %+v vs batched %+v", ps, bs)
	}
	if ps.RetainedNow != bs.RetainedNow {
		t.Fatalf("retention diverges: %d vs %d pinned versions", ps.RetainedNow, bs.RetainedNow)
	}
	if perOp.r.Log().NextSeq() != batched.r.Log().NextSeq() {
		t.Fatalf("log lengths diverge: %d vs %d", perOp.r.Log().NextSeq(), batched.r.Log().NextSeq())
	}
	if err := oplog.VerifyChain(heldEntries(batched.r.Log()), [oplog.HashSize]byte{}); err != nil {
		t.Fatalf("batched log chain broken: %v", err)
	}
	// Entry streams must match in kind/LPN order (hashes differ only via
	// timestamps).
	pe, be := heldEntries(perOp.r.Log()), heldEntries(batched.r.Log())
	for i := range pe {
		if pe[i].Kind != be[i].Kind || pe[i].LPN != be[i].LPN || pe[i].OldPPN != be[i].OldPPN {
			t.Fatalf("entry %d diverges: per-op %+v vs batched %+v", i, pe[i], be[i])
		}
	}
	for lpn := uint64(0); lpn < 3; lpn++ {
		pd, _, err := perOp.r.Read(lpn, at)
		if err != nil {
			t.Fatal(err)
		}
		bd, _, err := batched.r.Read(lpn, at)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pd, bd) {
			t.Fatalf("lpn %d: contents diverge", lpn)
		}
	}
}

// TestSubmitBatchDuplicateLPNAttribution writes the same LPN twice in one
// batch and checks the forensic attribution is exact: the second entry's
// OldPPN points at the first write's page, and the retained version
// carries the correct write/stale sequence pair.
func TestSubmitBatchDuplicateLPNAttribution(t *testing.T) {
	e := newEnv(t, testConfig())
	res, _, err := e.r.SubmitBatch([]Op{
		{Kind: OpWrite, LPN: 5, Data: fill(0x01, 512)},
		{Kind: OpWrite, LPN: 5, Data: fill(0x02, 512)},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res {
		if res[i].Err != nil {
			t.Fatalf("op %d: %v", i, res[i].Err)
		}
	}
	entries := heldEntries(e.r.Log())
	if len(entries) != 2 {
		t.Fatalf("log has %d entries, want 2", len(entries))
	}
	first, second := entries[0], entries[1]
	if first.OldPPN != ftl.NoPPN {
		t.Fatalf("first write OldPPN = %d, want none", first.OldPPN)
	}
	if second.OldPPN == ftl.NoPPN {
		t.Fatal("second write did not record the first write's page")
	}
	vs := e.r.retainedVersions(5)
	if len(vs) != 1 {
		t.Fatalf("retained versions = %d, want 1", len(vs))
	}
	if vs[0].WriteSeq != first.Seq || vs[0].StaleSeq != second.Seq {
		t.Fatalf("retained version seq pair = (%d,%d), want (%d,%d)",
			vs[0].WriteSeq, vs[0].StaleSeq, first.Seq, second.Seq)
	}
}

// TestSubmitBatchReadSampling: every read inside a batch is logged, one
// KindRead entry per read in submission order, as it is per-op.
func TestSubmitBatchReadSampling(t *testing.T) {
	e := newEnv(t, testConfig())
	writes := make([]Op, 4)
	for i := range writes {
		writes[i] = Op{Kind: OpWrite, LPN: uint64(i), Data: fill(byte(i+1), 512)}
	}
	if _, _, err := e.r.SubmitBatch(writes, 0); err != nil {
		t.Fatal(err)
	}
	lpns := []uint64{2, 0, 3, 0, 1, 1, 3, 2, 0}
	reads := make([]Op, len(lpns))
	for i, lpn := range lpns {
		reads[i] = Op{Kind: OpRead, LPN: lpn}
	}
	before := e.r.Log().NextSeq()
	if _, _, err := e.r.SubmitBatch(reads, 0); err != nil {
		t.Fatal(err)
	}
	var logged []uint64
	for _, en := range heldEntries(e.r.Log()) {
		if en.Seq >= before && en.Kind == oplog.KindRead {
			logged = append(logged, en.LPN)
		}
	}
	if !slices.Equal(logged, lpns) {
		t.Fatalf("logged reads of LPNs %v for a batch reading %v", logged, lpns)
	}
}

// TestFailedOffloadLeavesRetainedPagesIntact is the zero-data-loss
// invariant under offload failure: when the remote connection is broken,
// background offload errors are surfaced through Stats() and nothing is
// released or dropped; once a healthy remote is attached, the backlog
// drains completely.
func TestFailedOffloadLeavesRetainedPagesIntact(t *testing.T) {
	cfg := testConfig()
	store := remote.NewStore(remote.NewMemStore())
	srv := remote.NewServer(store, testPSK)
	client, err := remote.Loopback(srv, testPSK, cfg.DeviceID)
	if err != nil {
		t.Fatal(err)
	}
	client.Close() // attached but broken: every push fails
	r := New(cfg, client)

	// 4 live pages overwritten 3x -> 12 retained, over the high water
	// (0.7 * 16-page budget), so offload keeps being attempted and failing.
	at := simclock.Time(0)
	for round := 0; round < 4; round++ {
		for lpn := uint64(0); lpn < 4; lpn++ {
			if at, err = r.Write(lpn, fill(byte(round), 512), at); err != nil {
				t.Fatalf("host write failed on offload error: %v", err)
			}
		}
	}
	// Settle the asynchronous pipeline so every staged segment has either
	// acked or failed-and-requeued before the invariant is checked.
	at = r.settle(at)
	st := r.Stats()
	if st.OffloadErrors == 0 {
		t.Fatal("no offload errors recorded despite broken remote")
	}
	if st.LastOffloadError == "" {
		t.Fatal("LastOffloadError not surfaced through Stats()")
	}
	if st.RetainedNow != 12 {
		t.Fatalf("retained = %d, want all 12 stale versions", st.RetainedNow)
	}
	if st.ReleasedPins != 0 || st.OffloadPages != 0 {
		t.Fatalf("data released without durable ack: %+v", st)
	}

	// Recovery: a healthy remote drains the whole backlog, nothing lost.
	good, err := remote.Loopback(srv, testPSK, cfg.DeviceID)
	if err != nil {
		t.Fatal(err)
	}
	defer good.Close()
	r.attachRemote(good)
	if _, err := r.OffloadNow(at); err != nil {
		t.Fatal(err)
	}
	st = r.Stats()
	if st.RetainedNow != 0 || st.OffloadPages != 12 {
		t.Fatalf("backlog did not drain after recovery: %+v", st)
	}
	// Each release finds its page pinned in the FTL: all 12 pins held
	// through the failure epoch.
	if st.ReleasedPins != 12 {
		t.Fatalf("released %d FTL pins, want 12", st.ReleasedPins)
	}
	if st.LastOffloadError != "" {
		t.Fatalf("stale error still surfaced after successful offload: %q", st.LastOffloadError)
	}
}

// TestDeadSessionUnderPressureFailsWrites: a device at the default
// watermarks whose session is dead keeps every retained version when
// overwrites outrun the retention budget. The write that needs a retained
// page's space fails with ftl.ErrNoSpace instead of destroying an unshipped
// version, and once a live session is attached every one of them ships.
func TestDeadSessionUnderPressureFailsWrites(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FTL = smallFTLConfig()
	store := remote.NewStore(remote.NewMemStore())
	srv := remote.NewServer(store, testPSK)
	client, err := remote.Loopback(srv, testPSK, cfg.DeviceID)
	if err != nil {
		t.Fatal(err)
	}
	client.Close() // attached but dead: every push fails
	r := New(cfg, client)
	defer r.Close()

	const lpns = 4
	at := simclock.Time(0)
	writes := 0
	for {
		done, err := r.Write(uint64(writes%lpns), fill(byte(writes), 512), at)
		if errors.Is(err, ftl.ErrNoSpace) {
			break
		}
		if err != nil {
			t.Fatalf("write %d: %v", writes, err)
		}
		if writes++; writes > 4*int(r.LogicalPages()) {
			t.Fatalf("%d overwrites of %d LPNs never ran out of space with the session dead", writes, lpns)
		}
		at = done
	}
	at = r.settle(at)
	stale := writes - lpns
	st := r.Stats()
	if stale <= r.retentionBudget() {
		t.Fatalf("ran out of space after %d stale versions, within the %d-page budget", stale, r.retentionBudget())
	}
	if st.ReleasedPins != 0 || st.OffloadPages != 0 || st.RetainedNow != stale {
		t.Fatalf("retained %d of %d stale versions, released %d, shipped %d", st.RetainedNow, stale, st.ReleasedPins, st.OffloadPages)
	}

	good, err := remote.Loopback(srv, testPSK, cfg.DeviceID)
	if err != nil {
		t.Fatal(err)
	}
	defer good.Close()
	r.attachRemote(good)
	if _, err := r.OffloadNow(at); err != nil {
		t.Fatal(err)
	}
	st = r.Stats()
	if st.RetainedNow != 0 || st.OffloadPages != uint64(stale) || st.ReleasedPins != uint64(stale) {
		t.Fatalf("drain shipped %d and released %d of %d stale versions, %d still retained", st.OffloadPages, st.ReleasedPins, stale, st.RetainedNow)
	}
	if held := len(store.HeldVersions(cfg.DeviceID)); held != stale {
		t.Fatalf("server holds %d versions, want all %d", held, stale)
	}
}
