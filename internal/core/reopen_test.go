package core

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/ftl"
	"repro/internal/oplog"
	"repro/internal/remote"
	"repro/internal/simclock"
)

// reopenEnv builds an env, runs mixed traffic, and returns the shadow of
// live state plus a version-history oracle.
type versionOracle struct {
	// per lpn: ordered (seq, value) of writes; trims recorded as value 0
	// with trim flag
	writes map[uint64][]struct {
		seq  uint64
		val  byte
		trim bool
	}
	live map[uint64]byte // current expected content (absent = zeroes)
}

func driveTraffic(t *testing.T, e *env, ops int, seed int64) (*versionOracle, simclock.Time) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	o := &versionOracle{
		writes: map[uint64][]struct {
			seq  uint64
			val  byte
			trim bool
		}{},
		live: map[uint64]byte{},
	}
	at := simclock.Time(0)
	const lpns = 10
	for i := 0; i < ops; i++ {
		lpn := uint64(rng.Intn(lpns))
		seq := e.r.Log().NextSeq()
		if rng.Intn(8) == 0 {
			var err error
			at, err = e.r.Trim(lpn, at)
			if err != nil {
				t.Fatal(err)
			}
			o.writes[lpn] = append(o.writes[lpn], struct {
				seq  uint64
				val  byte
				trim bool
			}{seq, 0, true})
			delete(o.live, lpn)
			continue
		}
		b := byte(rng.Intn(255) + 1)
		var err error
		at, err = e.r.Write(lpn, fill(b, 512), at)
		if err != nil {
			t.Fatal(err)
		}
		o.writes[lpn] = append(o.writes[lpn], struct {
			seq  uint64
			val  byte
			trim bool
		}{seq, b, false})
		o.live[lpn] = b
		at = at.Add(simclock.Millisecond)
	}
	return o, at
}

// reopenedDevice simulates a clean shutdown + power cycle: drain, drop the
// in-RAM RSSD, and Reopen over the same NAND array with a fresh session.
func reopenedDevice(t *testing.T, e *env, at simclock.Time) *RSSD {
	t.Helper()
	if _, err := e.r.OffloadNow(at); err != nil {
		t.Fatal(err)
	}
	r2, _ := powerCycle(t, e)
	return r2
}

// powerCycle drops the in-RAM RSSD as it stands — nothing is drained — and
// reopens the same NAND array over a fresh session on a fresh server. The
// returned factory dials further sessions to that server.
func powerCycle(t *testing.T, e *env) (*RSSD, DialFunc) {
	t.Helper()
	srv := remote.NewServer(e.store, testPSK)
	dial := func() (*remote.Client, error) { return remote.Loopback(srv, testPSK, e.r.cfg.DeviceID) }
	client2, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client2.Close() })
	r2, err := Reopen(e.r.cfg, e.r.FTL().Device(), client2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r2.Close)
	return r2, dial
}

func TestReopenRestoresLiveState(t *testing.T) {
	e := newEnv(t, testConfig())
	oracle, at := driveTraffic(t, e, 200, 1)
	r2 := reopenedDevice(t, e, at)

	for lpn := uint64(0); lpn < 10; lpn++ {
		data, _, err := r2.Read(lpn, at)
		if err != nil {
			t.Fatalf("read lpn %d: %v", lpn, err)
		}
		want, ok := oracle.live[lpn]
		if !ok {
			if !bytes.Equal(data, make([]byte, 512)) {
				t.Fatalf("lpn %d: expected zeroes after reopen", lpn)
			}
			continue
		}
		if data[0] != want {
			t.Fatalf("lpn %d = %d, want %d after reopen", lpn, data[0], want)
		}
	}
}

func TestReopenPreservesVersionHistory(t *testing.T) {
	e := newEnv(t, testConfig())
	oracle, at := driveTraffic(t, e, 200, 2)
	r2 := reopenedDevice(t, e, at)

	// Every historical version is still reachable post-reboot.
	for lpn, vs := range oracle.writes {
		for _, v := range vs {
			if v.trim {
				continue
			}
			data, _, ok, err := r2.VersionBefore(lpn, v.seq+1, at)
			if err != nil {
				t.Fatalf("version (%d, %d): %v", lpn, v.seq, err)
			}
			if !ok || data[0] != v.val {
				t.Fatalf("version (%d, %d) = %v/%v, want %d", lpn, v.seq, data[0], ok, v.val)
			}
		}
	}
}

func TestReopenContinuesChain(t *testing.T) {
	e := newEnv(t, testConfig())
	_, at := driveTraffic(t, e, 100, 3)
	r2 := reopenedDevice(t, e, at)

	resumeSeq := r2.Log().NextSeq()
	if resumeSeq != r2.OffloadedUpTo() {
		t.Fatalf("resume seq %d != offloaded %d", resumeSeq, r2.OffloadedUpTo())
	}
	// New activity offloads onto the old chain without rejection.
	for i := 0; i < 60; i++ {
		var err error
		at, err = r2.Write(uint64(i%5), fill(byte(i), 512), at)
		if err != nil {
			t.Fatalf("post-reopen write %d: %v", i, err)
		}
	}
	if _, err := r2.OffloadNow(at); err != nil {
		t.Fatalf("post-reopen offload: %v", err)
	}
	// The remote chain is continuous across the reboot.
	h := e.store.Head(1)
	entries := e.store.Entries(1, 0, h.NextSeq)
	if err := oplog.VerifyChain(entries, [32]byte{}); err != nil {
		t.Fatalf("chain broken across reboot: %v", err)
	}
	if h.NextSeq <= resumeSeq {
		t.Fatal("no post-reboot entries reached the remote")
	}
}

func TestReopenRollsBackUncommittedTail(t *testing.T) {
	e := newEnv(t, testConfig())
	at := simclock.Time(0)
	at, _ = e.r.Write(0, fill(0xAA, 512), at)
	if _, err := e.r.OffloadNow(at); err != nil {
		t.Fatal(err)
	}
	// Crash WITHOUT offloading this write: its log entry dies in RAM.
	at, _ = e.r.Write(0, fill(0xBB, 512), at)
	dev := e.r.FTL().Device()
	srv := remote.NewServer(e.store, testPSK)
	client2, err := remote.Loopback(srv, testPSK, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer client2.Close()
	r2, err := Reopen(e.r.cfg, dev, client2)
	if err != nil {
		t.Fatal(err)
	}
	data, _, err := r2.Read(0, at)
	if err != nil {
		t.Fatal(err)
	}
	if data[0] != 0xAA {
		t.Fatalf("post-crash content = %#x, want rollback to 0xAA", data[0])
	}
}

func TestReopenRequiresRemote(t *testing.T) {
	e := newEnv(t, testConfig())
	if _, err := Reopen(e.r.cfg, e.r.FTL().Device(), nil); err != ErrNoRemote {
		t.Fatalf("err = %v", err)
	}
}

// --- What Reopen pins again, and what it leaves released -------------------

// cutScenario is the history every classification test starts from: mixed
// traffic drained to the server, a checkpoint, the cut, then damage to every
// LPN whose versions are still pinned or in flight when the test takes over.
type cutScenario struct {
	e    *env
	cut  uint64
	want map[uint64]byte // expected content at the cut (absent = zeroes)
	at   simclock.Time
}

func newCutScenario(t *testing.T, seed int64) *cutScenario {
	t.Helper()
	e := newEnv(t, testConfig())
	oracle, at := driveTraffic(t, e, 150, seed)
	at, err := e.r.OffloadNow(at)
	if err != nil {
		t.Fatal(err)
	}
	if at, err = e.r.CheckpointNow(at); err != nil {
		t.Fatal(err)
	}
	sc := &cutScenario{e: e, cut: e.r.Log().NextSeq(), want: oracle.live}
	for lpn := uint64(0); lpn < 10; lpn++ {
		if lpn%4 == 3 {
			at, err = e.r.Trim(lpn, at)
		} else {
			at, err = e.r.Write(lpn, fill(0xEE, 512), at)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	sc.at = at
	return sc
}

// commitLogOnly ships the pending log entries without any page, so the
// damage is committed at the server while its stale pages are still pinned
// and unacked: the state a power cut between two segments leaves behind. It
// returns how many pages that is.
func (sc *cutScenario) commitLogOnly(t *testing.T) int {
	t.Helper()
	r := sc.e.r
	at, err := r.stage(nil, sc.at)
	if err != nil {
		t.Fatal(err)
	}
	sc.at = r.drainOffload(at)
	if r.offloadedUpTo != r.log.NextSeq() {
		t.Fatalf("log tail not committed: %d of %d", r.offloadedUpTo, r.log.NextSeq())
	}
	n := r.Stats().RetainedNow
	if n == 0 {
		t.Fatal("no page left unacked: the test vehicle lost its teeth")
	}
	return n
}

// restoreIdentical rolls r2 back to the cut over the dedup + delta stream
// and checks every page against the scenario's expectation.
func (sc *cutScenario) restoreIdentical(t *testing.T, r2 *RSSD, dial DialFunc) {
	t.Helper()
	at, rep, err := r2.RestoreImage(sc.cut, RestoreOptions{Dial: dial, Dedup: true, Delta: true}, sc.at)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Anchor == 0 {
		t.Fatal("delta restore found no checkpoint anchor")
	}
	sc.checkImage(t, r2, at)
}

// checkImage checks every page of r2 against the scenario's expectation at
// the cut.
func (sc *cutScenario) checkImage(t *testing.T, r2 *RSSD, at simclock.Time) {
	t.Helper()
	for lpn := uint64(0); lpn < 10; lpn++ {
		data, _, err := r2.Read(lpn, at)
		if err != nil {
			t.Fatalf("read lpn %d: %v", lpn, err)
		}
		if want, ok := sc.want[lpn]; ok {
			if !bytes.Equal(data, fill(want, 512)) {
				t.Fatalf("lpn %d = %#x after restore, want %#x", lpn, data[0], want)
			}
		} else if !bytes.Equal(data, make([]byte, 512)) {
			t.Fatalf("lpn %d = %#x after restore, want zeroes", lpn, data[0])
		}
	}
}

// heldSet indexes the server's listing by (LPN, WriteSeq).
func heldSet(store *remote.Store, dev uint64) map[[2]uint64]bool {
	m := map[[2]uint64]bool{}
	for _, p := range store.HeldVersions(dev) {
		m[[2]uint64{p.LPN, p.WriteSeq}] = true
	}
	return m
}

// TestReopenCleanShutdownPinsNothing: everything was acked before power-off,
// so Reopen pins nothing and the next drain has nothing to ship.
func TestReopenCleanShutdownPinsNothing(t *testing.T) {
	sc := newCutScenario(t, 21)
	at, err := sc.e.r.OffloadNow(sc.at)
	if err != nil {
		t.Fatal(err)
	}
	sc.at = at
	before := sc.e.store.DeviceStats(1)
	r2, dial := powerCycle(t, sc.e)

	st := r2.Stats()
	if st.RetainedNow != 0 || st.ReopenRepinned != 0 {
		t.Fatalf("clean shutdown re-pinned pages: %d retained, %d repinned", st.RetainedNow, st.ReopenRepinned)
	}
	if st.ReopenHeld == 0 {
		t.Fatal("no stale page left on flash: the test vehicle lost its teeth")
	}
	if _, err := r2.OffloadNow(sc.at); err != nil {
		t.Fatal(err)
	}
	if st := r2.Stats(); st.OffloadPages != 0 || st.OffloadSegments != 0 {
		t.Fatalf("drain after a clean power cycle shipped %d pages in %d segments", st.OffloadPages, st.OffloadSegments)
	}
	if after := sc.e.store.DeviceStats(1); after.Versions != before.Versions || after.Segments != before.Segments {
		t.Fatalf("server footprint moved across a clean power cycle: %+v -> %+v", before, after)
	}
	sc.restoreIdentical(t, r2, dial)
}

// TestReopenRepinsUnackedTail: pages staled by committed operations but not
// acked at power-off are pinned again and reach the server exactly once.
func TestReopenRepinsUnackedTail(t *testing.T) {
	sc := newCutScenario(t, 22)
	unacked := sc.commitLogOnly(t)
	before := sc.e.store.DeviceStats(1)
	r2, dial := powerCycle(t, sc.e)

	st := r2.Stats()
	if st.RetainedNow != unacked || st.ReopenRepinned != uint64(unacked) {
		t.Fatalf("re-pinned %d (%d retained), want the %d unacked pages", st.ReopenRepinned, st.RetainedNow, unacked)
	}
	if st.ReopenHeld == 0 {
		t.Fatal("no acked stale page left on flash: cannot tell the tail from the stale set")
	}
	if _, err := r2.OffloadNow(sc.at); err != nil {
		t.Fatal(err)
	}
	if got := r2.Stats().OffloadPages; got != uint64(unacked) {
		t.Fatalf("drain shipped %d pages, want %d", got, unacked)
	}
	if after := sc.e.store.DeviceStats(1); after.Versions != before.Versions+unacked {
		t.Fatalf("server versions %d -> %d, want +%d", before.Versions, after.Versions, unacked)
	}
	sc.restoreIdentical(t, r2, dial)
}

// TestReopenRepinsExpiredVersions: a version the server expired is no longer
// held, so its flash copy is pinned again and shipped back.
func TestReopenRepinsExpiredVersions(t *testing.T) {
	sc := newCutScenario(t, 23)
	at, err := sc.e.r.OffloadNow(sc.at)
	if err != nil {
		t.Fatal(err)
	}
	sc.at = at
	// Expire the newest page-carrying segment: its versions were staled
	// last, so their flash copies have not been collected yet.
	var dropped map[[2]uint64]bool
	for i := sc.e.store.DeviceStats(1).Segments - 1; i >= 0 && dropped == nil; i-- {
		seg, err := sc.e.store.FetchSegment(1, i)
		if err != nil {
			t.Fatal(err)
		}
		if len(seg.Pages) == 0 {
			continue
		}
		if err := sc.e.store.DropSegmentPages(1, i); err != nil {
			t.Fatal(err)
		}
		dropped = map[[2]uint64]bool{}
		for _, p := range seg.Pages {
			dropped[[2]uint64{p.LPN, p.WriteSeq}] = true
		}
	}
	r2, dial := powerCycle(t, sc.e)

	st := r2.Stats()
	if st.ReopenRepinned == 0 || st.ReopenRepinned > uint64(len(dropped)) {
		t.Fatalf("re-pinned %d pages, want 1..%d (the expired versions still on flash)", st.ReopenRepinned, len(dropped))
	}
	for lpn := uint64(0); lpn < 10; lpn++ {
		for _, v := range r2.RetainedVersions(lpn) {
			if !dropped[[2]uint64{v.LPN, v.WriteSeq}] {
				t.Fatalf("re-pinned (%d, %d), which the server still holds", v.LPN, v.WriteSeq)
			}
		}
	}
	if _, err := r2.OffloadNow(sc.at); err != nil {
		t.Fatal(err)
	}
	if got := r2.Stats().OffloadPages; got != st.ReopenRepinned {
		t.Fatalf("drain shipped %d pages, want the %d re-pinned", got, st.ReopenRepinned)
	}
	sc.restoreIdentical(t, r2, dial)
}

// TestReopenKeepsPinOnHashMismatch: the server lists the version, but with a
// content hash the evidence chain does not record for that write. The
// listing alone is not trusted: the pin stays and the real page is shipped.
func TestReopenKeepsPinOnHashMismatch(t *testing.T) {
	sc := newCutScenario(t, 24)
	unacked := sc.commitLogOnly(t)
	// Forge one unacked version at the server: same identity, other bytes.
	// The segment passes VerifyPages (hash matches its own data) and carries
	// no entries, so the chain check has nothing to object to.
	var victim *retEntry
	for _, re := range sc.e.r.retained {
		if victim == nil || re.writeSeq < victim.writeSeq {
			victim = re
		}
	}
	forged := fill(0x66, 512)
	head := sc.e.store.Head(1).NextSeq
	if err := sc.e.store.AppendSegment(&oplog.Segment{
		DeviceID: 1, FirstSeq: head, LastSeq: head,
		Pages: []oplog.PageRecord{{
			LPN: victim.lpn, WriteSeq: victim.writeSeq, StaleSeq: victim.staleSeq,
			Cause: uint8(victim.cause), Hash: oplog.HashData(forged), Data: forged,
		}},
	}); err != nil {
		t.Fatal(err)
	}
	if !heldSet(sc.e.store, 1)[[2]uint64{victim.lpn, victim.writeSeq}] {
		t.Fatal("forged version not listed: the test vehicle lost its teeth")
	}
	r2, dial := powerCycle(t, sc.e)

	if st := r2.Stats(); st.ReopenRepinned != uint64(unacked) {
		t.Fatalf("re-pinned %d pages, want all %d unacked (forged listing included)", st.ReopenRepinned, unacked)
	}
	pinned := false
	for _, v := range r2.RetainedVersions(victim.lpn) {
		pinned = pinned || v.WriteSeq == victim.writeSeq
	}
	if !pinned {
		t.Fatalf("pin for (%d, %d) released on a listing whose hash the chain contradicts", victim.lpn, victim.writeSeq)
	}
	if _, err := r2.OffloadNow(sc.at); err != nil {
		t.Fatal(err)
	}
	if got := r2.Stats().OffloadPages; got != uint64(unacked) {
		t.Fatalf("drain shipped %d pages, want %d", got, unacked)
	}
	sc.restoreIdentical(t, r2, dial)
}

// TestReopenLeavesTrimmedPageZero: an LPN written, overwritten and trimmed,
// then a checkpoint, all before the cut. Drained, neither old version may
// come back as a pin — an overwrite-staled pin under a trim is what a delta
// restore would resurrect. Unshipped, both are still on flash and older than
// the checkpoint Reopen anchors on: they are pinned again with the operation
// that staled each, which lies before the anchor, exactly as a replay from
// genesis finds it. Either way the page reads zeroes after the restore.
func TestReopenLeavesTrimmedPageZero(t *testing.T) {
	for _, drained := range []bool{true, false} {
		e := newEnv(t, testConfig())
		const lpn = 5
		at := simclock.Time(0)
		var err error
		first := e.r.Log().NextSeq()
		for _, b := range []byte{0xA1, 0xA2} {
			if at, err = e.r.Write(lpn, fill(b, 512), at); err != nil {
				t.Fatal(err)
			}
		}
		if at, err = e.r.Trim(lpn, at); err != nil {
			t.Fatal(err)
		}
		// ship commits the log, with or without the pages it staled.
		ship := func() {
			t.Helper()
			if drained {
				at, err = e.r.OffloadNow(at)
			} else if at, err = e.r.stage(nil, at); err == nil {
				at = e.r.drainOffload(at)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		ship()
		if at, err = e.r.CheckpointNow(at); err != nil {
			t.Fatal(err)
		}
		sc := &cutScenario{e: e, cut: e.r.Log().NextSeq(), want: map[uint64]byte{}}
		if at, err = e.r.Write(0, fill(0xEE, 512), at); err != nil {
			t.Fatal(err)
		}
		ship()
		sc.at = at
		r2, dial := powerCycle(t, e)

		vs := r2.RetainedVersions(lpn)
		if drained {
			if st := r2.Stats(); st.ReopenHeld != 2 {
				t.Fatalf("held %d stale pages, want both old versions of lpn %d", st.ReopenHeld, lpn)
			}
			if len(vs) != 0 {
				t.Fatalf("lpn %d re-pinned after a full drain: %+v", lpn, vs)
			}
		} else {
			want := []VersionInfo{
				{LPN: lpn, WriteSeq: first, StaleSeq: first + 1, Cause: ftl.CauseOverwrite, Local: true},
				{LPN: lpn, WriteSeq: first + 1, StaleSeq: first + 2, Cause: ftl.CauseTrim, Local: true},
			}
			if len(vs) != 2 || vs[0] != want[0] || vs[1] != want[1] {
				t.Fatalf("unshipped versions of lpn %d re-pinned as %+v, want %+v", lpn, vs, want)
			}
			if data, _, ok, err := r2.VersionBefore(lpn, sc.cut, at); err != nil || !ok || !bytes.Equal(data, make([]byte, 512)) {
				t.Fatalf("lpn %d before the cut: ok=%v err=%v, want the trim gap's zeroes", lpn, ok, err)
			}
		}
		sc.restoreIdentical(t, r2, dial)
	}
}
