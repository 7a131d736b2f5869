package core

import (
	"bytes"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/oplog"
	"repro/internal/simclock"
)

// checkOOBHashes walks every programmed flash page below the committed
// frontier and holds its OOB against the log entry its sequence names.
func checkOOBHashes(t *testing.T, r *RSSD, entries map[uint64]oplog.Entry, below uint64) (checked int) {
	t.Helper()
	dev := r.FTL().Device()
	for ppn := uint64(0); ppn < uint64(dev.Geometry().TotalPages()); ppn++ {
		oob, ok := dev.ReadOOB(ppn)
		if !ok || oob.Seq >= below {
			continue
		}
		e, ok := entries[oob.Seq]
		switch {
		case !ok:
			t.Fatalf("ppn %d: OOB names log sequence %d, which no entry has", ppn, oob.Seq)
		case e.Kind != oplog.KindWrite && e.Kind != oplog.KindRecovery, e.LPN != oob.LPN:
			t.Fatalf("ppn %d: OOB %+v names entry %+v", ppn, oob, e)
		case e.DataHash != oob.Hash:
			t.Fatalf("ppn %d (lpn %d, seq %d): OOB hash differs from the entry's DataHash", ppn, oob.LPN, oob.Seq)
		}
		checked++
	}
	return checked
}

// TestOOBHashFollowsThePage is the model test for the OOB hash: whatever
// path programs a page — host write, recovery write, GC migration of live and
// of pinned pages — its OOB carries the DataHash of the entry its sequence
// names, across a power cut; and the pages Reopen pins again ship under that
// hash and are accepted, with no hash computed at seal.
func TestOOBHashFollowsThePage(t *testing.T) {
	if src, err := os.ReadFile("engine.go"); err != nil || bytes.Contains(src, []byte("HashData")) {
		t.Fatalf("engine.go hashes at seal again (read error: %v)", err)
	}
	for seed := int64(1); seed <= 4; seed++ {
		cfg := testConfig()
		e := newEnv(t, cfg)
		r := e.r
		rng := rand.New(rand.NewSource(seed))
		page := func() []byte {
			p := make([]byte, 512)
			rng.Read(p[:8]) // distinct hash per write; the rest compresses
			return p
		}
		at := simclock.Time(0)
		var err error
		for i := 0; i < 600; i++ {
			lpn := uint64(rng.Intn(40))
			switch k := rng.Intn(10); {
			case k == 0:
				at, err = r.Trim(lpn, at)
			case k == 1:
				p := page()
				at, err = r.restoreBatch([]restoreOp{{LPN: lpn, Data: p, Hash: oplog.HashData(p)}}, at)
			default:
				at, err = r.Write(lpn, page(), at)
			}
			if err != nil {
				t.Fatalf("seed %d op %d: %v", seed, i, err)
			}
		}
		if st := r.FTL().Stats(); st.GCMigrates == 0 || st.PinMigrates == 0 {
			t.Fatalf("seed %d: churn too light to migrate live and pinned pages: %+v", seed, st)
		}
		// Commit the log without its pages, then cut the power: every stale
		// page still on flash is unacked, and its staling operation is durable.
		if at, err = r.stage(nil, at); err != nil {
			t.Fatal(err)
		}
		at = r.drainOffload(at)
		head := e.store.Head(cfg.DeviceID).NextSeq
		if head != r.log.NextSeq() {
			t.Fatalf("seed %d: log tail not committed: %d of %d", seed, head, r.log.NextSeq())
		}
		entries := map[uint64]oplog.Entry{}
		for _, en := range e.store.Entries(cfg.DeviceID, 0, head) {
			entries[en.Seq] = en
		}
		if n := checkOOBHashes(t, r, entries, head); n == 0 {
			t.Fatal("nothing on flash")
		}

		r2, _ := powerCycle(t, e)
		checkOOBHashes(t, r2, entries, head)
		repinned := r2.Stats().ReopenRepinned
		if repinned == 0 {
			t.Fatalf("seed %d: Reopen pinned nothing again: the test vehicle lost its teeth", seed)
		}
		if _, err := r2.OffloadNow(at); err != nil {
			t.Fatalf("seed %d: re-pinned pages rejected: %v", seed, err)
		}
		if st := r2.Stats(); st.OffloadPages != repinned || st.OffloadErrors != 0 || st.RetainedNow != 0 {
			t.Fatalf("seed %d: %d re-pinned, %d shipped, %d errors, %d still retained", seed, repinned, st.OffloadPages, st.OffloadErrors, st.RetainedNow)
		}
		for _, p := range e.store.HeldVersions(cfg.DeviceID) {
			if en := entries[p.WriteSeq]; en.LPN != p.LPN || en.DataHash != p.Hash {
				t.Fatalf("seed %d: server holds lpn %d write seq %d under a hash the chain does not record", seed, p.LPN, p.WriteSeq)
			}
		}
		r.Close()
	}
}

// TestRestoreFailsPinThatDiffersFromItsWriteTimeHash: a local pin whose
// read-back no longer matches the hash its OOB has carried since the write
// fails the restore of that page instead of being logged as recovered, and a
// point-in-time query of it fails instead of returning the rotted bytes.
func TestRestoreFailsPinThatDiffersFromItsWriteTimeHash(t *testing.T) {
	const cut = 1 // the first version's write is entry 0
	run := func(bitErrorProb float64) (simclock.Time, RestoreReport, *RSSD, error) {
		cfg := testConfig()
		cfg.FTL.NAND.BitErrorProb = bitErrorProb
		e := newEnv(t, cfg)
		t.Cleanup(e.r.Close)
		at, err := e.r.Write(0, fill(1, 512), 0)
		if err != nil {
			t.Fatal(err)
		}
		if at, err = e.r.Write(0, fill(2, 512), at); err != nil { // pins the first version locally
			t.Fatal(err)
		}
		var rep RestoreReport
		rb := rollback{r: e.r, before: cut, rep: &rep}
		if err = rb.span(1, at); err == nil {
			at, err = rb.submit(at)
		}
		return at, rep, e.r, err
	}
	at, rep, r, err := run(0)
	if err != nil || rep.PagesRestored != 1 {
		t.Fatalf("clean pin: restored %d, err %v", rep.PagesRestored, err)
	}
	if data, ws, err := r.VersionBefore(0, cut, at); err != nil || ws != 0 || !bytes.Equal(data, fill(1, 512)) {
		t.Fatalf("clean pin: version write %d, err %v", ws, err)
	}
	if es := heldEntries(r.Log()); es[len(es)-1].Kind != oplog.KindRecovery || es[len(es)-1].DataHash != oplog.HashData(fill(1, 512)) {
		t.Fatalf("recovery entry does not record the restored content: %+v", es[len(es)-1])
	}
	if data, _, _ := r.Read(0, at); !bytes.Equal(data, fill(1, 512)) {
		t.Fatal("clean pin restored the wrong bytes")
	}
	_, rep, r, err = run(1)
	if err == nil || !strings.Contains(err.Error(), "write-time content hash") || rep.PagesRestored != 0 {
		t.Fatalf("corrupt pin: restored %d, err %v", rep.PagesRestored, err)
	}
	if es := heldEntries(r.Log()); es[len(es)-1].Kind == oplog.KindRecovery {
		t.Fatal("corrupt pin was logged as a recovery write")
	}
	if r.writeSeqOf(0) != 1 {
		t.Fatalf("live version is write seq %d, want the untouched overwrite at 1", r.writeSeqOf(0))
	}
	if data, _, err := r.VersionBefore(0, cut, at); err == nil || !strings.Contains(err.Error(), "write-time content hash") {
		t.Fatalf("corrupt pin: version query returned %d bytes, err %v", len(data), err)
	}
}
