package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ftl"
	"repro/internal/nand"
	"repro/internal/oplog"
	"repro/internal/remote"
	"repro/internal/simclock"
)

// The Reopen-equivalence oracle. Reopen anchors on a checkpoint and fetches
// the log only from its floor on; the reference below knows neither. It
// replays the whole stored chain from genesis into plain maps and predicts,
// from that and the flash array as the power cut left it, every number Reopen
// must arrive at: the live write sequence of every LPN, every page pinned
// again with the operation that staled it, the held / re-pinned counts, and
// what a point-in-time query answers on both sides of the checkpoint.

type flashPage struct {
	ppn uint64
	oob nand.OOB
}

type staleRef struct {
	seq   uint64
	cause ftl.StaleCause
}

// lpnOp is one entry of an LPN's history: a write makes itself live, a trim
// makes nothing live (NoSeq).
type lpnOp struct{ seq, live uint64 }

type pinRef struct {
	lpn, writeSeq uint64
	staleRef
}

// genesisReplay is the reference: one pass over store.Entries from 0.
type genesisReplay struct {
	head    uint64
	live    map[uint64]uint64               // lpn -> seq of its current write
	history map[uint64][]lpnOp              // lpn -> its writes and trims, in order
	staled  map[uint64]staleRef             // write seq -> what superseded it
	hashAt  map[uint64][oplog.HashSize]byte // write seq -> content hash
	lpnAt   map[uint64]uint64               // write seq -> the LPN it wrote
	cps     []uint64                        // KindCheckpoint entries in the chain
}

func replayFromGenesis(store *remote.Store, dev uint64) *genesisReplay {
	g := &genesisReplay{
		head:    store.Head(dev).NextSeq,
		live:    map[uint64]uint64{},
		history: map[uint64][]lpnOp{},
		staled:  map[uint64]staleRef{},
		hashAt:  map[uint64][oplog.HashSize]byte{},
		lpnAt:   map[uint64]uint64{},
	}
	for _, e := range store.Entries(dev, 0, g.head) {
		switch e.Kind {
		case oplog.KindWrite, oplog.KindRecovery:
			if prev, ok := g.live[e.LPN]; ok {
				g.staled[prev] = staleRef{e.Seq, ftl.CauseOverwrite}
			}
			g.live[e.LPN] = e.Seq
			g.history[e.LPN] = append(g.history[e.LPN], lpnOp{e.Seq, e.Seq})
			g.hashAt[e.Seq] = e.DataHash
			g.lpnAt[e.Seq] = e.LPN
		case oplog.KindTrim, oplog.KindRecoveryTrim:
			if prev, ok := g.live[e.LPN]; ok {
				g.staled[prev] = staleRef{e.Seq, ftl.CauseTrim}
			}
			delete(g.live, e.LPN)
			g.history[e.LPN] = append(g.history[e.LPN], lpnOp{e.Seq, NoSeq})
		case oplog.KindCheckpoint:
			g.cps = append(g.cps, e.Seq)
		}
	}
	return g
}

func scanFlash(dev *nand.Device) []flashPage {
	var out []flashPage
	g := dev.Geometry()
	for b := 0; b < g.TotalBlocks(); b++ {
		if dev.Bad(uint64(b)) {
			continue
		}
		for i := 0; i < dev.Programmed(uint64(b)); i++ {
			ppn := g.PPN(uint64(b), i)
			if oob, ok := dev.ReadOOB(ppn); ok {
				out = append(out, flashPage{ppn, oob})
			}
		}
	}
	return out
}

// classifyFlash predicts Reopen's verdict on every flash page: the pins it
// rebuilds, by PPN, and how many stale pages it releases as held. A page is a
// version only if the chain's entry at its sequence wrote its LPN with its
// content; otherwise it is an orphan, rolled back at an earlier power cut and
// its sequence issued again since. Every held page is released; of two pages
// carrying a version the device keeps, the first in PPN order stands for it.
func (g *genesisReplay) classifyFlash(flash []flashPage, listed []oplog.PageRecord) (pins map[uint64]pinRef, held uint64, err error) {
	type id struct{ lpn, writeSeq uint64 }
	heldHash := map[id][oplog.HashSize]byte{}
	for _, p := range listed {
		heldHash[id{p.LPN, p.WriteSeq}] = p.Hash
	}
	pins = map[uint64]pinRef{}
	taken := map[uint64]bool{}
	for _, fp := range flash {
		oob := fp.oob
		if oob.Seq >= g.head {
			continue // uncommitted tail
		}
		if lpn, ok := g.lpnAt[oob.Seq]; !ok || lpn != oob.LPN || g.hashAt[oob.Seq] != oob.Hash {
			continue // an orphan
		}
		ws, live := g.live[oob.LPN]
		live = live && ws == oob.Seq
		if h, ok := heldHash[id{oob.LPN, oob.Seq}]; !live && ok && h == oob.Hash {
			held++
			continue
		}
		if taken[oob.Seq] {
			continue // the twin of a page already kept
		}
		taken[oob.Seq] = true
		if live {
			continue
		}
		by, ok := g.staled[oob.Seq]
		if !ok {
			return nil, 0, fmt.Errorf("ppn %d holds committed write %d of lpn %d, not live and never superseded", fp.ppn, oob.Seq, oob.LPN)
		}
		pins[fp.ppn] = pinRef{oob.LPN, oob.Seq, by}
	}
	return pins, held, nil
}

// versionBefore predicts VersionBefore(lpn, before) from the chain: the write
// live at the cut, if its version survives — live, pinned again, or at the
// server — and zeroes otherwise. lost reports a write live at the cut whose
// version is gone.
func (g *genesisReplay) versionBefore(store *remote.Store, dev uint64, pins map[uint64]pinRef, lpn, before uint64) (writeSeq uint64, lost bool) {
	ws := NoSeq
	for _, op := range g.history[lpn] {
		if op.seq >= before {
			break
		}
		ws = op.live
	}
	if ws == NoSeq {
		return NoSeq, false
	}
	if cur, mapped := g.live[lpn]; mapped && cur == ws {
		return ws, false
	}
	for _, p := range pins {
		if p.lpn == lpn && p.writeSeq == ws {
			return ws, false
		}
	}
	if rec, has := store.Version(dev, lpn, before); has && rec.WriteSeq == ws {
		return ws, false
	}
	return NoSeq, true
}

// oracleTeeth counts the histories (lost: the queries) that reached each case
// the oracle is there for, so a change to the mix that loses one fails the
// test.
type oracleTeeth struct {
	anchored   int // a checkpoint inside the chain
	pulledBack int // ... and a pin staled before it: floor below the anchor
	cpAhead    int // a checkpoint stored ahead of the chain head
	orphan     int // ... and the chain has since grown past it: the newest table below the head is bound by nothing
	collected  int // GC erased blocks
	lost       int // a point-in-time query of a write live at its cut whose version is gone: zeroes
}

// reopenOracleRun drives one seeded history through two power cuts — the
// second history runs on the device the first Reopen adopted, over whatever
// the first cut left at the server — and checks each Reopen against the
// genesis replay.
func reopenOracleRun(t *testing.T, seed int64, teeth *oracleTeeth) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	// Sessions and engines are torn down per history, not at the end of the
	// test: hundreds of them would otherwise sit idle until then.
	store := remote.NewStore(remote.NewMemStore())
	var clients []*remote.Client
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()
	dial := func() *remote.Client {
		t.Helper()
		c, err := remote.Loopback(remote.NewServer(store, testPSK), testPSK, 1)
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, c)
		return c
	}
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("seed %d: %s", seed, fmt.Sprintf(format, args...))
	}
	check := func(err error) {
		t.Helper()
		if err != nil {
			fail("%v", err)
		}
	}

	const lpns = 12
	checkpoints := seed%5 != 0 // every fifth history has no checkpoint at all
	dropped := map[int]bool{}
	at := simclock.Time(0)
	var err error
	r := New(testConfig(), dial())
	defer func() { r.Close() }()
	write := func(lpn uint64) {
		at, err = r.Write(lpn, fill(byte(rng.Intn(255)+1), 512), at)
		check(err)
		at = at.Add(simclock.Millisecond)
	}
	anchored, pulledBack, cpAhead, orphan, collected := false, false, false, false, false
	for cycle := 1; cycle <= 2; cycle++ {
		if cycle == 2 && seed%2 != 0 {
			checkpoints = false // every other one takes none after the first cut: what that cut left stays the newest
		}
		for i, ops := 0, (40+rng.Intn(100))/cycle; i < ops; i++ {
			switch x := rng.Intn(100); {
			case x < 50:
				write(uint64(rng.Intn(lpns)))
			case x < 58: // a burst on two hot pages: garbage for GC to collect
				for k := 0; k < 6; k++ {
					write(uint64(k % 2))
				}
			case x < 68:
				at, err = r.Trim(uint64(rng.Intn(lpns)), at)
				check(err)
			case x < 74:
				// A checkpoint wherever the history happens to be: often with
				// entries, its own included, not yet staged.
				if checkpoints {
					at, err = r.CheckpointNow(at)
					check(err)
				}
			case x < 82: // commit the log, ship no page: the unacked tail grows
				at, err = r.stage(nil, at)
				check(err)
				at = r.drainOffload(at)
			case x < 88: // partial drain
				at = r.stageTo(rng.Intn(r.unstagedRetained()+1), at)
				at = r.drainOffload(at)
			case x < 92:
				at, err = r.OffloadNow(at)
				check(err)
			case x < 98: // a logged read: an entry that moves no mapping
				_, at, err = r.Read(uint64(rng.Intn(lpns)), at)
				check(err)
			default:
				// The server expires one stored segment's pages, any age.
				at = r.drainOffload(at)
				n := store.DeviceStats(1).Segments
				for k, i := 0, rng.Intn(n+1); k < n; k, i = k+1, i+1 {
					if dropped[i%n] {
						continue
					}
					dropped[i%n] = true
					check(store.DropSegmentPages(1, i%n))
					break
				}
			}
		}
		// The power cut: clean, with the log committed but pages unacked, or
		// with whatever was staged settled and the rest lost in RAM. A write
		// lost at the first cut leaves its page on flash while the second
		// history issues its sequence again.
		switch rng.Intn(3) {
		case 0:
			at, err = r.OffloadNow(at)
			check(err)
		case 1:
			at, err = r.stage(nil, at)
			check(err)
		}
		at = r.drainOffload(at)
		if cycle == 1 && checkpoints && rng.Intn(2) == 0 {
			for k := rng.Intn(4); k > 0; k-- {
				at, err = r.Trim(uint64(rng.Intn(lpns)), at)
				check(err)
			}
			at, err = r.CheckpointNow(at)
			check(err)
			at = r.drainOffload(at)
		}

		ref := replayFromGenesis(store, 1)
		flash := scanFlash(r.FTL().Device())
		pins, held, err := ref.classifyFlash(flash, store.HeldVersions(1))
		check(err)

		r2, err := Reopen(r.cfg, r.FTL().Device(), dial())
		if err != nil {
			fail("power cycle %d: %v", cycle, err)
		}
		collected = collected || r.FTL().Stats().Erases > 0
		r.Close()
		r = r2

		for lpn := uint64(0); lpn < r.LogicalPages(); lpn++ {
			want, ok := ref.live[lpn]
			if !ok {
				want = NoSeq
			}
			if got := r.writeSeqOf(lpn); got != want {
				fail("cycle %d: lpn %d live write %d, genesis replay says %d", cycle, lpn, got, want)
			}
		}
		if st := r.Stats(); st.ReopenHeld != held || st.ReopenRepinned != uint64(len(pins)) || st.RetainedNow != len(pins) {
			fail("cycle %d: held %d re-pinned %d (%d retained), genesis replay says %d and %d", cycle, st.ReopenHeld, st.ReopenRepinned, st.RetainedNow, held, len(pins))
		}
		for ppn, want := range pins {
			re := r.retained[ppn]
			if re == nil {
				fail("cycle %d: ppn %d (lpn %d write %d) not pinned", cycle, ppn, want.lpn, want.writeSeq)
			}
			if got := (pinRef{re.lpn, re.writeSeq, staleRef{re.staleSeq, re.cause}}); got != want {
				fail("cycle %d: ppn %d pinned as %+v, genesis replay says %+v", cycle, ppn, got, want)
			}
		}

		// Point-in-time queries at the head, at a random cut, and hard on either
		// side of the checkpoint Reopen anchored on.
		cuts := []uint64{ref.head, uint64(rng.Int63n(int64(ref.head) + 1))}
		if len(ref.cps) > 0 {
			anchor := ref.cps[len(ref.cps)-1]
			cuts = append(cuts, anchor, anchor+1)
		}
		zero := make([]byte, 512)
		for _, cut := range cuts {
			for lpn := uint64(0); lpn < lpns; lpn++ {
				wantSeq, lost := ref.versionBefore(store, 1, pins, lpn, cut)
				if lost {
					teeth.lost++
				}
				data, gotSeq, err := r.VersionBefore(lpn, cut, at)
				check(err)
				if gotSeq != wantSeq {
					fail("cycle %d: lpn %d before %d: write %d, genesis replay says %d", cycle, lpn, cut, gotSeq, wantSeq)
				}
				if wantSeq == NoSeq && !bytes.Equal(data, zero) {
					fail("cycle %d: lpn %d before %d: %#x where zeroes belong", cycle, lpn, cut, data[0])
				}
				if wantSeq != NoSeq && oplog.HashData(data) != ref.hashAt[wantSeq] {
					fail("cycle %d: lpn %d before %d: content is not what write %d logged", cycle, lpn, cut, wantSeq)
				}
			}
		}
		if len(ref.cps) > 0 {
			anchored = true
			newest := ref.cps[len(ref.cps)-1]
			for _, p := range pins {
				if p.seq < newest { // staled before it: not in its table
					pulledBack = true
					break
				}
			}
		}
		if cp, ok := store.Checkpoint(1, NoSeq); ok && cp.Seq >= ref.head {
			cpAhead = true
		}
		if cp, ok := store.Checkpoint(1, ref.head-1); ok && (len(ref.cps) == 0 || cp.Seq != ref.cps[len(ref.cps)-1]) {
			orphan = true
		}

		// The adopted device is a working one: its pins ship and the chain holds.
		if at, err = r.OffloadNow(at); err != nil {
			fail("cycle %d: drain after reopen: %v", cycle, err)
		}
		if n := r.Stats().RetainedNow; n != 0 {
			fail("cycle %d: %d pages still pinned after the post-reopen drain", cycle, n)
		}
		after := store.Head(1).NextSeq
		if err := oplog.VerifyChain(store.Entries(1, 0, after), [32]byte{}); err != nil {
			fail("cycle %d: chain after reopen: %v", cycle, err)
		}
	}
	for _, c := range []struct {
		hit bool
		n   *int
	}{{anchored, &teeth.anchored}, {pulledBack, &teeth.pulledBack}, {cpAhead, &teeth.cpAhead}, {orphan, &teeth.orphan}, {collected, &teeth.collected}} {
		if c.hit {
			*c.n++
		}
	}
}

// TestReopenMatchesGenesisReplay runs the oracle over seeded random
// histories: writes, overwrites, trims, checkpoints at arbitrary points (or
// none), GC pressure, partial drains that leave the unacked tail straddling
// a checkpoint, server-side expiry, and every kind of power cut — twice over,
// so the second Reopen meets what the first cut left behind: a checkpoint
// whose log entry died in RAM, its sequence since issued to another entry.
func TestReopenMatchesGenesisReplay(t *testing.T) {
	const seeds = 200
	var teeth oracleTeeth
	for seed := int64(1); seed <= seeds; seed++ {
		reopenOracleRun(t, seed, &teeth)
	}
	t.Logf("%d histories: %+v", seeds, teeth)
	if teeth.anchored < seeds/2 || teeth.pulledBack < seeds/10 || teeth.anchored-teeth.pulledBack < seeds/10 ||
		teeth.cpAhead < seeds/20 || teeth.orphan < seeds/20 || teeth.collected < seeds/2 || teeth.lost < seeds/4 {
		t.Fatalf("the mix lost its teeth: %+v of %d histories", teeth, seeds)
	}
}
