package core

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync/atomic"
	"testing"

	"repro/internal/nvmeoe"
	"repro/internal/oplog"
	"repro/internal/remote"
	"repro/internal/simclock"
)

// --- Which checkpoint Reopen anchors on, and which it refuses ---------------

// anchoredScenario is a drained history with one checkpoint inside the chain
// and a committed tail after it. It returns the env, the checkpoint's
// sequence and the live table at the power cut.
func anchoredScenario(t *testing.T, seed int64) (*env, uint64, []uint64) {
	t.Helper()
	e := newEnv(t, testConfig())
	_, at := driveTraffic(t, e, 120, seed)
	at, err := e.r.OffloadNow(at)
	if err != nil {
		t.Fatal(err)
	}
	cpSeq := e.r.Log().NextSeq()
	if at, err = e.r.CheckpointNow(at); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if at, err = e.r.Write(uint64(i%7), fill(byte(0xC0+i), 512), at); err != nil {
			t.Fatal(err)
		}
	}
	if _, err = e.r.OffloadNow(at); err != nil {
		t.Fatal(err)
	}
	return e, cpSeq, append([]uint64(nil), e.r.lpnWriteSeq...)
}

// reopenErr power-cycles e and returns what Reopen made of it.
func reopenErr(t *testing.T, e *env) (*RSSD, error) {
	t.Helper()
	client, err := remote.Loopback(remote.NewServer(e.store, testPSK), testPSK, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return Reopen(e.r.cfg, e.r.FTL().Device(), client)
}

// TestReopenIgnoresCheckpointAheadOfHead: a checkpoint is pushed the moment
// it is taken, its log entry only with the next segment. One whose entry
// died in RAM is not inside the chain — nothing binds its table — and is
// never chosen: the older one anchors the replay. Here the orphan's table is
// one no device could have, so a Reopen that so much as looked at it fails.
func TestReopenIgnoresCheckpointAheadOfHead(t *testing.T) {
	e, _, live := anchoredScenario(t, 31)
	head := e.store.Head(1).NextSeq
	for _, seq := range []uint64{head, head + 9} {
		if err := e.store.AppendCheckpoint(1, nvmeoe.Checkpoint{Seq: seq, WriteSeqs: []uint64{1, 2, 3}}); err != nil {
			t.Fatal(err)
		}
	}
	r2, err := reopenErr(t, e)
	if err != nil {
		t.Fatalf("reopen with an orphan checkpoint ahead of the head: %v", err)
	}
	defer r2.Close()
	for lpn, want := range live {
		if got := r2.writeSeqOf(uint64(lpn)); got != want {
			t.Fatalf("lpn %d live write %d, want %d", lpn, got, want)
		}
	}
}

// TestReopenRefusesCheckpointOffTheChain: the stored table was altered at
// rest — one sequence flipped in the object tier, the index rebuilt from it.
// It no longer hashes to what the chain's KindCheckpoint entry recorded, and
// Reopen adopts nothing rather than a mapping nobody vouches for.
func TestReopenRefusesCheckpointOffTheChain(t *testing.T) {
	e, cpSeq, _ := anchoredScenario(t, 32)
	key := fmt.Sprintf("dev/%d/cp/%020d", 1, cpSeq)
	blob, err := e.tier.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	blob = append([]byte(nil), blob...)
	const lpn = 3 // any table slot: 16 bytes of header, 8 per LPN
	flipped := binary.LittleEndian.Uint64(blob[16+8*lpn:]) ^ 1
	binary.LittleEndian.PutUint64(blob[16+8*lpn:], flipped)
	if err := e.tier.Put(key, blob); err != nil {
		t.Fatal(err)
	}
	if err := e.store.Reload(); err != nil {
		t.Fatal(err)
	}
	if cp, ok := e.store.Checkpoint(1, cpSeq); !ok || cp.Seq != cpSeq || cp.WriteSeqs[lpn] != flipped {
		t.Fatal("altered checkpoint not served: the test vehicle lost its teeth")
	}
	if r2, err := reopenErr(t, e); err == nil || r2 != nil {
		t.Fatalf("reopen adopted a checkpoint table the chain does not record (err = %v)", err)
	}
}

// TestReopenRefusesCheckpointOfWrongLength: a table that is not one entry per
// logical page is not this device's, whatever it hashes to.
func TestReopenRefusesCheckpointOfWrongLength(t *testing.T) {
	for _, n := range []int{0, 47, 49} {
		e, cpSeq, _ := anchoredScenario(t, 33)
		if int(e.r.LogicalPages()) == n {
			t.Fatal("the test device grew: pick other wrong lengths")
		}
		// In the place of the table the chain's KindCheckpoint entry records.
		if err := e.store.AppendCheckpoint(1, nvmeoe.Checkpoint{Seq: cpSeq, WriteSeqs: make([]uint64, n)}); err != nil {
			t.Fatal(err)
		}
		if r2, err := reopenErr(t, e); err == nil || r2 != nil {
			t.Fatalf("reopen adopted a checkpoint of %d entries on a %d-page device (err = %v)", n, e.r.LogicalPages(), err)
		}
	}
}

// TestReopenStepsPastOrphanCheckpoint is the second power cycle after an
// unclean cut. The first cut left a checkpoint at the server whose log entry
// died in RAM; the first Reopen resumed the log at the head, so that sequence
// went to an ordinary entry, and the chain has since grown past it with no
// newer checkpoint shipped. The orphan is now the newest table below the head
// and bound by nothing: Reopen steps past it to the one the chain records (or
// to genesis), cycle after cycle.
func TestReopenStepsPastOrphanCheckpoint(t *testing.T) {
	for _, older := range []bool{true, false} {
		e := newEnv(t, testConfig())
		_, at := driveTraffic(t, e, 60, 41)
		at, err := e.r.OffloadNow(at)
		if err != nil {
			t.Fatal(err)
		}
		if older { // a checkpoint inside the chain for the search to land on
			if at, err = e.r.CheckpointNow(at); err != nil {
				t.Fatal(err)
			}
			if at, err = e.r.OffloadNow(at); err != nil {
				t.Fatal(err)
			}
		}
		// Five entries and a checkpoint the device never gets to ship: the
		// table goes out at once, its entry waits for a segment that is lost.
		const k = 5
		for i := 0; i < k; i++ {
			if at, err = e.r.Write(uint64(i), fill(byte(0xA0+i), 512), at); err != nil {
				t.Fatal(err)
			}
		}
		if at, err = e.r.CheckpointNow(at); err != nil {
			t.Fatal(err)
		}
		head := e.store.Head(1).NextSeq
		orphan, ok := e.store.Checkpoint(1, NoSeq)
		if !ok || orphan.Seq != head+k {
			t.Fatalf("orphan checkpoint at %d (found %v), want %d: the test vehicle lost its teeth", orphan.Seq, ok, head+k)
		}

		for cycle := 1; cycle <= 3; cycle++ {
			r2, err := reopenErr(t, e)
			if err != nil {
				t.Fatalf("older=%v power cycle %d: %v", older, cycle, err)
			}
			e.r.Close()
			e.r = r2
			// Past the orphan's sequence, drained, and no checkpoint taken.
			for i := 0; i < 2*k; i++ {
				if at, err = e.r.Write(uint64(i%7), fill(byte(cycle*16+i), 512), at); err != nil {
					t.Fatal(err)
				}
			}
			if at, err = e.r.OffloadNow(at); err != nil {
				t.Fatal(err)
			}
			if got := e.store.Entries(1, orphan.Seq, orphan.Seq+1); len(got) != 1 || got[0].Kind == oplog.KindCheckpoint {
				t.Fatalf("entry at the orphan's sequence: %+v", got)
			}
			ref := replayFromGenesis(e.store, 1)
			for lpn := uint64(0); lpn < e.r.LogicalPages(); lpn++ {
				want, mapped := ref.live[lpn]
				if !mapped {
					want = NoSeq
				}
				if got := e.r.writeSeqOf(lpn); got != want {
					t.Fatalf("older=%v cycle %d: lpn %d live write %d, genesis replay says %d", older, cycle, lpn, got, want)
				}
			}
		}
		e.r.Close()
	}
}

// --- Reopen's fetch against the length of the history -----------------------

// countingConn counts the bytes its reader takes off the wire.
type countingConn struct {
	net.Conn
	read *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.read.Add(int64(n))
	return n, err
}

// reopenCounted power-cycles e over a byte-counting session and returns the
// adopted device with the bytes Reopen read and the length of the chain.
func reopenCounted(tb testing.TB, e *env) (r2 *RSSD, wireBytes int64, head uint64) {
	tb.Helper()
	dc, sc := net.Pipe()
	go remote.NewServer(e.store, testPSK).HandleConn(sc)
	var read atomic.Int64
	client, err := remote.Dial(countingConn{dc, &read}, testPSK, 1)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { client.Close() })
	handshake := read.Load()
	if r2, err = Reopen(e.r.cfg, e.r.FTL().Device(), client); err != nil {
		tb.Fatal(err)
	}
	return r2, read.Load() - handshake, e.store.Head(1).NextSeq
}

// historyThenTail builds a device whose log before its one checkpoint is
// `history` entries long — logged reads, so the set of versions the server
// holds (and its listing) does not depend on it — drained clean, followed by
// a fixed tail of writes and trims after the checkpoint.
func historyThenTail(tb testing.TB, history int) *env {
	tb.Helper()
	e := newEnv(tb, testConfig())
	tb.Cleanup(e.r.Close)
	at := simclock.Time(0)
	var err error
	check := func(err error) {
		tb.Helper()
		if err != nil {
			tb.Fatal(err)
		}
	}
	const lpns = 10
	for i := 0; i < 2*lpns; i++ {
		at, err = e.r.Write(uint64(i%lpns), fill(byte(i+1), 512), at)
		check(err)
	}
	for i := e.r.Log().NextSeq(); i < uint64(history); i++ {
		_, at, err = e.r.Read(i%lpns, at)
		check(err)
	}
	at, err = e.r.OffloadNow(at)
	check(err)
	at, err = e.r.CheckpointNow(at)
	check(err)
	for i := 0; i < 40; i++ {
		if i%9 == 8 {
			at, err = e.r.Trim(uint64(i%lpns), at)
		} else {
			at, err = e.r.Write(uint64(i%lpns), fill(byte(0x80+i), 512), at)
		}
		check(err)
	}
	_, err = e.r.OffloadNow(at)
	check(err)
	return e
}

// TestReopenFetchDoesNotGrowWithHistory is ROADMAP item 2's done-when for
// Reopen: the same tail after the checkpoint costs the same bytes on the wire
// after eight times as much log before it.
func TestReopenFetchDoesNotGrowWithHistory(t *testing.T) {
	const base = 500
	var wire [2]int64
	for i, history := range []int{base, 8 * base} {
		r2, n, head := reopenCounted(t, historyThenTail(t, history))
		r2.Close()
		if head < uint64(history) {
			t.Fatalf("chain of %d entries, want at least the %d before the checkpoint", head, history)
		}
		wire[i] = n
	}
	t.Logf("Reopen read %d bytes after %d entries of history, %d after %d", wire[0], base, wire[1], 8*base)
	if diff := wire[1] - wire[0]; diff > wire[0]/20 || -diff > wire[0]/20 {
		t.Fatalf("Reopen read %d bytes after %d entries of pre-checkpoint history and %d after %d: the fetch grows with the log", wire[0], base, wire[1], 8*base)
	}
}

// BenchmarkReopen times power-on adoption against the length of the log
// before the last checkpoint (the tail after it is fixed), and reports what
// Reopen read off the wire next to the length of the chain it did not.
func BenchmarkReopen(b *testing.B) {
	for _, history := range []int{1 << 10, 1 << 13, 1 << 16} {
		b.Run(fmt.Sprintf("history=%d", history), func(b *testing.B) {
			e := historyThenTail(b, history)
			var wire int64
			var head uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r2, n, h := reopenCounted(b, e)
				r2.Close()
				wire, head = wire+n, h
			}
			b.ReportMetric(float64(wire)/float64(b.N), "wire-B/op")
			b.ReportMetric(float64(head), "chain-entries")
		})
	}
}
