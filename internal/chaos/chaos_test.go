package chaos

import (
	"errors"
	"net"
	"testing"

	"repro/internal/ftl"
	"repro/internal/nvmeoe"
	"repro/internal/oplog"
	"repro/internal/remote"
	"repro/internal/simclock"
)

// drawTrace replays a fixed opportunity sequence (dials across devices,
// first-touch tier ops) against one injector and records every decision
// the schedule made. Two injectors with the same seed must produce
// identical traces whatever else happened between draws — that is the
// replayability contract every soak failure message leans on.
func drawTrace(inj *Injector) []bool {
	var trace []bool
	for dev := uint64(1); dev <= 8; dev++ {
		for n := 0; n < 40; n++ {
			a, b := net.Pipe()
			wrapped := inj.WrapConn(dev, a)
			_, cut := wrapped.(*remote.ChokeConn)
			mut := false
			if ch, ok := wrapped.(*remote.ChokeConn); ok {
				_, mut = ch.Conn.(*mutConn)
			} else {
				_, mut = wrapped.(*mutConn)
			}
			trace = append(trace, cut, mut)
			a.Close()
			b.Close()
		}
	}
	ms := remote.NewMemStore()
	fs := inj.WrapStore(ms)
	for i := 0; i < 100; i++ {
		key := keyFor(uint64(i%8), uint64(i))
		trace = append(trace, fs.Put(key, []byte("x")) != nil)
		_, err := fs.Get(key)
		trace = append(trace, err != nil)
	}
	for w := uint64(0); w < 60; w++ {
		srv, kill := inj.DrawKill(w, 4)
		trace = append(trace, kill, kill && srv >= 2)
	}
	return trace
}

func keyFor(dev, seq uint64) string {
	return "dev/" + string(rune('0'+dev)) + "/seg/" + string(rune('a'+seq%26)) + string(rune('a'+seq/26))
}

func midRates() Rates {
	return Rates{ConnCut: 0.3, WireMutate: 0.2, TierErr: 0.25, TierSlow: 0.25}
}

func TestScheduleDeterminism(t *testing.T) {
	sched := Schedule{Seed: 42, Rates: midRates(), MTBF: 3}
	t1 := drawTrace(NewInjector(sched))
	t2 := drawTrace(NewInjector(sched))
	if len(t1) != len(t2) {
		t.Fatalf("trace lengths differ: %d vs %d", len(t1), len(t2))
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
	fired := 0
	for _, v := range t1 {
		if v {
			fired++
		}
	}
	if fired == 0 {
		t.Fatal("schedule drew no faults at these rates; determinism test is vacuous")
	}

	t3 := drawTrace(NewInjector(Schedule{Seed: 43, Rates: midRates(), MTBF: 3}))
	same := true
	for i := range t1 {
		if t1[i] != t3[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical fault schedules")
	}
}

func TestLedgerHealAccounting(t *testing.T) {
	inj := NewInjector(Schedule{Seed: 7, Rates: Rates{ConnCut: 1}})

	// Arm a conn fault at sim time 1ms, heal it at 5ms: heal latency is
	// the 4ms of workload time the device spent getting healthy again.
	inj.Observe(1, simclock.Time(simclock.Millisecond), true)
	a, b := net.Pipe()
	inj.WrapConn(1, a)
	a.Close()
	b.Close()
	if p := len(inj.pending[1]) + len(inj.kills); p != 1 {
		t.Fatalf("pending = %d after arming, want 1", p)
	}
	inj.Observe(1, simclock.Time(5*simclock.Millisecond), true)

	// A second fault never observed healthy wedges at Finish.
	a2, b2 := net.Pipe()
	inj.WrapConn(1, a2)
	a2.Close()
	b2.Close()

	// Kills ledger: crash at 10ms, revive at 16ms.
	inj.KillStarted(2, simclock.Time(10*simclock.Millisecond))
	inj.KillHealed(2, simclock.Time(16*simclock.Millisecond))

	inj.Finish()
	led := inj.Ledger()
	conn := led[ClassConn]
	if conn.Injected != 2 || conn.Healed != 1 || conn.Wedged != 1 {
		t.Fatalf("conn ledger = %+v, want 2 injected / 1 healed / 1 wedged", conn)
	}
	if conn.HealP50Ms != 4 {
		t.Fatalf("conn heal p50 = %v ms, want 4", conn.HealP50Ms)
	}
	kill := led[ClassKill]
	if kill.Injected != 1 || kill.Healed != 1 || kill.Wedged != 0 || kill.HealP99Ms != 6 {
		t.Fatalf("kill ledger = %+v, want 1/1/0 with 6ms heal", kill)
	}
	if inj.TotalInjected() != 3 || inj.ActiveClasses() != 2 {
		t.Fatalf("totals = %d injected / %d classes, want 3 / 2", inj.TotalInjected(), inj.ActiveClasses())
	}
}

func TestFaultStoreTransientErrors(t *testing.T) {
	inj := NewInjector(Schedule{Seed: 9, Rates: Rates{TierErr: 1}})
	fs := inj.WrapStore(remote.NewMemStore())

	key := "dev/7/seg/00000000000000000001"
	if err := fs.Put(key, []byte("blob")); !errors.Is(err, ErrInjected) {
		t.Fatalf("first put err = %v, want injected fault", err)
	}
	if err := fs.Put(key, []byte("blob")); err != nil {
		t.Fatalf("retried put failed: %v", err)
	}
	if _, err := fs.Get(key); !errors.Is(err, ErrInjected) {
		t.Fatal("first get of a segment key did not fault")
	}
	if b, err := fs.Get(key); err != nil || string(b) != "blob" {
		t.Fatalf("retried get = %q, %v", b, err)
	}
	// Checkpoint keys are never Get-faulted: they feed restore streams.
	if err := fs.Put("dev/7/cp/1", []byte("cp")); !errors.Is(err, ErrInjected) {
		t.Fatal("checkpoint put should still draw put faults")
	}
	if err := fs.Put("dev/7/cp/1", []byte("cp")); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Get("dev/7/cp/1"); err != nil {
		t.Fatalf("checkpoint get must never fault: %v", err)
	}

	// Both pending tier faults heal on the device's next healthy
	// observation; nothing wedges.
	inj.Observe(7, simclock.Time(simclock.Second), true)
	inj.Finish()
	tier := inj.Ledger()[ClassTier]
	if tier.Injected != 3 || tier.Healed != 3 || tier.Wedged != 0 {
		t.Fatalf("tier ledger = %+v, want 3 injected / 3 healed / 0 wedged", tier)
	}
}

func TestFaultStoreServiceTimeSpike(t *testing.T) {
	inj := NewInjector(Schedule{Seed: 11, Rates: Rates{TierSlow: 1}, TierSpike: 5 * simclock.Millisecond})
	fs := inj.WrapStore(remote.NewMemStore())
	if err := fs.Put("dev/1/seg/00000000000000000000", []byte("x")); err != nil {
		t.Fatalf("slow put must succeed: %v", err)
	}
	if d := fs.PutServiceTime(1); d != 5*simclock.Millisecond {
		t.Fatalf("service time = %v, want the injected 5ms spike", d)
	}
	if d := fs.PutServiceTime(1); d != 0 {
		t.Fatalf("spike did not drain: second service time = %v", d)
	}
	tier := inj.Ledger()[ClassTier]
	if tier.Injected != 1 || tier.Healed != 1 || tier.HealP99Ms != 5 {
		t.Fatalf("tier ledger = %+v, want an immediately-healed 5ms spike", tier)
	}
}

func TestMutConnFlipsOneCiphertextBit(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	c := &mutConn{Conn: a, skip: 1, bit: 0xdecafbad}

	read := func(n int) []byte {
		buf := make([]byte, n)
		done := make(chan []byte)
		go func() {
			got := 0
			for got < n {
				m, err := b.Read(buf[got:])
				if err != nil {
					t.Error(err)
					break
				}
				got += m
			}
			done <- buf
		}()
		return <-done
	}

	hamming := func(x, y []byte) int {
		d := 0
		for i := range x {
			v := x[i] ^ y[i]
			for v != 0 {
				d++
				v &= v - 1
			}
		}
		return d
	}

	hdr := make([]byte, 20) // header-sized writes pass untouched
	go c.Write(hdr)
	if d := hamming(hdr, read(len(hdr))); d != 0 {
		t.Fatalf("header write mutated (%d bits)", d)
	}
	payload := make([]byte, 100)
	for i := range payload {
		payload[i] = byte(i)
	}
	go c.Write(payload) // skip=1: first ciphertext-sized write passes
	if d := hamming(payload, read(len(payload))); d != 0 {
		t.Fatalf("skipped write mutated (%d bits)", d)
	}
	go c.Write(payload) // the strike
	if d := hamming(payload, read(len(payload))); d != 1 {
		t.Fatalf("strike flipped %d bits, want exactly 1", d)
	}
	go c.Write(payload) // done: everything after passes
	if d := hamming(payload, read(len(payload))); d != 0 {
		t.Fatalf("post-strike write mutated (%d bits)", d)
	}
}

func TestInvariantsChainAndDurability(t *testing.T) {
	st := remote.NewStore(remote.NewMemStore())
	l := oplog.New()
	var es []oplog.Entry
	for i := 0; i < 16; i++ {
		es = append(es, l.Append(oplog.KindWrite, simclock.Time(i), uint64(i), ftl.NoPPN, uint64(i+1), 3.0, [oplog.HashSize]byte{}))
	}
	seg := &oplog.Segment{DeviceID: 4, FirstSeq: 0, LastSeq: l.NextSeq(), Entries: es}
	if err := st.AppendSegmentBlob(seg, nvmeoe.EncodeSegmentBlob(seg.Marshal())); err != nil {
		t.Fatal(err)
	}

	iv := &Invariants{}
	if !iv.Chain(st, 4) {
		_, v := iv.Snapshot()
		t.Fatalf("intact chain failed: %v", v)
	}
	if !iv.Durability(st, 4, 16) {
		t.Fatal("durability failed with head == acked")
	}
	if iv.Durability(st, 4, 17) {
		t.Fatal("durability passed with acked past head")
	}
	checks, violations := iv.Snapshot()
	if checks != 4 || len(violations) != 1 {
		t.Fatalf("snapshot = %d checks, %d violations; want 4 and 1", checks, len(violations))
	}
}
