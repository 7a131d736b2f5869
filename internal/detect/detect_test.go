package detect

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/ftl"
	"repro/internal/host"
	"repro/internal/nand"
	"repro/internal/oplog"
	"repro/internal/remote"
	"repro/internal/simclock"
)

var psk = []byte("detect-test-psk-0123456789abcdef")

// rig is a full device + remote + detection setup.
type rig struct {
	fs     *host.FlatFS
	dev    *core.RSSD
	store  *remote.Store
	engine *Engine
}

func newRig(t *testing.T, detCfg Config) *rig {
	t.Helper()
	store := remote.NewStore(remote.NewMemStore())
	engine := NewEngine(detCfg)
	engine.Attach(store)
	srv := remote.NewServer(store, psk)
	client, err := remote.Loopback(srv, psk, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	cfg := core.DefaultConfig()
	cfg.FTL = ftl.Config{
		NAND: nand.Config{
			Geometry: nand.Geometry{
				Channels: 2, ChipsPerChannel: 2, DiesPerChip: 1, PlanesPerDie: 1,
				BlocksPerPlane: 64, PagesPerBlock: 8, PageSize: 512,
			},
			Timing: nand.DefaultTiming(),
		},
		OverProvision: 0.2,
	}
	dev := core.New(cfg, client)
	return &rig{
		fs:     host.NewFlatFS(dev, simclock.NewClock()),
		dev:    dev,
		store:  store,
		engine: engine,
	}
}

func (r *rig) flush(t *testing.T) {
	t.Helper()
	if _, err := r.dev.OffloadNow(r.fs.Clock().Now()); err != nil {
		t.Fatal(err)
	}
}

func TestBenignTrafficRaisesNoAlert(t *testing.T) {
	r := newRig(t, DefaultConfig())
	rng := rand.New(rand.NewSource(1))
	if _, _, err := attack.Seed(r.fs, rng, 30, 4); err != nil {
		t.Fatal(err)
	}
	if err := attack.RunBenign(r.fs, rng, 500, simclock.Minute); err != nil {
		t.Fatal(err)
	}
	r.flush(t)
	if alerts := r.engine.Alerts(); len(alerts) != 0 {
		t.Fatalf("false positives on benign traffic: %v", alerts)
	}
}

func TestEncryptorDetected(t *testing.T) {
	r := newRig(t, DefaultConfig())
	rng := rand.New(rand.NewSource(2))
	attack.Seed(r.fs, rng, 30, 4)
	attack.RunBenign(r.fs, rng, 100, simclock.Minute)
	r.flush(t)
	if len(r.engine.Alerts()) != 0 {
		t.Fatal("alert before attack")
	}
	attackStartSeq := r.dev.Log().NextSeq()
	if _, err := (&attack.Encryptor{Key: [32]byte{1}}).Run(r.fs, rng); err != nil {
		t.Fatal(err)
	}
	r.flush(t)
	alerts := r.engine.Alerts()
	if len(alerts) != 1 {
		t.Fatalf("alerts = %v", alerts)
	}
	if alerts[0].AtSeq < attackStartSeq {
		t.Fatalf("alert at seq %d, attack started at %d", alerts[0].AtSeq, attackStartSeq)
	}
}

func TestGCAttackDetected(t *testing.T) {
	r := newRig(t, DefaultConfig())
	rng := rand.New(rand.NewSource(3))
	attack.Seed(r.fs, rng, 30, 4)
	if _, err := (&attack.GCAttack{Key: [32]byte{2}, Rounds: 1}).Run(r.fs, rng); err != nil {
		t.Fatal(err)
	}
	r.flush(t)
	if len(r.engine.Alerts()) == 0 {
		t.Fatal("GC attack not detected")
	}
}

func TestTrimmingAttackDetected(t *testing.T) {
	r := newRig(t, DefaultConfig())
	rng := rand.New(rand.NewSource(4))
	attack.Seed(r.fs, rng, 30, 4)
	attack.RunBenign(r.fs, rng, 50, simclock.Minute)
	if _, err := (&attack.TrimmingAttack{Key: [32]byte{3}}).Run(r.fs, rng); err != nil {
		t.Fatal(err)
	}
	r.flush(t)
	alerts := r.engine.Alerts()
	if len(alerts) == 0 {
		t.Fatal("trimming attack not detected")
	}
}

// TestTimingAttackDetectedCumulatively: the window score never spikes, but
// the rate-independent victim counter catches the attack anyway.
func TestTimingAttackDetectedCumulatively(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CumulativeVictims = 40
	r := newRig(t, cfg)
	rng := rand.New(rand.NewSource(5))
	attack.Seed(r.fs, rng, 30, 4)
	atk := &attack.TimingAttack{
		Key: [32]byte{4}, FilesPerBurst: 1,
		BurstInterval: 8 * simclock.Hour, CoverOpsPerOp: 8,
	}
	if _, err := atk.Run(r.fs, rng); err != nil {
		t.Fatal(err)
	}
	r.flush(t)
	alerts := r.engine.Alerts()
	if len(alerts) == 0 {
		t.Fatal("timing attack evaded cumulative detection")
	}
	if !strings.Contains(alerts[0].Reasons[0], "cumulative") {
		t.Fatalf("expected cumulative reason, got %v", alerts[0].Reasons)
	}
}

func TestAlertLatchAndReset(t *testing.T) {
	r := newRig(t, DefaultConfig())
	rng := rand.New(rand.NewSource(6))
	attack.Seed(r.fs, rng, 30, 4)
	(&attack.Encryptor{Key: [32]byte{1}}).Run(r.fs, rng)
	r.flush(t)
	if got := len(r.engine.Alerts()); got != 1 {
		t.Fatalf("alerts = %d, want exactly 1 (latched)", got)
	}
	r.engine.Reset(1)
	// More malicious traffic after reset can alert again.
	(&attack.Encryptor{Key: [32]byte{9}}).Run(r.fs, rng)
	r.flush(t)
	if got := len(r.engine.Alerts()); got != 2 {
		t.Fatalf("alerts after reset = %d, want 2", got)
	}
}

func TestOnAlertCallback(t *testing.T) {
	r := newRig(t, DefaultConfig())
	var got []Alert
	r.engine.OnAlert = func(a Alert) { got = append(got, a) }
	rng := rand.New(rand.NewSource(7))
	attack.Seed(r.fs, rng, 30, 4)
	(&attack.Encryptor{Key: [32]byte{1}}).Run(r.fs, rng)
	r.flush(t)
	if len(got) != 1 {
		t.Fatalf("callback fired %d times", len(got))
	}
}

// --- unit tests on synthetic entry streams -------------------------------

// synth builds a log with the given per-entry spec string:
// 'r' read of lpn i%8, 'w' low-entropy write, 'W' high-entropy overwrite of
// a recently read page, 'T' trim of a recently read page.
func synth(spec string) []oplog.Entry {
	l := oplog.New()
	for i, c := range spec {
		lpn := uint64(i % 8)
		switch c {
		case 'r':
			l.Append(oplog.KindRead, simclock.Time(i), lpn, 1, ftl.NoPPN, 0, [32]byte{})
		case 'w':
			l.Append(oplog.KindWrite, simclock.Time(i), lpn, 1, ftl.NoPPN, 3.0, [32]byte{})
		case 'W':
			l.Append(oplog.KindWrite, simclock.Time(i), lpn, 1, ftl.NoPPN, 7.9, [32]byte{})
		case 'T':
			l.Append(oplog.KindTrim, simclock.Time(i), lpn, 1, ftl.NoPPN, 0, [32]byte{})
		}
	}
	return l.Entries(0, l.NextSeq())
}

func TestWindowScoringUnit(t *testing.T) {
	cfg := Config{CumulativeVictims: 1000}
	e := NewEngine(cfg)
	// Pure benign: low-entropy writes only.
	e.Observe(1, synth("rwrwrwrwrwrwrwrwrwrw"))
	if len(e.Alerts()) != 0 {
		t.Fatal("benign synthetic stream alerted")
	}
	// Ransomware pattern: read every page then encrypt it. Each encrypting
	// overwrite is two events (high entropy, read-then-encrypt); the fourth
	// makes eight, at a score of (0.4+0.8)*4/12.
	e2 := NewEngine(cfg)
	e2.Observe(2, synth("rrrrrrrrWWWWWWWWWWWWWWWW"))
	alerts := e2.Alerts()
	if len(alerts) != 1 {
		t.Fatalf("alerts = %v", alerts)
	}
	if alerts[0].AtSeq != 11 || math.Abs(alerts[0].Score-0.4) > 1e-9 {
		t.Fatalf("alert at seq %d, score %v; want seq 11, score 0.4", alerts[0].AtSeq, alerts[0].Score)
	}
}

// TestTrimSignalUnit: four encrypting overwrites after eight reads score
// 4.8/14, just under the threshold; two read-then-trims before them add 0.4
// and cross it, where two benign overwrites in their place do not.
func TestTrimSignalUnit(t *testing.T) {
	cfg := Config{CumulativeVictims: 1000}
	e := NewEngine(cfg)
	e.Observe(1, synth("rrrrrrrrTTWWWW"))
	if len(e.Alerts()) != 1 {
		t.Fatal("trim burst not detected")
	}
	control := NewEngine(cfg)
	control.Observe(1, synth("rrrrrrrrwwWWWW"))
	if len(control.Alerts()) != 0 {
		t.Fatal("alerted without the trims")
	}
}

// TestMinEventsSuppressesSmallSamples: seven unpaired high-entropy
// overwrites score 0.4, over the threshold, but are fewer events than a
// window needs; the eighth alerts.
func TestMinEventsSuppressesSmallSamples(t *testing.T) {
	e := NewEngine(Config{CumulativeVictims: 1000})
	e.Observe(1, synth("WWWWWWW"))
	if len(e.Alerts()) != 0 {
		t.Fatal("alerted on a 7-event sample")
	}
	e.Observe(1, synth("W"))
	if len(e.Alerts()) != 1 {
		t.Fatal("no alert at 8 events")
	}
}

// TestReadHorizonExpiry: eight pages read, then gap low-entropy writes of
// another page, then the eight encrypted. Each overwrite pairs with its read
// only while the distance stays within oplog.ReadHorizon: at exactly the
// horizon the eight victims reach the cumulative threshold, one entry
// further none count.
func TestReadHorizonExpiry(t *testing.T) {
	trace := func(gap int) []oplog.Entry {
		l := oplog.New()
		for lpn := uint64(0); lpn < 8; lpn++ {
			l.Append(oplog.KindRead, 0, lpn, ftl.NoPPN, 1, 0, [32]byte{})
		}
		for i := 0; i < gap; i++ {
			l.Append(oplog.KindWrite, 0, 100, 1, 2, 3.0, [32]byte{})
		}
		for lpn := uint64(0); lpn < 8; lpn++ {
			l.Append(oplog.KindWrite, 0, lpn, 1, 2, 7.9, [32]byte{})
		}
		return l.Entries(0, l.NextSeq())
	}
	cfg := Config{CumulativeVictims: 8}
	within := NewEngine(cfg)
	within.Observe(1, trace(oplog.ReadHorizon-8))
	if len(within.Alerts()) != 1 {
		t.Fatal("reads at the horizon did not pair with their overwrites")
	}
	stale := NewEngine(cfg)
	stale.Observe(1, trace(oplog.ReadHorizon-7))
	if len(stale.Alerts()) != 0 {
		t.Fatal("stale read paired with overwrite")
	}
}

// --- failover handoff ----------------------------------------------------

// handoffTrace builds the cumulative-encryptor shape across n distinct
// pages: read them all, then write each again with high-entropy data to a
// fresh page (ciphertext beside the plaintext, not over it). Only an engine
// that saw the reads counts the writes as victims or as window events.
func handoffTrace(n int) []oplog.Entry {
	l := oplog.New()
	for i := 0; i < n; i++ {
		l.Append(oplog.KindRead, simclock.Time(i), uint64(i), ftl.NoPPN, 1, 0, [32]byte{})
	}
	for i := 0; i < n; i++ {
		l.Append(oplog.KindWrite, simclock.Time(n+i), uint64(i), ftl.NoPPN, 2, 7.9, [32]byte{})
	}
	return l.Entries(0, l.NextSeq())
}

// TestHandoffPreservesDetectionContinuity is the failover-continuity
// contract: a device moved between per-server engines mid-stream must keep
// its recent-read horizon and cumulative victim set, so an attack split
// across the move still alerts — and an engine that starts cold on the
// same tail provably would not. The window stays under its threshold
// throughout: 12 paired writes after 16 reads score 9.6/28.
func TestHandoffPreservesDetectionContinuity(t *testing.T) {
	cfg := Config{CumulativeVictims: 12}
	trace := handoffTrace(16)
	reads, cut := 16, 16+6 // move after 6 of 16 encrypting overwrites

	// Control: an engine that only ever sees the post-move tail has no
	// read horizon, pairs nothing, and stays silent.
	cold := NewEngine(cfg)
	cold.Observe(7, trace[cut:])
	if got := cold.Alerts(); len(got) != 0 {
		t.Fatalf("cold engine alerted on the tail alone: %v", got)
	}

	src, dst := NewEngine(cfg), NewEngine(cfg)
	src.Observe(7, trace[:cut])
	if len(src.Alerts()) != 0 {
		t.Fatalf("alert before the victim threshold (%d victims)", cut-reads)
	}
	src.Handoff(7, dst)
	dst.Observe(7, trace[cut:])
	alerts := dst.Alerts()
	if len(alerts) != 1 {
		t.Fatalf("handed-off device did not alert at the new engine: %v", alerts)
	}
	if !strings.Contains(alerts[0].Reasons[0], "cumulative") {
		t.Fatalf("expected the carried victim set to fire, got %v", alerts[0].Reasons)
	}
	if len(src.Alerts()) != 0 {
		t.Fatal("source engine alerted after handing the device away")
	}
}

// TestHandoffCarriesAlertLatch: an already-alerted device stays latched at
// its new engine — failover must not duplicate alerts.
func TestHandoffCarriesAlertLatch(t *testing.T) {
	cfg := Config{CumulativeVictims: 8}
	trace := handoffTrace(16)
	src, dst := NewEngine(cfg), NewEngine(cfg)
	src.Observe(9, trace)
	if len(src.Alerts()) != 1 {
		t.Fatalf("alerts = %v", src.Alerts())
	}
	src.Handoff(9, dst)
	dst.Observe(9, handoffTrace(16)) // the attack continues after the move
	if got := dst.Alerts(); len(got) != 0 {
		t.Fatalf("latched device re-alerted after handoff: %v", got)
	}
	// A device the source never saw is a no-op handoff.
	src.Handoff(424242, dst)
}
