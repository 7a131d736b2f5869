package recovery

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/entropy"
	"repro/internal/forensic"
	"repro/internal/ftl"
	"repro/internal/host"
	"repro/internal/nand"
	"repro/internal/remote"
	"repro/internal/simclock"
)

var psk = []byte("recovery-test-psk-0123456789abcd")

type rig struct {
	fs     *host.FlatFS
	dev    *core.RSSD
	store  *remote.Store
	client *remote.Client
}

// newRig wires a device to an in-process server it also dials its restore
// sessions on.
func newRig(t *testing.T) *rig {
	t.Helper()
	store := remote.NewStore(remote.NewMemStore())
	srv := remote.NewServer(store, psk)
	client, err := remote.Loopback(srv, psk, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	cfg := rigConfig()
	cfg.Dial = func() (*remote.Client, error) { return remote.Loopback(srv, psk, 1) }
	dev := core.New(cfg, client)
	return &rig{fs: host.NewFlatFS(dev, simclock.NewClock()), dev: dev, store: store, client: client}
}

func rigConfig() core.Config {
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
	return cfg
}

// snapshotFiles reads every current file (a pre-attack content snapshot).
func snapshotFiles(t *testing.T, fs *host.FlatFS) map[string][]byte {
	t.Helper()
	snap := map[string][]byte{}
	for _, name := range fs.List() {
		data, err := fs.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		snap[name] = data
	}
	return snap
}

// analyzeAndRestore runs forensics then recovery, returning the report; every
// victim must have been decided exactly once.
func analyzeAndRestore(t *testing.T, r *rig) core.RestoreReport {
	t.Helper()
	a := forensic.NewAnalyzer(r.dev, r.client)
	ev, err := a.Timeline()
	if err != nil {
		t.Fatal(err)
	}
	win, err := a.AttackWindow(ev, r.dev.Log().NextSeq())
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(r.dev, r.client, Options{})
	_, rep, err := eng.RestoreWindow(win, r.fs.Clock().Now())
	if err != nil {
		t.Fatal(err)
	}
	if n := rep.PagesRestored + rep.PagesZeroed + rep.PagesKept; n != len(win.Victims) {
		t.Fatalf("%d of %d victims decided: %v", n, len(win.Victims), rep)
	}
	return rep
}

func TestRecoveryAfterEncryptor(t *testing.T) {
	r := newRig(t)
	rng := rand.New(rand.NewSource(1))
	attack.Seed(r.fs, rng, 20, 3)
	attack.RunBenign(r.fs, rng, 80, simclock.Minute)
	snap := snapshotFiles(t, r.fs)
	if _, err := (&attack.Encryptor{Key: [32]byte{1}}).Run(r.fs, rng); err != nil {
		t.Fatal(err)
	}
	if rep := analyzeAndRestore(t, r); rep.PagesRestored == 0 {
		t.Fatalf("nothing was rolled back: %v", rep)
	}
	for name, want := range snap {
		got, err := r.fs.ReadFile(name)
		if err != nil {
			t.Fatalf("read %s: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s not restored to pre-attack content", name)
		}
	}
}

func TestRecoveryAfterGCAttack(t *testing.T) {
	r := newRig(t)
	rng := rand.New(rand.NewSource(2))
	attack.Seed(r.fs, rng, 15, 3)
	snap := snapshotFiles(t, r.fs)
	if _, err := (&attack.GCAttack{Key: [32]byte{2}, Rounds: 2}).Run(r.fs, rng); err != nil {
		t.Fatal(err)
	}
	// The flood forced garbage collection; on RSSD nothing was lost.
	analyzeAndRestore(t, r)
	for name, want := range snap {
		got, err := r.fs.ReadFile(name)
		if err != nil {
			t.Fatalf("read %s: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s not restored after GC attack", name)
		}
	}
}

func TestRecoveryAfterTrimmingAttack(t *testing.T) {
	r := newRig(t)
	rng := rand.New(rand.NewSource(3))
	attack.Seed(r.fs, rng, 10, 3)
	snap := snapshotFiles(t, r.fs)
	// Capture the physical layout before the attack deletes the files.
	extents := map[string][]uint64{}
	for name := range snap {
		pages, err := r.fs.Extents(name)
		if err != nil {
			t.Fatal(err)
		}
		extents[name] = pages
	}
	if _, err := (&attack.TrimmingAttack{Key: [32]byte{3}}).Run(r.fs, rng); err != nil {
		t.Fatal(err)
	}
	analyzeAndRestore(t, r)
	// The trimmed pages hold their original plaintext again (block-level
	// restore; re-attaching filesystem names is the filesystem's job).
	ps := r.dev.PageSize()
	for name, want := range snap {
		for i, lpn := range extents[name] {
			got, _, err := r.dev.Read(lpn, r.fs.Clock().Now())
			if err != nil {
				t.Fatalf("read lpn %d: %v", lpn, err)
			}
			expect := make([]byte, ps)
			if off := i * ps; off < len(want) {
				copy(expect, want[off:])
			}
			if !bytes.Equal(got, expect) {
				t.Fatalf("%s page %d not restored", name, i)
			}
		}
	}
}

func TestRecoveryAfterTimingAttack(t *testing.T) {
	r := newRig(t)
	rng := rand.New(rand.NewSource(4))
	attack.Seed(r.fs, rng, 15, 3)
	snap := snapshotFiles(t, r.fs)
	atk := &attack.TimingAttack{
		Key: [32]byte{4}, FilesPerBurst: 2,
		BurstInterval: 12 * simclock.Hour, CoverOpsPerOp: 3,
	}
	if _, err := atk.Run(r.fs, rng); err != nil {
		t.Fatal(err)
	}
	if rep := analyzeAndRestore(t, r); rep.PagesRestored == 0 {
		t.Fatalf("nothing restored: %+v", rep)
	}
	// Seeded victim files roll back to their pre-window content.
	for name, want := range snap {
		got, err := r.fs.ReadFile(name)
		if err != nil {
			t.Fatalf("read %s: %v", name, err)
		}
		if entropy.IsHigh(entropy.Shannon(got)) {
			t.Fatalf("%s still ciphertext after recovery", name)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s differs from pre-attack snapshot", name)
		}
	}
}

func TestRecoveryZeroesNeverWrittenVictims(t *testing.T) {
	r := newRig(t)
	at := simclock.Time(0)
	// Attacker writes ciphertext straight to a fresh page.
	junk := make([]byte, 512)
	rand.New(rand.NewSource(5)).Read(junk)
	at, _ = r.dev.Write(40, junk, at)
	win := forensic.Window{StartSeq: 0, EndSeq: 1, Victims: []uint64{40}}
	eng := NewEngine(r.dev, r.client, Options{})
	_, rep, err := eng.RestoreWindow(win, at)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PagesZeroed != 1 || rep.PagesRestored != 0 {
		t.Fatalf("report = %+v", rep)
	}
	data, _, _ := r.dev.Read(40, at)
	if !bytes.Equal(data, make([]byte, 512)) {
		t.Fatal("victim not zeroed")
	}
}

func TestRecoveryIsLoggedAsRecovery(t *testing.T) {
	r := newRig(t)
	rng := rand.New(rand.NewSource(6))
	attack.Seed(r.fs, rng, 5, 2)
	(&attack.Encryptor{Key: [32]byte{1}}).Run(r.fs, rng)
	analyzeAndRestore(t, r)
	a := forensic.NewAnalyzer(r.dev, r.client)
	ev, err := a.Timeline()
	if err != nil {
		t.Fatal(err)
	}
	var recoveries int
	for _, e := range ev.Entries {
		if e.Kind.String() == "recovery" {
			recoveries++
		}
	}
	if recoveries == 0 {
		t.Fatal("recovery actions not in evidence chain")
	}
}

// TestVerifyFailsClosedWhenEntryUnavailable: a device with no remote to dial
// has no image stream to check a victim against. Its window restore fails
// with ErrNoDial and writes nothing back, not even from its own pins.
func TestVerifyFailsClosedWhenEntryUnavailable(t *testing.T) {
	dev := core.New(rigConfig(), nil)
	plain, junk := make([]byte, 512), make([]byte, 512)
	rand.New(rand.NewSource(7)).Read(junk)
	at, err := dev.Write(40, plain, 0)
	if err == nil {
		at, err = dev.Write(40, junk, at)
	}
	if err != nil {
		t.Fatal(err)
	}
	dev.Log().Prune(dev.Log().NextSeq())
	logged := dev.Log().NextSeq()
	win := forensic.Window{StartSeq: 1, EndSeq: 2, Victims: []uint64{40}}
	_, rep, err := NewEngine(dev, nil, Options{}).RestoreWindow(win, at)
	if !errors.Is(err, core.ErrNoDial) || rep.PagesRestored+rep.PagesZeroed != 0 {
		t.Fatalf("window restore without a remote: err=%v, report %+v", err, rep)
	}
	if dev.Log().NextSeq() != logged {
		t.Fatal("a restore without a remote logged a recovery")
	}
	if got, _, _ := dev.Read(40, at); !bytes.Equal(got, junk) {
		t.Fatal("a restore without a remote wrote to the device")
	}
}

// TestOffloadFailureDoesNotFailHostIO: killing the remote session of a device
// that cannot redial must not fail writes; retention accumulates and the
// error is surfaced out of band.
func TestOffloadFailureDoesNotFailHostIO(t *testing.T) {
	client, err := remote.Loopback(remote.NewServer(remote.NewStore(remote.NewMemStore()), psk), psk, 1)
	if err != nil {
		t.Fatal(err)
	}
	dev := core.New(rigConfig(), client)
	at := simclock.Time(0)
	page := make([]byte, 512)
	// Sever the NVMe-oE session.
	client.Close()
	for i := 0; i < 800; i++ {
		at, err = dev.Write(uint64(i)%8, page, at)
		if err != nil {
			t.Fatalf("write %d failed after remote loss: %v", i, err)
		}
	}
	if dev.Stats().OffloadErrors == 0 {
		t.Fatal("offload errors not counted")
	}
	if dev.LastOffloadError() == nil {
		t.Fatal("last offload error not surfaced")
	}
}
