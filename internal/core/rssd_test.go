package core

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/ftl"
	"repro/internal/nand"
	"repro/internal/oplog"
	"repro/internal/remote"
	"repro/internal/simclock"
)

var testPSK = []byte("rssd-core-test-psk-0123456789abc")

// smallFTLConfig: 16 blocks x 4 pages x 512B, 25% OP -> 48 logical pages,
// 16-page retention budget.
func smallFTLConfig() ftl.Config {
	return ftl.Config{
		NAND: nand.Config{
			Geometry: nand.Geometry{
				Channels: 2, ChipsPerChannel: 1, DiesPerChip: 1, PlanesPerDie: 1,
				BlocksPerPlane: 8, PagesPerBlock: 4, PageSize: 512,
			},
			Timing: nand.DefaultTiming(),
		},
		OverProvision: 0.25,
		GCLowWater:    2,
		GCHighWater:   3,
	}
}

func testConfig() Config {
	return Config{
		FTL:              smallFTLConfig(),
		DeviceID:         1,
		OffloadHighWater: 0.70,
		OffloadLowWater:  0.40,
		SegmentMaxPages:  8,
		CheckpointEvery:  0,
		DropWhenOffline:  true,
	}
}

// env bundles an RSSD wired to an in-process remote server.
type env struct {
	r     *RSSD
	store *remote.Store
	tier  remote.ObjectStore // the object tier under store
}

func newEnv(t testing.TB, cfg Config) *env {
	t.Helper()
	tier := remote.NewMemStore()
	store := remote.NewStore(tier)
	srv := remote.NewServer(store, testPSK)
	client, err := remote.Loopback(srv, testPSK, cfg.DeviceID)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return &env{r: New(cfg, client), store: store, tier: tier}
}

func fill(b byte, n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = b
	}
	return p
}

func TestWriteReadTrimRoundTrip(t *testing.T) {
	e := newEnv(t, testConfig())
	at := simclock.Time(0)
	at, err := e.r.Write(3, fill(7, 512), at)
	if err != nil {
		t.Fatal(err)
	}
	data, at, err := e.r.Read(3, at)
	if err != nil || data[0] != 7 {
		t.Fatalf("read = %v, %v", data[0], err)
	}
	if _, err := e.r.Trim(3, at); err != nil {
		t.Fatal(err)
	}
	data, _, err = e.r.Read(3, at)
	if err != nil || !bytes.Equal(data, make([]byte, 512)) {
		t.Fatal("trimmed page not zeroed")
	}
}

func TestInputValidation(t *testing.T) {
	e := newEnv(t, testConfig())
	if _, err := e.r.Write(1<<40, fill(0, 512), 0); !errors.Is(err, ftl.ErrOutOfRange) {
		t.Fatalf("err = %v", err)
	}
	if _, err := e.r.Write(0, fill(0, 5), 0); !errors.Is(err, ftl.ErrBadPageSize) {
		t.Fatalf("err = %v", err)
	}
	if _, err := e.r.Trim(1<<40, 0); !errors.Is(err, ftl.ErrOutOfRange) {
		t.Fatalf("err = %v", err)
	}
	if _, _, err := e.r.VersionBefore(1<<40, 1, 0); !errors.Is(err, ftl.ErrOutOfRange) {
		t.Fatalf("err = %v", err)
	}
}

func TestEveryOperationIsLogged(t *testing.T) {
	e := newEnv(t, testConfig())
	at := simclock.Time(0)
	at, _ = e.r.Write(0, fill(1, 512), at)
	at, _ = e.r.Write(0, fill(2, 512), at)
	_, at, _ = e.r.Read(0, at)
	e.r.Trim(0, at)
	entries := heldEntries(e.r.Log())
	kinds := []oplog.Kind{}
	for _, en := range entries {
		kinds = append(kinds, en.Kind)
	}
	want := []oplog.Kind{oplog.KindWrite, oplog.KindWrite, oplog.KindRead, oplog.KindTrim}
	if len(kinds) != len(want) {
		t.Fatalf("logged %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("entry %d kind = %v, want %v", i, kinds[i], want[i])
		}
	}
	if err := oplog.VerifyChain(entries, [32]byte{}); err != nil {
		t.Fatal(err)
	}
	// The second write's entry records the overwrite linkage.
	if entries[1].OldPPN == ftl.NoPPN {
		t.Fatal("overwrite entry lost old PPN")
	}
}

func TestOverwriteRetainsOldVersion(t *testing.T) {
	e := newEnv(t, testConfig())
	at := simclock.Time(0)
	at, _ = e.r.Write(5, fill(0xAA, 512), at)
	at, _ = e.r.Write(5, fill(0xBB, 512), at)
	vs := e.r.retainedVersions(5)
	if len(vs) != 1 {
		t.Fatalf("retained versions = %d, want 1", len(vs))
	}
	if vs[0].WriteSeq != 0 || vs[0].Cause != ftl.CauseOverwrite {
		t.Fatalf("version = %+v", vs[0])
	}
	// The old content is readable as the pre-overwrite version.
	data, ws, err := e.r.VersionBefore(5, 1, at)
	if err != nil || ws != 0 || data[0] != 0xAA {
		t.Fatalf("version before overwrite: %v write %d %v", data[0], ws, err)
	}
}

func TestEnhancedTrimRetainsData(t *testing.T) {
	e := newEnv(t, testConfig())
	at := simclock.Time(0)
	at, _ = e.r.Write(2, fill(0xCC, 512), at)
	at, _ = e.r.Trim(2, at)
	vs := e.r.retainedVersions(2)
	if len(vs) != 1 || vs[0].Cause != ftl.CauseTrim {
		t.Fatalf("trimmed version = %+v", vs)
	}
	// Pre-trim content is recoverable.
	data, ws, err := e.r.VersionBefore(2, 1, at)
	if err != nil || ws != 0 || data[0] != 0xCC {
		t.Fatalf("pre-trim version: %v write %d %v", data, ws, err)
	}
	// Post-trim state reads as zeroes.
	data, ws, err = e.r.VersionBefore(2, 2, at)
	if err != nil || ws != NoSeq || data[0] != 0 {
		t.Fatalf("post-trim version: %v write %d %v", data, ws, err)
	}
}

func TestWatermarkOffload(t *testing.T) {
	e := newEnv(t, testConfig()) // budget 16, high water 11
	at := simclock.Time(0)
	// 14 overwrites of the same page -> 14 stale versions > high water.
	at, _ = e.r.Write(0, fill(0, 512), at)
	for i := 1; i <= 14; i++ {
		var err error
		at, err = e.r.Write(0, fill(byte(i), 512), at)
		if err != nil {
			t.Fatal(err)
		}
	}
	st := e.r.Stats()
	if st.OffloadSegments == 0 {
		t.Fatal("watermark offload never fired")
	}
	budget := e.r.retentionBudget()
	if st.RetainedNow > int(0.7*float64(budget)) {
		t.Fatalf("retained %d still above high water", st.RetainedNow)
	}
	// Remote now holds the old versions, chain-verified at ingest.
	rs := e.store.DeviceStats(1)
	if rs.Versions == 0 || rs.Entries == 0 {
		t.Fatalf("remote stats = %+v", rs)
	}
}

func TestOffloadNowDrainsEverything(t *testing.T) {
	e := newEnv(t, testConfig())
	at := simclock.Time(0)
	for i := 0; i < 10; i++ {
		at, _ = e.r.Write(uint64(i%3), fill(byte(i), 512), at)
	}
	if _, err := e.r.OffloadNow(at); err != nil {
		t.Fatal(err)
	}
	if got := e.r.Stats().RetainedNow; got != 0 {
		t.Fatalf("retained after drain = %d", got)
	}
	if e.r.OffloadedUpTo() != e.r.Log().NextSeq() {
		t.Fatalf("offloadedUpTo %d != nextSeq %d", e.r.OffloadedUpTo(), e.r.Log().NextSeq())
	}
	// Local log was pruned; remote holds the full prefix.
	if held := heldEntries(e.r.Log()); len(held) != 0 {
		t.Fatal("local log not pruned after offload")
	}
	h := e.store.Head(1)
	if h.NextSeq != e.r.OffloadedUpTo() {
		t.Fatalf("remote head %d, want %d", h.NextSeq, e.r.OffloadedUpTo())
	}
}

func TestOffloadNowWithoutRemote(t *testing.T) {
	r := New(testConfig(), nil)
	if _, err := r.OffloadNow(0); !errors.Is(err, ErrNoRemote) {
		t.Fatalf("err = %v", err)
	}
}

// TestZeroDataLossUnderChurn is the core guarantee: after heavy churn that
// forces GC and offload, EVERY historical version of every page is still
// reconstructable from live + local retained + remote.
func TestZeroDataLossUnderChurn(t *testing.T) {
	e := newEnv(t, testConfig())
	at := simclock.Time(0)
	rng := rand.New(rand.NewSource(42))
	type version struct {
		seq  uint64
		data byte
	}
	history := map[uint64][]version{}
	const lpns = 6
	for i := 0; i < 300; i++ {
		lpn := uint64(rng.Intn(lpns))
		b := byte(rng.Intn(256))
		seq := e.r.Log().NextSeq()
		var err error
		at, err = e.r.Write(lpn, fill(b, 512), at)
		if err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		history[lpn] = append(history[lpn], version{seq, b})
		at = at.Add(simclock.Millisecond)
	}
	if e.r.Stats().DroppedPages != 0 {
		t.Fatalf("dropped %d pages despite remote", e.r.Stats().DroppedPages)
	}
	// Spot-check ~200 random (lpn, before) points across history.
	for i := 0; i < 200; i++ {
		lpn := uint64(rng.Intn(lpns))
		vs := history[lpn]
		if len(vs) == 0 {
			continue
		}
		pick := rng.Intn(len(vs))
		before := vs[pick].seq + 1 // just after that write
		data, ws, err := e.r.VersionBefore(lpn, before, at)
		if err != nil {
			t.Fatalf("VersionBefore(%d, %d): %v", lpn, before, err)
		}
		if ws != vs[pick].seq || data[0] != vs[pick].data {
			t.Fatalf("version (%d,%d) = %v of write %d, want %d of write %d", lpn, before, data[0], ws, vs[pick].data, vs[pick].seq)
		}
	}
}

func TestOfflineModeDropsUnderPressure(t *testing.T) {
	r := New(testConfig(), nil) // no remote
	at := simclock.Time(0)
	for i := 0; i < 100; i++ {
		var err error
		at, err = r.Write(uint64(i%4), fill(byte(i), 512), at)
		if err != nil {
			t.Fatalf("offline write %d: %v", i, err)
		}
	}
	if r.Stats().DroppedPages == 0 {
		t.Fatal("offline churn should have dropped retained pages")
	}
}

func TestOfflineStrictModeFailsInsteadOfDropping(t *testing.T) {
	cfg := testConfig()
	cfg.DropWhenOffline = false
	r := New(cfg, nil)
	at := simclock.Time(0)
	var sawNoSpace bool
	for i := 0; i < 200; i++ {
		var err error
		at, err = r.Write(uint64(i%4), fill(byte(i), 512), at)
		if errors.Is(err, ftl.ErrNoSpace) {
			sawNoSpace = true
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !sawNoSpace {
		t.Fatal("strict offline mode never returned ErrNoSpace")
	}
	if r.Stats().DroppedPages != 0 {
		t.Fatal("strict mode dropped pages")
	}
}

// TestGCAttackResistance floods the device far beyond its capacity — the
// GC attack — and verifies (a) the device keeps serving writes, and (b) a
// pre-attack victim version remains recoverable.
func TestGCAttackResistance(t *testing.T) {
	e := newEnv(t, testConfig())
	at := simclock.Time(0)
	victim := fill(0x56, 512)
	at, _ = e.r.Write(7, victim, at)
	victimSeq := e.r.Log().NextSeq() // version 0 of lpn 7 is seq 0; next op is seq 1
	// Attack: encrypt the victim, then flood every logical page repeatedly.
	at, _ = e.r.Write(7, fill(0xEE, 512), at)
	n := e.r.LogicalPages()
	for round := 0; round < 8; round++ {
		for lpn := uint64(0); lpn < n; lpn++ {
			var err error
			at, err = e.r.Write(lpn, fill(byte(round), 512), at)
			if err != nil {
				t.Fatalf("flood write: %v", err)
			}
		}
	}
	data, ws, err := e.r.VersionBefore(7, victimSeq, at)
	if err != nil || ws != 0 || !bytes.Equal(data, victim) {
		t.Fatalf("victim data lost to GC attack: write %d err=%v", ws, err)
	}
}

func TestCheckpoints(t *testing.T) {
	cfg := testConfig()
	cfg.CheckpointEvery = 10
	e := newEnv(t, cfg)
	at := simclock.Time(0)
	for i := 0; i < 25; i++ {
		at, _ = e.r.Write(uint64(i%4), fill(byte(i), 512), at)
	}
	if got := e.r.Stats().Checkpoints; got < 2 {
		t.Fatalf("checkpoints = %d, want >= 2", got)
	}
	cp, ok := e.store.Checkpoint(1, 1<<62)
	if !ok {
		t.Fatal("no checkpoint stored remotely")
	}
	// One live write sequence per LPN, as of the checkpoint's own entry.
	if len(cp.WriteSeqs) != int(e.r.LogicalPages()) {
		t.Fatalf("checkpoint table size = %d", len(cp.WriteSeqs))
	}
	for lpn, ws := range cp.WriteSeqs {
		if lpn >= 4 && ws != NoSeq {
			t.Fatalf("checkpoint lists write %d for lpn %d, never written", ws, lpn)
		}
		if lpn < 4 && (ws == NoSeq || ws >= cp.Seq) {
			t.Fatalf("checkpoint at %d lists write %d for lpn %d", cp.Seq, ws, lpn)
		}
	}
}

func TestRestoreWriteLogsRecovery(t *testing.T) {
	e := newEnv(t, testConfig())
	at := simclock.Time(0)
	at, _ = e.r.Write(0, fill(1, 512), at)
	at, _ = e.r.restoreBatch([]restoreOp{{LPN: 0, Data: fill(2, 512), Hash: oplog.HashData(fill(2, 512))}}, at)
	entries := heldEntries(e.r.Log())
	last := entries[len(entries)-1]
	if last.Kind != oplog.KindRecovery {
		t.Fatalf("last entry kind = %v", last.Kind)
	}
	data, _, _ := e.r.Read(0, at)
	if data[0] != 2 {
		t.Fatal("restore write not visible")
	}
}

func TestRestoreTrim(t *testing.T) {
	e := newEnv(t, testConfig())
	at := simclock.Time(0)
	at, _ = e.r.Write(0, fill(1, 512), at)
	at, _ = e.r.restoreBatch([]restoreOp{{LPN: 0}}, at)
	data, _, _ := e.r.Read(0, at)
	if data[0] != 0 {
		t.Fatal("restore trim not visible")
	}
	if e.r.writeSeqOf(0) != NoSeq {
		t.Fatal("writeSeq not cleared")
	}
}

func TestReadVersionNeverWritten(t *testing.T) {
	e := newEnv(t, testConfig())
	data, ws, err := e.r.VersionBefore(9, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ws != NoSeq {
		t.Fatal("unwritten page reported a version")
	}
	if !bytes.Equal(data, make([]byte, 512)) {
		t.Fatal("unwritten page version not zeroes")
	}
}

func TestTrimThenRewriteVersioning(t *testing.T) {
	e := newEnv(t, testConfig())
	at := simclock.Time(0)
	at, _ = e.r.Write(1, fill(0x11, 512), at) // seq 0
	at, _ = e.r.Trim(1, at)                   // seq 1
	at, _ = e.r.Write(1, fill(0x22, 512), at) // seq 2
	cases := []struct {
		before uint64
		want   byte
	}{
		{1, 0x11}, // after first write
		{2, 0x00}, // after trim: zeroes
		{3, 0x22}, // after rewrite
	}
	for _, c := range cases {
		data, _, err := e.r.VersionBefore(1, c.before, at)
		if err != nil {
			t.Fatal(err)
		}
		if data[0] != c.want {
			t.Fatalf("version before %d = %#x, want %#x", c.before, data[0], c.want)
		}
	}
}

func TestVersionsSurviveOffload(t *testing.T) {
	e := newEnv(t, testConfig())
	at := simclock.Time(0)
	at, _ = e.r.Write(3, fill(0x77, 512), at) // seq 0
	at, _ = e.r.Write(3, fill(0x88, 512), at) // seq 1
	if _, err := e.r.OffloadNow(at); err != nil {
		t.Fatal(err)
	}
	if len(e.r.retainedVersions(3)) != 0 {
		t.Fatal("local pins remain after drain")
	}
	data, ws, err := e.r.VersionBefore(3, 1, at)
	if err != nil || ws != 0 || data[0] != 0x77 {
		t.Fatalf("offloaded version: %v write %d %v", data, ws, err)
	}
}

func TestStatsAccumulate(t *testing.T) {
	e := newEnv(t, testConfig())
	at := simclock.Time(0)
	at, _ = e.r.Write(0, fill(1, 512), at)
	e.r.Read(0, at)
	e.r.Trim(0, at)
	s := e.r.Stats()
	if s.HostWrites != 1 || s.HostReads != 1 || s.HostTrims != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestWriteEntriesCarryEntropy(t *testing.T) {
	e := newEnv(t, testConfig())
	at := simclock.Time(0)
	random := make([]byte, 512)
	rand.New(rand.NewSource(7)).Read(random)
	at, _ = e.r.Write(0, fill(0, 512), at)
	e.r.Write(1, random, at)
	entries := heldEntries(e.r.Log())
	if entries[0].Entropy > 0.1 {
		t.Fatalf("zero page entropy = %v", entries[0].Entropy)
	}
	if entries[1].Entropy < 7.0 {
		t.Fatalf("random page entropy = %v", entries[1].Entropy)
	}
}
