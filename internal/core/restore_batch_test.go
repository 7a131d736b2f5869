package core

import (
	"bytes"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/ftl"
	"repro/internal/nand"
	"repro/internal/oplog"
	"repro/internal/remote"
	"repro/internal/simclock"
)

// shippedImage builds the state a victim powers on in: n pages of the default
// 8-chip array written and cut, every one of them overwritten after the cut,
// everything acked — so each of the n pages rolls back from the restore
// stream and none from a local pin — then the power cycle and the drain of
// what Reopen pinned again. It returns the reopened device, a dial factory
// for restore sessions, the cut and the simulated time.
func shippedImage(tb testing.TB, n int) (*RSSD, DialFunc, uint64, simclock.Time) {
	tb.Helper()
	cfg := DefaultConfig()
	store := remote.NewStore(remote.NewMemStore())
	srv := remote.NewServer(store, testPSK)
	dial := func() (*remote.Client, error) { return remote.Loopback(srv, testPSK, cfg.DeviceID) }
	client, err := dial()
	if err != nil {
		tb.Fatal(err)
	}
	r := New(cfg, client)
	rng := rand.New(rand.NewSource(int64(n)))
	at := simclock.Time(0)
	var cut uint64
	for pass := 0; pass < 2; pass++ {
		for lpn := 0; lpn < n; lpn += 64 {
			ops := make([]Op, min(64, n-lpn))
			for i := range ops {
				page := make([]byte, cfg.FTL.NAND.Geometry.PageSize)
				rng.Read(page[:16]) // one content per page; the rest compresses
				ops[i] = Op{Kind: OpWrite, LPN: uint64(lpn + i), Data: page}
			}
			if _, at, err = r.SubmitBatch(ops, at); err != nil {
				tb.Fatal(err)
			}
		}
		if at, err = r.OffloadNow(at); err != nil {
			tb.Fatal(err)
		}
		if pass == 0 {
			cut = r.Log().NextSeq()
		}
	}
	r.Close()
	client.Close()

	client2, err := dial()
	if err != nil {
		tb.Fatal(err)
	}
	r2, err := Reopen(cfg, r.FTL().Device(), client2)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { r2.Close(); client2.Close(); srv.Close() })
	if at, err = r2.OffloadNow(at); err != nil {
		tb.Fatal(err)
	}
	return r2, dial, cut, at
}

// TestRestoreRTOUsesEveryChip: with no link in the way, rolling N streamed
// pages back costs between an eighth and a quarter of N serial programs on
// the default 8-chip array. A restore that programs page after page fails the
// upper bound; a model that forgets a chip is busy while it programs fails
// the lower.
func TestRestoreRTOUsesEveryChip(t *testing.T) {
	const n = 512
	r2, dial, cut, at := shippedImage(t, n)
	_, rep, err := r2.RestoreImage(cut, RestoreOptions{Dial: dial, Dedup: true}, at)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PagesRestored != n || rep.PagesLiteral != n {
		t.Fatalf("restored %d pages, %d off the stream, want %d of each: %+v", rep.PagesRestored, rep.PagesLiteral, n, rep)
	}
	tm := nand.DefaultTiming()
	serial := simclock.Duration(n) * (tm.ProgramLatency + tm.Transfer)
	if chips := nand.DefaultGeometry().Chips(); chips != 8 {
		t.Fatalf("default geometry has %d chips, the bounds assume 8", chips)
	}
	if rep.RTO >= serial/4 || rep.RTO < serial/8 {
		t.Fatalf("RTO %v for %d pages: want within [%v, %v) (serial programs: %v)", rep.RTO, n, serial/8, serial/4, serial)
	}
}

// BenchmarkRestoreImage rolls 1024 streamed pages back onto the default
// 8-chip array: modeled RTO, wall time and allocations per restored page.
func BenchmarkRestoreImage(b *testing.B) {
	const n = 1024
	var rto simclock.Duration
	var mallocs uint64
	var ms runtime.MemStats
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		r2, dial, cut, at := shippedImage(b, n)
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		b.StartTimer()
		_, rep, err := r2.RestoreImage(cut, RestoreOptions{Dial: dial, Dedup: true}, at)
		b.StopTimer()
		if err != nil || rep.PagesRestored != n {
			b.Fatalf("restored %d of %d pages: %v", rep.PagesRestored, n, err)
		}
		runtime.ReadMemStats(&ms)
		mallocs += ms.Mallocs - before
		rto += rep.RTO
	}
	pages := float64(b.N) * n
	b.ReportMetric(float64(rto)/1e6/float64(b.N), "sim-ms/restore")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/pages, "ns/page")
	b.ReportMetric(float64(mallocs)/pages, "allocs/page")
}

// --- Restore equivalence oracle -------------------------------------------

// oracleConfig is a 4-chip device of 32 blocks x 8 pages x 512 B: 192 logical
// pages, of which the histories touch the first 120.
func oracleConfig() Config {
	cfg := testConfig()
	cfg.FTL = ftl.Config{
		NAND: nand.Config{
			Geometry: nand.Geometry{
				Channels: 2, ChipsPerChannel: 2, DiesPerChip: 1, PlanesPerDie: 1,
				BlocksPerPlane: 8, PagesPerBlock: 8, PageSize: 512,
			},
			Timing: nand.DefaultTiming(),
		},
		OverProvision: 0.25,
		GCLowWater:    2,
		GCHighWater:   4,
	}
	return cfg
}

// pageVersion is the model's view of one logical page: its bytes and the
// sequence of the write that put them there (no entry: the page is zeroes).
type pageVersion struct {
	data []byte
	seq  uint64
}

// TestRestoreImageMatchesMapReplay holds the batched restorer against a plain
// map replay. Each seeded history writes, overwrites, trims and checkpoints
// 120 LPNs, takes a cut at a random point, and goes on damaging the image —
// overwrites, trims, and writes to pages that were zeroes at the cut, so
// zeroings interleave the rollback. Half the histories restore after a drain,
// the expiry of every stored segment the cut does not need and a power cycle
// (every version off the stream but those Reopen pins again), half on the
// running device: local pins beside streamed records, past the offload
// watermark, so the restore's own churn ships pins of LPNs its cursor has not
// reached while it runs. Seeds 1-24 roll back every LPN; seeds 25-48 a random ascending set
// of victims, as a forensic window restore does. Then, chunk size random:
// every page in scope reads what the map held at the cut and every other page
// what it held before the restore; the report's counts are the per-LPN
// decisions the model makes; and the log gained nothing but KindRecovery /
// KindRecoveryTrim entries of pages in scope, in LPN order, each recording
// the restored content's hash — logged a chunk at a time, so the writes of
// one submission share one arrival time.
func TestRestoreImageMatchesMapReplay(t *testing.T) {
	const lpns = 120
	zeroed, pinned, outOfScope, expired := 0, 0, 0, 0
	for seed := int64(1); seed <= 48; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := oracleConfig()
		e := newEnv(t, cfg)
		r := e.r
		now := map[uint64]pageVersion{}
		var atCut map[uint64]pageVersion
		var cut uint64
		at := simclock.Time(0)
		live := seed%2 == 1
		cutAt := 150 + rng.Intn(100)
		ops := cutAt + 100 + rng.Intn(100)
		var err error
		for i := 0; i < ops; i++ {
			if i == cutAt {
				if live || rng.Intn(2) == 0 {
					at, err = r.OffloadNow(at)
				}
				if err == nil && rng.Intn(2) == 0 { // an anchor for the delta
					at, err = r.CheckpointNow(at)
				}
				cut = r.Log().NextSeq()
				atCut = make(map[uint64]pageVersion, len(now))
				for lpn, v := range now {
					atCut[lpn] = v
				}
			}
			lpn := uint64(rng.Intn(lpns))
			switch k := rng.Intn(20); {
			case err != nil:
			case k == 0:
				at, err = r.CheckpointNow(at)
			case k < 4:
				at, err = r.Trim(lpn, at)
				delete(now, lpn)
			default:
				page := make([]byte, 512)
				rng.Read(page[:8])
				seq := r.Log().NextSeq()
				at, err = r.Write(lpn, page, at)
				now[lpn] = pageVersion{page, seq}
			}
			if err != nil {
				t.Fatalf("seed %d op %d: %v", seed, i, err)
			}
		}

		srv := remote.NewServer(e.store, testPSK)
		dial := func() (*remote.Client, error) { return remote.Loopback(srv, testPSK, cfg.DeviceID) }
		if !live {
			if at, err = r.OffloadNow(at); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			// Retention expiry: the server drops every segment whose versions
			// were all superseded before the cut, which the image at the cut
			// does not need. Reopen pins again those still on flash.
			for i := 0; i < e.store.DeviceStats(cfg.DeviceID).Segments; i++ {
				seg, err := e.store.FetchSegment(cfg.DeviceID, i)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if len(seg.Pages) == 0 || slices.ContainsFunc(seg.Pages, func(p oplog.PageRecord) bool { return p.StaleSeq >= cut }) {
					continue
				}
				if err := e.store.DropSegmentPages(cfg.DeviceID, i); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				expired++
			}
			r, _ = powerCycle(t, e)
			if at, err = r.OffloadNow(at); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
		pinned += r.Stats().RetainedNow

		// The scope: every LPN, or each with probability 1/3 (drawn apart from
		// the history's generator, so seeds 1-24 replay the same histories).
		var scope []uint64
		inScope := func(uint64) bool { return true }
		if seed > 24 {
			pick := rand.New(rand.NewSource(-seed))
			scope = []uint64{}
			for lpn := uint64(0); lpn < r.LogicalPages(); lpn++ {
				if pick.Intn(3) == 0 {
					scope = append(scope, lpn)
				}
			}
			inScope = func(lpn uint64) bool { _, in := slices.BinarySearch(scope, lpn); return in }
		}

		// The decisions, from the model and the device's live table.
		var want RestoreReport
		for lpn := uint64(0); lpn < r.LogicalPages(); lpn++ {
			if !inScope(lpn) {
				continue
			}
			target, mapped := atCut[lpn]
			switch live := r.writeSeqOf(lpn); {
			case !mapped && live == NoSeq, mapped && live == target.seq:
				want.PagesKept++
			case !mapped:
				want.PagesZeroed++
			default:
				want.PagesRestored++
			}
		}
		logged := r.Log().NextSeq()
		chunk := 1 + rng.Intn(24)
		// A window restore streams the full image of its victims, not a delta.
		opts := RestoreOptions{Dial: dial, LPNs: scope, Dedup: true, Delta: scope == nil, ChunkPages: chunk}
		at, rep, err := r.RestoreImage(cut, opts, at)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if rep.PagesKept != want.PagesKept || rep.PagesZeroed != want.PagesZeroed || rep.PagesRestored != want.PagesRestored {
			t.Fatalf("seed %d: report %d kept / %d zeroed / %d restored, the model decides %d / %d / %d",
				seed, rep.PagesKept, rep.PagesZeroed, rep.PagesRestored, want.PagesKept, want.PagesZeroed, want.PagesRestored)
		}
		zeroed += rep.PagesZeroed
		for lpn := uint64(0); lpn < r.LogicalPages(); lpn++ {
			data, _, err := r.Read(lpn, at)
			if err != nil {
				t.Fatalf("seed %d: read lpn %d: %v", seed, lpn, err)
			}
			target, when := atCut[lpn].data, "at the cut"
			if !inScope(lpn) {
				target, when = now[lpn].data, "before the restore"
				outOfScope++
			}
			if target == nil {
				target = make([]byte, 512)
			}
			if !bytes.Equal(data, target) {
				t.Fatalf("seed %d: lpn %d differs from the map replay %s", seed, lpn, when)
			}
		}

		// The restore's own churn may have shipped and pruned its entries.
		if at, err = r.OffloadNow(at); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		arrivals := map[simclock.Time]bool{}
		last, entries := int64(-1), 0
		for _, en := range e.store.Entries(cfg.DeviceID, logged, e.store.Head(cfg.DeviceID).NextSeq) {
			if en.Kind == oplog.KindRead { // the image check above
				continue
			}
			entries++
			if int64(en.LPN) <= last {
				t.Fatalf("seed %d: recovery entry %d names lpn %d after lpn %d", seed, en.Seq, en.LPN, last)
			}
			last = int64(en.LPN)
			switch target, mapped := atCut[en.LPN]; {
			case !inScope(en.LPN):
				t.Fatalf("seed %d: the restore logged %+v for a page out of its scope", seed, en)
			case en.Kind == oplog.KindRecovery && mapped && en.DataHash == oplog.HashData(target.data):
				arrivals[en.At] = true
			case en.Kind == oplog.KindRecoveryTrim && !mapped && en.DataHash == [oplog.HashSize]byte{}:
			default:
				t.Fatalf("seed %d: the restore logged %+v for a page the map holds as %v", seed, en, mapped)
			}
		}
		if entries != rep.PagesRestored+rep.PagesZeroed {
			t.Fatalf("seed %d: %d entries logged for %d restored + %d zeroed pages", seed, entries, rep.PagesRestored, rep.PagesZeroed)
		}
		// A submission per chunk and one for the tail; a zeroing splits one in two.
		if runs := rep.Chunks + 1 + rep.PagesZeroed; len(arrivals) > runs {
			t.Fatalf("seed %d: %d restored pages were logged at %d arrival times, %d chunks and %d zeroings allow %d",
				seed, rep.PagesRestored, len(arrivals), rep.Chunks, rep.PagesZeroed, runs)
		}
		r.Close()
	}
	t.Logf("%d zeroings, %d local pins, %d pages out of scope, %d segments expired", zeroed, pinned, outOfScope, expired)
	if zeroed == 0 || pinned == 0 || outOfScope == 0 || expired == 0 {
		t.Fatalf("%d zeroings, %d local pins, %d pages out of scope, %d segments expired across the histories: the test vehicle lost its teeth", zeroed, pinned, outOfScope, expired)
	}
}

// TestRestoreZeroingStampsItsEntry: a restore that zeroes a mapped page
// retains the page it unmaps as made stale by the restore's own
// KindRecoveryTrim entry, and the server holds the offloaded version under
// that sequence — not under 0, which names no entry at all.
func TestRestoreZeroingStampsItsEntry(t *testing.T) {
	cfg := DefaultConfig()
	store := remote.NewStore(remote.NewMemStore())
	srv := remote.NewServer(store, testPSK)
	defer srv.Close()
	dial := func() (*remote.Client, error) { return remote.Loopback(srv, testPSK, cfg.DeviceID) }
	client, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	r := New(cfg, client)
	defer r.Close()
	page := func(b byte) []byte { return bytes.Repeat([]byte{b}, cfg.FTL.NAND.Geometry.PageSize) }

	at, err := r.Write(1, page(1), 0)
	if err != nil {
		t.Fatal(err)
	}
	cut := r.Log().NextSeq()
	const lpn = 5 // first written after the cut: the restore zeroes it
	writeSeq := r.Log().NextSeq()
	if at, err = r.Write(lpn, page(5), at); err != nil {
		t.Fatal(err)
	}
	if at, err = r.OffloadNow(at); err != nil {
		t.Fatal(err)
	}
	at, rep, err := r.RestoreImage(cut, RestoreOptions{Dial: dial, LPNs: []uint64{lpn}}, at)
	if err != nil || rep.PagesZeroed != 1 {
		t.Fatalf("restore zeroed %d pages, err=%v, want 1: %+v", rep.PagesZeroed, err, rep)
	}
	if at, err = r.OffloadNow(at); err != nil {
		t.Fatal(err)
	}

	trimSeq := ^uint64(0)
	for _, e := range store.Entries(cfg.DeviceID, 0, r.Log().NextSeq()) {
		if e.Kind == oplog.KindRecoveryTrim && e.LPN == lpn {
			trimSeq = e.Seq
		}
	}
	if trimSeq == ^uint64(0) {
		t.Fatal("the server holds no KindRecoveryTrim entry for the zeroed page")
	}
	var held []oplog.PageRecord
	for _, p := range store.HeldVersions(cfg.DeviceID) {
		if p.LPN == lpn && p.WriteSeq == writeSeq {
			held = append(held, p)
		}
	}
	if len(held) != 1 || held[0].StaleSeq != trimSeq {
		t.Fatalf("held versions of LPN %d written at %d: %+v, want one stale at the recovery trim, seq %d", lpn, writeSeq, held, trimSeq)
	}
}
