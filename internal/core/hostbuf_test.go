package core

import (
	"bytes"
	"runtime"
	"testing"
	"weak"

	"repro/internal/bufpool"
	"repro/internal/simclock"
)

// readRun is a run of reads of lpns 0..n-1, each landing in dst[i] (nil dst:
// the device allocates).
func readRun(n int, dst [][]byte) []Op {
	ops := make([]Op, n)
	for i := range ops {
		ops[i] = Op{Kind: OpRead, LPN: uint64(i)}
		if dst != nil {
			ops[i].Data = dst[i]
		}
	}
	return ops
}

// writeRun is a run of writes of lpns 0..n-1, page i filled with b+i.
func writeRun(n int, b byte) []Op {
	ops := make([]Op, n)
	for i := range ops {
		ops[i] = Op{Kind: OpWrite, LPN: uint64(i), Data: fill(b+byte(i), 512)}
	}
	return ops
}

func submitOK(t *testing.T, r *RSSD, ops []Op, at simclock.Time) ([]Result, simclock.Time) {
	t.Helper()
	res, done, err := r.SubmitBatch(ops, at)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res {
		if res[i].Err != nil {
			t.Fatalf("op %d: %v", i, res[i].Err)
		}
	}
	return res, done
}

// TestSubmitBatchReadSteadyStateAllocs: a read run into the caller's
// destinations crosses core, oplog, ftl and nand on the device's scratch, so
// once that has grown the only allocation is the []Result the batch returns.
// (The read log's entry slice grows by doubling; AllocsPerRun's per-run
// average floors that away.)
func TestSubmitBatchReadSteadyStateAllocs(t *testing.T) {
	if bufpool.RaceEnabled {
		t.Skip("race instrumentation allocates; alloc assertions run in the non-race job")
	}
	r := New(testConfig(), nil)
	const n = 16
	_, at := submitOK(t, r, writeRun(n, 1), 0)
	dst := make([][]byte, n)
	for i := range dst {
		dst[i] = make([]byte, 512)
	}
	ops := readRun(n, dst)
	read := func() {
		if _, _, err := r.SubmitBatch(ops, at); err != nil {
			t.Fatal(err)
		}
	}
	read()
	if got := testing.AllocsPerRun(20, read); got != 1 {
		t.Fatalf("read run of %d pages into caller destinations: %.1f allocs, want 1 (the []Result)", n, got)
	}
	for i := range dst {
		if !bytes.Equal(dst[i], fill(1+byte(i), 512)) {
			t.Fatalf("lpn %d: destination holds the wrong page", i)
		}
	}
}

// TestSubmitBatchReadResultsOwnTheirPages: a run's results belong to the
// caller. They survive the next batch, and a nil-destination run's pages are
// capped at the page, so appending to one result never reaches the next.
func TestSubmitBatchReadResultsOwnTheirPages(t *testing.T) {
	r := New(testConfig(), nil)
	_, at := submitOK(t, r, writeRun(2, 0x10), 0)
	first, at := submitOK(t, r, readRun(2, nil), at)
	_, at = submitOK(t, r, writeRun(2, 0x20), at)
	second, _ := submitOK(t, r, readRun(2, nil), at)
	for i := range first {
		if !bytes.Equal(first[i].Data, fill(0x10+byte(i), 512)) {
			t.Fatalf("lpn %d: the next batch overwrote an earlier read's result", i)
		}
		if !bytes.Equal(second[i].Data, fill(0x20+byte(i), 512)) {
			t.Fatalf("lpn %d: read after rewrite returned old data", i)
		}
	}
	grown := append(first[0].Data, 0xFF)
	if !bytes.Equal(first[1].Data, fill(0x11, 512)) {
		t.Fatal("appending to res[0].Data overwrote res[1].Data")
	}
	if len(grown) != 513 {
		t.Fatalf("append grew the page to %d bytes", len(grown))
	}
}

// TestSubmitBatchDoesNotPinHostBuffers: the device's reused scratch must not
// keep a caller's buffer alive. After write, read and trim runs, and write
// runs large enough to garbage-collect (migrating pages and offloading under
// pressure), every write payload, read destination and device-allocated read
// result is collectable once the caller drops it.
func TestSubmitBatchDoesNotPinHostBuffers(t *testing.T) {
	e := newEnv(t, testConfig())
	var tracked []weak.Pointer[byte]
	track := func(ops []Op) {
		for i := range ops {
			if ops[i].Data != nil {
				tracked = append(tracked, weak.Make(&ops[i].Data[0]))
			}
		}
	}
	logical := int(e.r.LogicalPages())
	at := simclock.Time(0)
	func() {
		w := writeRun(8, 1)
		track(w)
		_, at = submitOK(t, e.r, w, at)
		dst := make([][]byte, 8)
		for i := range dst {
			dst[i] = make([]byte, 512)
		}
		rd := readRun(8, dst)
		track(rd)
		_, at = submitOK(t, e.r, rd, at)
		var res []Result
		res, at = submitOK(t, e.r, readRun(8, nil), at)
		tracked = append(tracked, weak.Make(&res[0].Data[0]))
		_, at = submitOK(t, e.r, []Op{{Kind: OpTrim, LPN: 3}, {Kind: OpTrim, LPN: 4}}, at)
		gcBefore := e.r.FTL().Stats().GCRuns
		for pass := 0; pass < 4; pass++ {
			w := writeRun(logical, byte(pass))
			track(w)
			_, at = submitOK(t, e.r, w, at)
		}
		if e.r.FTL().Stats().GCRuns == gcBefore {
			t.Fatal("the write runs did not garbage-collect")
		}
	}()
	runtime.GC()
	runtime.GC()
	for i, p := range tracked {
		if p.Value() != nil {
			t.Fatalf("buffer %d of %d is still reachable after the caller dropped it", i, len(tracked))
		}
	}
	runtime.KeepAlive(e)
}

// TestOverwriteSteadyStateAllocs: every overwrite stales a page the retention
// index pins, and pin cuts its entries from slabs of retSlabEntries, so a warm
// overwrite loop on an offline device — stale pages pinned, the oldest
// released at the watermark as offload acks would — allocates per run only
// the []Result, and no entry per stale page. Its few LPNs each keep older
// versions pinned, so every pin joins a chain that is already there.
func TestOverwriteSteadyStateAllocs(t *testing.T) {
	if bufpool.RaceEnabled {
		t.Skip("race instrumentation allocates; alloc assertions run in the non-race job")
	}
	cfg := testConfig()
	cfg.FTL.NAND.Geometry.BlocksPerPlane, cfg.FTL.NAND.Geometry.PagesPerBlock = 32, 8
	cfg.FTL.OverProvision = 0.5
	r := New(cfg, nil)
	const n = 4
	ops := writeRun(n, 1)
	var at simclock.Time
	var released uint64
	run := func() {
		_, at = submitOK(t, r, ops, at)
		released += releaseAtWatermark(r)
	}
	for i := 0; i < 2*r.retentionBudget(); i++ { // past the watermark: releases begin
		run()
	}
	if released == 0 {
		t.Fatal("no page released: the loop never reached the watermark")
	}
	stale := released + uint64(len(r.retained))
	if got := testing.AllocsPerRun(retSlabEntries, run); got != 1 {
		t.Fatalf("overwrite run of %d pages: %.2f allocs, want 1 (the []Result)", n, got)
	}
	if pinned := released + uint64(len(r.retained)) - stale; pinned < retSlabEntries*n {
		t.Fatalf("%d pages pinned over the measured runs, want at least %d", pinned, retSlabEntries*n)
	}
}

// TestOverwriteRefillSteadyStateAllocs is the pattern the benchmark drives:
// each LPN's pins are released before the LPN is overwritten again, so every
// overwrite pins into an empty chain. Here the releases come at the watermark,
// through the unpin an offload ack's release calls, and the runs walk the
// whole logical space, which holds more pages than the high watermark lets
// stay pinned. The chain's head is a slot of a table sized at construction
// and its links live in the slab-cut entries, so a warm run still allocates
// only its []Result.
func TestOverwriteRefillSteadyStateAllocs(t *testing.T) {
	if bufpool.RaceEnabled {
		t.Skip("race instrumentation allocates; alloc assertions run in the non-race job")
	}
	cfg := testConfig()
	cfg.FTL.NAND.Geometry.BlocksPerPlane, cfg.FTL.NAND.Geometry.PagesPerBlock = 32, 8
	cfg.FTL.OverProvision = 0.5
	r := New(cfg, nil)
	const n = 4
	logical := int(r.LogicalPages())
	ops := writeRun(n, 1)
	var at simclock.Time
	next, refills := 0, 0
	var released uint64
	run := func() {
		for i := range ops {
			lpn := uint64((next + i) % logical)
			ops[i].LPN = lpn
			if r.retByLPN[lpn] == nil && r.lpnWriteSeq[lpn] != NoSeq {
				refills++
			}
		}
		next += n
		_, at = submitOK(t, r, ops, at)
		released += releaseAtWatermark(r)
	}
	for next < 3*logical { // every LPN written, then overwritten twice
		run()
	}
	if released == 0 {
		t.Fatal("no page released: the loop never reached the watermark")
	}
	refills = 0
	if got := testing.AllocsPerRun(retSlabEntries, run); got != 1 {
		t.Fatalf("overwrite run of %d pages into emptied chains: %.2f allocs, want 1 (the []Result)", n, got)
	}
	if want := (retSlabEntries + 1) * n; refills != want {
		t.Fatalf("%d of %d overwrites found their LPN's chain empty, want all", refills, want)
	}
}
