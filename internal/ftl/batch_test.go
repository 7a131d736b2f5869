package ftl

import (
	"bytes"
	"testing"

	"repro/internal/batch"
	"repro/internal/bufpool"
	"repro/internal/nand"
	"repro/internal/simclock"
)

// batchTestConfig: 4 chips, 32 blocks x 8 pages x 512B, enough OP that GC
// has headroom but small enough that large batches cross block and GC
// boundaries.
func batchTestConfig() Config {
	return Config{
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
}

func pageOf(b byte, n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = b
	}
	return p
}

// TestWriteBatchMatchesPerOpState drives the same writes per-op and as one
// batch and verifies the logical state (mappings and contents) agrees.
func TestWriteBatchMatchesPerOpState(t *testing.T) {
	perOp := New(batchTestConfig(), nil)
	batched := New(batchTestConfig(), nil)

	n := int(perOp.LogicalPages()) / 2
	var ops []BatchWrite
	at := simclock.Time(0)
	for i := 0; i < n; i++ {
		data := pageOf(byte(i), 512)
		var err error
		at, err = writeOne(perOp, uint64(i), data, at)
		if err != nil {
			t.Fatal(err)
		}
		ops = append(ops, BatchWrite{LPN: uint64(i), Data: data})
	}
	if _, _, err := batched.WriteBatch(nil, ops, 0); err != nil {
		t.Fatal(err)
	}
	if got, want := batched.Stats().HostWrites, perOp.Stats().HostWrites; got != want {
		t.Fatalf("HostWrites = %d, want %d", got, want)
	}
	for i := 0; i < n; i++ {
		pd, _, err := perOp.Read(uint64(i), at)
		if err != nil {
			t.Fatal(err)
		}
		bd := dests(1, 512)
		if _, _, err := batched.ReadBatch(nil, bd, []uint64{uint64(i)}, at); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pd, bd[0]) {
			t.Fatalf("lpn %d: batched content diverges", i)
		}
	}
}

// TestWriteBatchDuplicateLPNKeepsSubmissionOrder verifies that two writes
// to the same LPN in one batch behave like two sequential writes: the
// later payload wins.
func TestWriteBatchDuplicateLPNKeepsSubmissionOrder(t *testing.T) {
	f := New(batchTestConfig(), nil)
	ops := []BatchWrite{
		{LPN: 3, Data: pageOf(0xAA, 512)},
		{LPN: 3, Data: pageOf(0xBB, 512)},
	}
	if _, _, err := f.WriteBatch(nil, ops, 0); err != nil {
		t.Fatal(err)
	}
	data, _, err := f.Read(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if data[0] != 0xBB {
		t.Fatalf("content = %#x, want later write (0xBB)", data[0])
	}
}

// TestWriteBatchSurvivesGC writes several device capacities in large
// batches, forcing garbage collection to run mid-batch, and verifies no
// live page is lost — the flush-before-GC invariant of the batched
// datapath.
func TestWriteBatchSurvivesGC(t *testing.T) {
	f := New(batchTestConfig(), nil)
	n := f.LogicalPages()
	round := 0
	for pass := 0; pass < 4; pass++ {
		var ops []BatchWrite
		for lpn := uint64(0); lpn < n; lpn++ {
			ops = append(ops, BatchWrite{LPN: lpn, Data: pageOf(byte(round+int(lpn)), 512)})
		}
		if _, _, err := f.WriteBatch(nil, ops, 0); err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
		round++
	}
	if f.Stats().GCRuns == 0 {
		t.Fatal("test did not exercise GC")
	}
	data := dests(int(n), 512)
	if _, _, err := f.ReadBatch(nil, data, seqLPNs(n), 0); err != nil {
		t.Fatal(err)
	}
	for lpn := uint64(0); lpn < n; lpn++ {
		want := byte(round - 1 + int(lpn))
		if data[lpn][0] != want {
			t.Fatalf("lpn %d: content %#x, want %#x after GC", lpn, data[lpn][0], want)
		}
	}
}

// dests returns n page-sized read destinations.
func dests(n, pageSize int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = make([]byte, pageSize)
	}
	return out
}

func seqLPNs(n uint64) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = uint64(i)
	}
	return out
}

// TestReadBatchUnmappedReadsZeroes mirrors per-op semantics for unmapped
// and trimmed pages, whatever the destination held before.
func TestReadBatchUnmappedReadsZeroes(t *testing.T) {
	f := New(batchTestConfig(), nil)
	if _, _, err := f.WriteBatch(nil, []BatchWrite{{LPN: 1, Data: pageOf(0x11, 512)}}, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.TrimBatch(nil, []BatchTrim{{LPN: 1}}, 0); err != nil {
		t.Fatal(err)
	}
	data := [][]byte{pageOf(0xEE, 512), pageOf(0xEE, 512)}
	if _, _, err := f.ReadBatch(nil, data, []uint64{0, 1}, 0); err != nil {
		t.Fatal(err)
	}
	for i, d := range data {
		if !bytes.Equal(d, make([]byte, 512)) {
			t.Fatalf("page %d: expected zeroes", i)
		}
	}
}

// TestSubmitBatchMixedKindsSeesPriorWrites checks cross-run ordering: a
// read later in the batch observes a write earlier in the batch.
func TestSubmitBatchMixedKindsSeesPriorWrites(t *testing.T) {
	f := New(batchTestConfig(), nil)
	ops := []batch.Op{
		{Kind: batch.OpWrite, LPN: 7, Data: pageOf(0x42, 512)},
		{Kind: batch.OpRead, LPN: 7},
		{Kind: batch.OpTrim, LPN: 7},
		{Kind: batch.OpRead, LPN: 7},
	}
	res, _, err := f.SubmitBatch(ops, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res[1].Data[0] != 0x42 {
		t.Fatalf("read after write saw %#x", res[1].Data[0])
	}
	if res[3].Data[0] != 0 {
		t.Fatal("read after trim saw stale data")
	}
}

// TestSubmitBatchPerOpValidation: invalid ops fail individually without
// failing the batch.
func TestSubmitBatchPerOpValidation(t *testing.T) {
	f := New(batchTestConfig(), nil)
	ops := []batch.Op{
		{Kind: batch.OpWrite, LPN: 0, Data: pageOf(1, 512)},
		{Kind: batch.OpWrite, LPN: f.LogicalPages(), Data: pageOf(2, 512)}, // out of range
		{Kind: batch.OpWrite, LPN: 1, Data: pageOf(3, 100)},                // short payload
		{Kind: batch.OpWrite, LPN: 2, Data: pageOf(4, 512)},
	}
	res, _, err := f.SubmitBatch(ops, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Err != nil || res[3].Err != nil {
		t.Fatalf("valid ops failed: %v / %v", res[0].Err, res[3].Err)
	}
	if res[1].Err != ErrOutOfRange {
		t.Fatalf("res[1].Err = %v, want ErrOutOfRange", res[1].Err)
	}
	if res[2].Err != ErrBadPageSize {
		t.Fatalf("res[2].Err = %v, want ErrBadPageSize", res[2].Err)
	}
	if f.Lookup(0) == NoPPN || f.Lookup(2) == NoPPN {
		t.Fatal("valid writes were not applied")
	}
}

// TestLookupBatchAgreesWithLookup cross-checks the sharded table's batch
// resolution against single lookups, including out-of-range LPNs.
func TestLookupBatchAgreesWithLookup(t *testing.T) {
	f := New(batchTestConfig(), nil)
	var ops []BatchWrite
	for lpn := uint64(0); lpn < 20; lpn += 2 {
		ops = append(ops, BatchWrite{LPN: lpn, Data: pageOf(byte(lpn), 512)})
	}
	if _, _, err := f.WriteBatch(nil, ops, 0); err != nil {
		t.Fatal(err)
	}
	lpns := []uint64{0, 1, 2, 17, 18, f.LogicalPages() + 5}
	got := f.LookupBatch([]uint64{42}, lpns)
	if len(got) != 1+len(lpns) || got[0] != 42 {
		t.Fatalf("LookupBatch did not append: %v", got)
	}
	got = got[1:]
	for i, lpn := range lpns {
		if want := f.Lookup(lpn); got[i] != want {
			t.Fatalf("LookupBatch[%d] (lpn %d) = %d, want %d", i, lpn, got[i], want)
		}
	}
}

// TestReadBatchSteadyStateAllocs: a grouped read into the caller's
// destinations, and a lookup into the caller's slice, allocate nothing once
// the FTL's scratch has grown.
func TestReadBatchSteadyStateAllocs(t *testing.T) {
	if bufpool.RaceEnabled {
		t.Skip("race instrumentation allocates; alloc assertions run in the non-race job")
	}
	f := New(batchTestConfig(), nil)
	var ops []BatchWrite
	for lpn := uint64(0); lpn < 32; lpn += 2 {
		ops = append(ops, BatchWrite{LPN: lpn, Data: pageOf(byte(lpn), 512)})
	}
	if _, _, err := f.WriteBatch(nil, ops, 0); err != nil {
		t.Fatal(err)
	}
	lpns := seqLPNs(32) // half mapped, half reading as zeroes
	data := dests(len(lpns), 512)
	var times []simclock.Time
	var ppns []uint64
	read := func() {
		var err error
		if times, _, err = f.ReadBatch(times[:0], data, lpns, 0); err != nil {
			t.Fatal(err)
		}
		ppns = f.LookupBatch(ppns[:0], lpns)
	}
	read()
	if got := testing.AllocsPerRun(20, read); got != 0 {
		t.Fatalf("ReadBatch + LookupBatch of %d pages: %.1f allocs, want 0", len(lpns), got)
	}
	for lpn, d := range data {
		want := make([]byte, 512)
		if lpn%2 == 0 {
			want = pageOf(byte(lpn), 512)
		}
		if !bytes.Equal(d, want) {
			t.Fatalf("lpn %d read back wrong data", lpn)
		}
	}
}
