package ftl

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/nand"
	"repro/internal/simclock"
)

// frontConfig is a tiny 4-chip array: 32 blocks of 4 pages, 25% OP.
func frontConfig() Config {
	return Config{
		NAND: nand.Config{
			Geometry: nand.Geometry{
				Channels: 2, ChipsPerChannel: 2, DiesPerChip: 1, PlanesPerDie: 1,
				BlocksPerPlane: 8, PagesPerBlock: 4, PageSize: 512,
			},
			Timing: nand.DefaultTiming(),
		},
		OverProvision: 0.25,
		GCLowWater:    2,
		GCHighWater:   4,
	}
}

// placementRetainer pins every stale page, sheds all pins (lowest PPN first)
// under pressure, and folds every placement it is told about into a digest.
type placementRetainer struct {
	f    *FTL
	pins map[uint64]bool
	sum  *placementDigest
}

type placementDigest struct{ h [sha256.Size]byte }

func (d *placementDigest) add(tag byte, vals ...uint64) {
	buf := append(d.h[:], tag)
	for _, v := range vals {
		buf = binary.LittleEndian.AppendUint64(buf, v)
	}
	d.h = sha256.Sum256(buf)
}

func (r *placementRetainer) OnStale(lpn, ppn uint64, cause StaleCause, at simclock.Time) bool {
	r.pins[ppn] = true
	r.sum.add('s', lpn, ppn, uint64(cause), uint64(at))
	return true
}

func (r *placementRetainer) OnMigrate(lpn, oldPPN, newPPN uint64, at simclock.Time) {
	delete(r.pins, oldPPN)
	r.pins[newPPN] = true
	r.sum.add('m', lpn, oldPPN, newPPN, uint64(at))
}

func (r *placementRetainer) OnErased(lpn, ppn uint64, at simclock.Time) {
	r.sum.add('e', lpn, ppn, uint64(at))
}

func (r *placementRetainer) Pressure(need int, at simclock.Time) {
	ppns := make([]uint64, 0, len(r.pins))
	for ppn := range r.pins {
		ppns = append(ppns, ppn)
	}
	sort.Slice(ppns, func(i, j int) bool { return ppns[i] < ppns[j] })
	for _, ppn := range ppns {
		if err := r.f.Release(ppn); err != nil {
			panic(err)
		}
		delete(r.pins, ppn)
	}
	r.sum.add('p', uint64(need), uint64(at))
}

// hostPlacementDigest drives a fixed, seeded list of host operations — per-op
// writes, batches of every size up to three blocks, trims — through GC, pin
// migration and pressure, and digests where every page landed and when.
func hostPlacementDigest(t *testing.T, f *FTL, ret *placementRetainer) string {
	t.Helper()
	rng := rand.New(rand.NewSource(20))
	logical := int(f.LogicalPages())
	at := simclock.Time(0)
	for op := 0; op < 400; op++ {
		var err error
		switch k := rng.Intn(10); {
		case k == 0:
			lpn := uint64(rng.Intn(logical))
			at, err = f.Trim(lpn, at)
			ret.sum.add('t', lpn, uint64(at))
		case k < 4:
			lpn := uint64(rng.Intn(logical))
			at, err = f.Write(lpn, fill(byte(op), 512), at)
			ret.sum.add('w', lpn, f.Lookup(lpn), uint64(at))
		default:
			ops := make([]BatchWrite, 1+rng.Intn(12))
			for i := range ops {
				ops[i] = BatchWrite{LPN: uint64(rng.Intn(logical)), Data: fill(byte(op+i), 512), Seq: uint64(op)}
			}
			var ts []simclock.Time
			ts, at, err = f.WriteBatch(ops, at)
			for i := range ops {
				ret.sum.add('b', ops[i].LPN, uint64(ts[i]))
			}
			for lpn := 0; lpn < logical; lpn++ {
				ret.sum.add('l', f.Lookup(uint64(lpn)))
			}
		}
		if err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
	}
	if st := f.Stats(); st.GCMigrates == 0 || st.PinMigrates == 0 {
		t.Fatalf("op list too light to migrate live and pinned pages: %+v", st)
	}
	return hex.EncodeToString(ret.sum.h[:])
}

func newPlacementFTL(cfg Config) (*FTL, *placementRetainer) {
	ret := &placementRetainer{pins: map[uint64]bool{}, sum: &placementDigest{}}
	f := New(cfg, ret)
	ret.f = f
	return f, ret
}

// hostPlacementGolden is hostPlacementDigest of the allocator as it stood
// before the recovery front existed (one open block per stream, opened by
// allocRun and allocPageNoGC).
const hostPlacementGolden = "5687e63f3161fb377823a9663e28e47457e45d589f6db895ac32bcf77b9d1838"

// TestHostPlacementUnchangedWithoutRestore: while no restore runs, the host,
// GC and log fronts place every page — and time every completion, pick every
// victim, shed every pin — exactly as the one-block-per-stream allocator did.
func TestHostPlacementUnchangedWithoutRestore(t *testing.T) {
	f, ret := newPlacementFTL(frontConfig())
	if got := hostPlacementDigest(t, f, ret); got != hostPlacementGolden {
		t.Fatalf("host placement digest %s, recorded %s", got, hostPlacementGolden)
	}
}

// TestOnlyTheRecoveryFrontIsStriped: every other stream has one open block.
func TestOnlyTheRecoveryFrontIsStriped(t *testing.T) {
	f, _ := newPlacementFTL(frontConfig())
	for s := Stream(0); s < numStreams; s++ {
		want := 1
		if s == StreamRecovery {
			want = f.geo.Chips()
		}
		if got := len(f.fronts[s].ways); got != want {
			t.Fatalf("stream %d is %d blocks wide, want %d", s, got, want)
		}
	}
}

// TestRecoveryFrontStripesEveryChip drives recovery batches of random size,
// host batches between them, through GC, pin migration and pressure, against
// a map model. Page i of a recovery batch lands on the chip after page i-1's,
// across batches too, whenever every chip has the blocks the batch will ask
// of it (and the free list stays clear of the GC trigger, so none is taken
// from under it); the NAND model refuses an out-of-order program within a
// block and a program into a block GC erased under an allocated page, so
// either surfaces as an error; and every page reads back what the map holds.
func TestRecoveryFrontStripesEveryChip(t *testing.T) {
	cfg := frontConfig()
	cfg.GCLowWater, cfg.GCHighWater = 6, 14
	f, ret := newPlacementFTL(cfg)
	g := f.geo
	chips, ppb := g.Chips(), g.PagesPerBlock
	rng := rand.New(rand.NewSource(3))
	const lpns = 48
	model := map[uint64]byte{}
	batch := func(n int, tag byte) []BatchWrite {
		ops := make([]BatchWrite, n)
		for i := range ops {
			ops[i] = BatchWrite{LPN: uint64(rng.Intn(lpns)), Data: fill(tag+byte(i), 512)}
			model[ops[i].LPN] = tag + byte(i)
		}
		return ops
	}
	at := simclock.Time(0)
	striped := 0
	for round := 0; round < 400; round++ {
		var err error
		if rng.Intn(3) == 0 {
			if _, at, err = f.WriteBatch(batch(1+rng.Intn(10), byte(round)), at); err != nil {
				t.Fatalf("round %d: host batch: %v", round, err)
			}
			continue
		}
		ops := batch(1+rng.Intn(3*chips), byte(round))
		fr := &f.fronts[StreamRecovery]
		first := fr.cur
		if round == 0 && first != 0 {
			t.Fatalf("a fresh recovery front starts at chip %d", first)
		}
		freeOn, opens, roomy := make([]int, chips), 0, true
		for _, b := range f.freeList {
			freeOn[g.ChipOfBlock(b)]++
		}
		for c := 0; c < chips; c++ {
			need := (len(ops) + chips - 1 - (c-first+chips)%chips) / chips // pages i with (first+i)%chips == c
			if w := fr.ways[c]; w.open {
				need -= ppb - w.next
			}
			blocks := (max(need, 0) + ppb - 1) / ppb
			opens += blocks
			roomy = roomy && freeOn[c] >= blocks
		}
		roomy = roomy && len(f.freeList)-opens > cfg.GCLowWater
		if _, at, err = f.WriteRecoveryBatch(ops, at); err != nil {
			t.Fatalf("round %d: recovery batch: %v", round, err)
		}
		if !roomy {
			continue
		}
		owner := map[uint64]int{} // the last write of an LPN in the batch owns its mapping
		for i := range ops {
			owner[ops[i].LPN] = i
		}
		for i := range ops {
			if owner[ops[i].LPN] != i {
				continue
			}
			if chip := g.ChipOfBlock(g.BlockOf(f.Lookup(ops[i].LPN))); chip != (first+i)%chips {
				t.Fatalf("round %d: page %d of %d landed on chip %d, want %d", round, i, len(ops), chip, (first+i)%chips)
			}
			striped++
		}
		if fr.cur != (first+len(ops))%chips {
			t.Fatalf("round %d: the front stands at chip %d after %d pages from chip %d", round, fr.cur, len(ops), first)
		}
	}
	if st := f.Stats(); striped < 500 || st.GCMigrates == 0 || st.PinMigrates == 0 {
		t.Fatalf("%d striped pages checked, stats %+v: the test vehicle lost its teeth", striped, st)
	}
	for lpn := uint64(0); lpn < lpns; lpn++ {
		data, _, err := f.Read(lpn, at)
		if err != nil {
			t.Fatal(err)
		}
		if data[0] != model[lpn] {
			t.Fatalf("lpn %d reads %#x, the map holds %#x", lpn, data[0], model[lpn])
		}
	}
	for ppn := range ret.pins {
		if _, _, _, err := f.ReadPhysical(ppn, at); err != nil {
			t.Fatalf("pinned ppn %d: %v", ppn, err)
		}
	}
}

// TestHostAdoptsIdleRecoveryBlocks: a 3-page recovery batch leaves three
// blocks open with one page each. Host writes fill their own open block, then
// those three tails, and only then take a block off the free list — and
// FreePages counted every open tail all along.
func TestHostAdoptsIdleRecoveryBlocks(t *testing.T) {
	f, _ := newPlacementFTL(frontConfig())
	g := f.geo
	ppb := g.PagesPerBlock
	at, err := f.Write(0, fill(1, 512), 0)
	if err != nil {
		t.Fatal(err)
	}
	rec := []BatchWrite{{LPN: 1, Data: fill(2, 512)}, {LPN: 2, Data: fill(3, 512)}, {LPN: 3, Data: fill(4, 512)}}
	if _, at, err = f.WriteRecoveryBatch(rec, at); err != nil {
		t.Fatal(err)
	}
	tails := map[uint64]bool{}
	for _, op := range rec {
		tails[g.BlockOf(f.Lookup(op.LPN))] = true
	}
	free := len(f.freeList)
	if len(tails) != 3 || f.FreePages() != free*ppb+4*(ppb-1) {
		t.Fatalf("recovery batch opened blocks %v; FreePages %d with %d free blocks", tails, f.FreePages(), free)
	}
	lpn := uint64(10)
	write := func() uint64 {
		t.Helper()
		if at, err = f.Write(lpn, fill(9, 512), at); err != nil {
			t.Fatal(err)
		}
		lpn++
		return g.BlockOf(f.Lookup(lpn - 1))
	}
	for i := 0; i < ppb-1; i++ {
		write() // the host's own open block
	}
	for i := 0; i < 3*(ppb-1); i++ {
		if b := write(); !tails[b] || len(f.freeList) != free {
			t.Fatalf("host page %d after its block filled went to block %d with %d free blocks (was %d): want the recovery tails %v",
				i, b, len(f.freeList), free, tails)
		}
	}
	if b := write(); tails[b] || len(f.freeList) != free-1 {
		t.Fatalf("with the tails full the host wrote to block %d, %d free blocks (was %d)", b, len(f.freeList), free)
	}
}
