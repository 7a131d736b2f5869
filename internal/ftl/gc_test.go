package ftl

import (
	"math/rand"
	"testing"

	"repro/internal/nand"
	"repro/internal/simclock"
)

// erasureRetainer pins nothing and records when GC erased each block: the
// time eraseBlock was handed, which for a victim that moved pages is when
// the last of its migration programs finished.
type erasureRetainer struct {
	geo      nand.Geometry
	erasedAt map[uint64]simclock.Time
}

func (r *erasureRetainer) OnStale(lpn, ppn uint64, cause StaleCause, at simclock.Time) bool {
	return false
}
func (r *erasureRetainer) OnMigrate(lpn, oldPPN, newPPN uint64, at simclock.Time) {}
func (r *erasureRetainer) OnErased(lpn, ppn uint64, at simclock.Time) {
	r.erasedAt[r.geo.BlockOf(ppn)] = at
}
func (r *erasureRetainer) Pressure(need int, at simclock.Time) {}

// gcTrip is one host write that ran a GC episode.
type gcTrip struct {
	at, done simclock.Time // the write's issue and completion
	ppn      uint64        // where it landed
	// victims maps each block the episode erased to when it erased it.
	victims map[uint64]simclock.Time
	// moved maps every live page the episode migrated, by LPN, to where it
	// came from and went; onChip maps a victim to the chip all its migrations
	// landed on, or -1 when they landed on more than one or on one not known.
	// The page the write then overwrote is not in moved: when it was live on
	// a victim, the episode moved it too, to a PPN nothing maps any more.
	moved  map[uint64]gcMove
	onChip map[uint64]int
	lost   bool          // the episode moved the page the write overwrote
	last   simclock.Time // when the episode's last migration program finished
	data   map[uint64]byte
}

type gcMove struct{ victim, ppn uint64 }

const tripGap = 100 * simclock.Millisecond

// gcTrips drives seeded single-page writes over fresh frontConfig devices —
// per-op writes and one-page batches in turn — 100 ms apart, so every chip is
// idle and every erase finished when the next write is issued, and hands
// check each write that ran a GC episode. Each device first fills its logical
// space, then overwrites at random; a host block its episode did not just
// erase is mostly one never erased, so the devices are many and young. An
// episode that recycled a block with nothing stale on it (wear leveling) is
// skipped: its erase time is not observed.
func gcTrips(t *testing.T, check func(f *FTL, tr *gcTrip)) {
	t.Helper()
	trips := 0
	for seed := int64(0); seed < 40; seed++ {
		trips += gcDeviceTrips(t, rand.New(rand.NewSource(seed)), check)
	}
	if trips < 1000 {
		t.Fatalf("only %d writes ran an observed GC episode", trips)
	}
}

func gcDeviceTrips(t *testing.T, rng *rand.Rand, check func(f *FTL, tr *gcTrip)) (trips int) {
	ret := &erasureRetainer{erasedAt: map[uint64]simclock.Time{}}
	f := New(frontConfig(), ret)
	ret.geo = f.geo
	logical := int(f.LogicalPages())
	all := make([]uint64, logical)
	for i := range all {
		all[i] = uint64(i)
	}
	erases := make([]int, f.geo.TotalBlocks())
	data := map[uint64]byte{}
	for op := 0; op < 400; op++ {
		at := simclock.Time(op) * simclock.Time(tripGap)
		lpn := uint64(op)
		if op >= logical {
			lpn = uint64(rng.Intn(logical))
		}
		before := f.LookupBatch(nil, all)
		for b := range erases {
			erases[b] = f.dev.EraseCount(uint64(b))
		}
		runs := f.Stats().GCRuns
		clear(ret.erasedAt)
		page := fill(byte(op), f.geo.PageSize)
		var done simclock.Time
		var err error
		if op%2 == 0 {
			done, err = f.Write(lpn, page, at)
		} else {
			var ts []simclock.Time
			ts, _, err = f.WriteBatch(nil, []BatchWrite{{LPN: lpn, Data: page}}, at)
			done = ts[len(ts)-1]
		}
		if err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
		data[lpn] = byte(op)
		if f.Stats().GCRuns == runs {
			continue
		}
		tr := &gcTrip{at: at, done: done, ppn: f.Lookup(lpn), victims: map[uint64]simclock.Time{},
			moved: map[uint64]gcMove{}, onChip: map[uint64]int{}, data: data}
		observed := true
		for b := range erases {
			if f.dev.EraseCount(uint64(b)) == erases[b] {
				continue
			}
			erasedAt, ok := ret.erasedAt[uint64(b)]
			observed = observed && ok
			tr.victims[uint64(b)] = erasedAt
		}
		if !observed {
			continue
		}
		if old := before[lpn]; old != NoPPN {
			v := f.geo.BlockOf(old)
			if erasedAt, ok := tr.victims[v]; ok {
				tr.lost = true
				tr.onChip[v] = -1
				tr.last = simclock.Max(tr.last, erasedAt)
			}
		}
		for l, old := range before {
			now := f.Lookup(uint64(l))
			if uint64(l) == lpn || now == old {
				continue
			}
			v := f.geo.BlockOf(old)
			tr.moved[uint64(l)] = gcMove{victim: v, ppn: now}
			tr.last = simclock.Max(tr.last, tr.victims[v])
			chip := f.geo.ChipOfBlock(f.geo.BlockOf(now))
			if c, ok := tr.onChip[v]; !ok {
				tr.onChip[v] = chip
			} else if c != chip {
				tr.onChip[v] = -1
			}
		}
		trips++
		check(f, tr)
	}
	return trips
}

// TestGCDoesNotDelayTheWriteThatTripsIt: a write whose chip the episode
// leaves idle, into a block it did not erase, completes one program after
// its issue — before the episode's last migration program finishes.
func TestGCDoesNotDelayTheWriteThatTripsIt(t *testing.T) {
	tm := frontConfig().NAND.Timing
	n := 0
	gcTrips(t, func(f *FTL, tr *gcTrip) {
		// The episode reads a victim's pages and programs them elsewhere on
		// the chips' foreground lanes; its erases run on the background lane.
		chip := f.geo.ChipOfBlock(f.geo.BlockOf(tr.ppn))
		_, busy := tr.victims[f.geo.BlockOf(tr.ppn)]
		for _, m := range tr.moved {
			busy = busy || f.geo.ChipOfBlock(m.victim) == chip || f.geo.ChipOfBlock(f.geo.BlockOf(m.ppn)) == chip
		}
		if busy || tr.lost || len(tr.moved) == 0 {
			return
		}
		n++
		if want := tr.at.Add(tm.ProgramLatency + tm.Transfer); tr.done != want || tr.done >= tr.last {
			t.Fatalf("write issued at %v completed at %v, want %v, before the episode's last migration at %v",
				tr.at, tr.done, want, tr.last)
		}
	})
	if n < 20 {
		t.Fatalf("only %d writes tripped GC on an idle chip", n)
	}
}

// TestProgramWaitsForTheEpisodesErase: a write into a block its own episode
// erased completes no earlier than the erase plus a program.
func TestProgramWaitsForTheEpisodesErase(t *testing.T) {
	tm := frontConfig().NAND.Timing
	n := 0
	gcTrips(t, func(f *FTL, tr *gcTrip) {
		erasedAt, ok := tr.victims[f.geo.BlockOf(tr.ppn)]
		if !ok {
			return
		}
		n++
		if ready := erasedAt.Add(tm.EraseLatency); tr.done < ready.Add(tm.ProgramLatency+tm.Transfer) {
			t.Fatalf("write issued at %v into a block erased from %v (ready no earlier than %v) completed at %v",
				tr.at, erasedAt, ready, tr.done)
		}
	})
	if n < 20 {
		t.Fatalf("only %d writes landed in a block their episode erased", n)
	}
}

// TestReadOfAMigratedPageWaitsForItsProgram: a host read of a page the
// episode moved, issued when the episode began, returns the page and
// completes after its victim's migration programs, which all landed on the
// chip it reads from.
func TestReadOfAMigratedPageWaitsForItsProgram(t *testing.T) {
	tm := frontConfig().NAND.Timing
	n := 0
	gcTrips(t, func(f *FTL, tr *gcTrip) {
		for lpn, m := range tr.moved {
			if tr.onChip[m.victim] < 0 {
				continue
			}
			n++
			got, done, err := f.Read(lpn, tr.at)
			if err != nil {
				t.Fatal(err)
			}
			if got[0] != tr.data[lpn] {
				t.Fatalf("migrated lpn %d reads %#x, wrote %#x", lpn, got[0], tr.data[lpn])
			}
			if programmed := tr.victims[m.victim]; done < programmed.Add(tm.ReadLatency+tm.Transfer) {
				t.Fatalf("read of migrated lpn %d issued at %v completed at %v, its program finished at %v",
					lpn, tr.at, done, programmed)
			}
		}
	})
	if n < 100 {
		t.Fatalf("only %d migrated pages read", n)
	}
}

// TestHostOpOnTheGCChipQueuesBehindMigrations: a host read of a page that
// stayed put, on the chip a victim's migrations programmed, completes after
// them; so does the write that tripped the episode when it lands there.
func TestHostOpOnTheGCChipQueuesBehindMigrations(t *testing.T) {
	tm := frontConfig().NAND.Timing
	reads, writes := 0, 0
	gcTrips(t, func(f *FTL, tr *gcTrip) {
		for v, chip := range tr.onChip {
			if chip < 0 {
				continue
			}
			programmed := tr.victims[v]
			if f.geo.ChipOfBlock(f.geo.BlockOf(tr.ppn)) == chip {
				writes++
				if tr.done < programmed.Add(tm.ProgramLatency+tm.Transfer) {
					t.Fatalf("write issued at %v on the GC chip %d completed at %v, its migrations finished at %v",
						tr.at, chip, tr.done, programmed)
				}
			}
			for lpn := uint64(0); lpn < f.LogicalPages(); lpn++ {
				ppn := f.Lookup(lpn)
				if _, moved := tr.moved[lpn]; moved || ppn == NoPPN || ppn == tr.ppn ||
					f.geo.ChipOfBlock(f.geo.BlockOf(ppn)) != chip {
					continue
				}
				reads++
				if _, done, err := f.Read(lpn, tr.at); err != nil {
					t.Fatal(err)
				} else if done < programmed.Add(tm.ReadLatency+tm.Transfer) {
					t.Fatalf("read of lpn %d on the GC chip %d issued at %v completed at %v, its migrations finished at %v",
						lpn, chip, tr.at, done, programmed)
				}
				break
			}
		}
	})
	if reads < 100 || writes < 20 {
		t.Fatalf("only %d reads and %d writes landed on a GC chip", reads, writes)
	}
}
