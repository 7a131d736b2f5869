package core

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/remote"
	"repro/internal/simclock"
)

// checkPinChains holds the retention index's chains against a plain sorted
// list built from the by-PPN index, which pin and unpin keep independently:
// each LPN's chain links exactly that LPN's pins, newest to oldest by write
// sequence, and for every cut newestPin, the pin decide reads, is the newest
// qualifying one the sorted list names. It returns how many adjacent pairs of
// a chain lie in descending PPN order, pairs that Reopen, pinning in PPN
// order, had to insert behind a newer pin.
func checkPinChains(t *testing.T, r *RSSD, lpns int, step string) (inversions int) {
	t.Helper()
	sorted := make([][]*retEntry, lpns)
	for ppn, re := range r.retained {
		if re.ppn != ppn || re.released {
			t.Fatalf("%s: pin at ppn %d records ppn %d, released %v", step, ppn, re.ppn, re.released)
		}
		sorted[re.lpn] = append(sorted[re.lpn], re)
	}
	for lpn := range sorted {
		slices.SortFunc(sorted[lpn], func(a, b *retEntry) int { return cmp.Compare(a.writeSeq, b.writeSeq) })
		var chain []*retEntry
		var newer *retEntry
		for re := r.retByLPN[lpn]; re != nil; newer, re = re, re.older {
			if re.newer != newer || re.lpn != uint64(lpn) {
				t.Fatalf("%s: lpn %d: chain entry at ppn %d links newer %p, want %p (lpn %d)", step, lpn, re.ppn, re.newer, newer, re.lpn)
			}
			if newer != nil && newer.writeSeq < re.writeSeq {
				t.Fatalf("%s: lpn %d: write seq %d chained newer than %d", step, lpn, newer.writeSeq, re.writeSeq)
			}
			if newer != nil && newer.ppn < re.ppn {
				inversions++
			}
			chain = append(chain, re)
		}
		slices.Reverse(chain)
		if len(chain) != len(sorted[lpn]) {
			t.Fatalf("%s: lpn %d: chain holds %d pins, the by-PPN index %d", step, lpn, len(chain), len(sorted[lpn]))
		}
		for i := range chain {
			if chain[i].writeSeq != sorted[lpn][i].writeSeq {
				t.Fatalf("%s: lpn %d: chain pin %d has write seq %d, sorted list %d", step, lpn, i, chain[i].writeSeq, sorted[lpn][i].writeSeq)
			}
		}
		for before := uint64(0); before <= r.log.NextSeq()+1; before++ {
			var want *retEntry
			for _, re := range sorted[lpn] {
				if re.writeSeq != NoSeq && re.writeSeq < before {
					want = re
				}
			}
			got := r.newestPin(uint64(lpn), before)
			if (got == nil) != (want == nil) || got != nil && got.writeSeq != want.writeSeq {
				t.Fatalf("%s: lpn %d before %d: newestPin %+v, sorted list %+v", step, lpn, before, got, want)
			}
		}
	}
	return inversions
}

// TestPinChainsMatchSortedLists drives seeded histories over a few hot LPNs:
// overwrites and trims pin, watermark offloads and OffloadNow release pins
// on their acks, log-only commits leave committed pins unshipped, and power
// cycles Reopen the device, which pins those again in PPN order. After every
// step checkPinChains holds the chains against a sorted list.
func TestPinChainsMatchSortedLists(t *testing.T) {
	const lpns = 6
	inversions, reopens := 0, 0
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		store := remote.NewStore(remote.NewMemStore())
		dial := func() *remote.Client {
			c, err := remote.Loopback(remote.NewServer(store, testPSK), testPSK, 1)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close() })
			return c
		}
		r := New(testConfig(), dial())
		var at simclock.Time
		var err error
		for step := 0; step < 300; step++ {
			what := "write"
			switch x := rng.Intn(100); {
			case x < 70:
				at, err = r.Write(uint64(rng.Intn(lpns)), fill(byte(rng.Intn(255)+1), 512), at)
			case x < 80:
				what = "trim"
				at, err = r.Trim(uint64(rng.Intn(lpns)), at)
			case x < 90:
				what = "log-only commit"
				at, err = r.stage(nil, at)
				if err == nil {
					at = r.settle(at)
				}
			case x < 95:
				what = "OffloadNow"
				at, err = r.OffloadNow(at)
			default:
				what = "Reopen"
				r.Close()
				if r, err = Reopen(testConfig(), r.FTL().Device(), dial()); err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
				reopens++
			}
			if err != nil {
				t.Fatalf("seed %d step %d: %s: %v", seed, step, what, err)
			}
			at = at.Add(simclock.Millisecond)
			n := checkPinChains(t, r, lpns, what)
			if what == "Reopen" {
				inversions += n
			}
		}
		r.Close()
	}
	if reopens == 0 || inversions == 0 {
		t.Fatalf("%d reopens pinned %d pins behind a newer one: the histories never made Reopen insert out of PPN order", reopens, inversions)
	}
}
