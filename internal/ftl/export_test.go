package ftl

import (
	"repro/internal/batch"
	"repro/internal/simclock"
)

// writeOne and trimOne are the one-element batches per-op tests submit.
func writeOne(f *FTL, lpn uint64, data []byte, at simclock.Time) (simclock.Time, error) {
	_, done, err := batch.Do(f, batch.Op{Kind: batch.OpWrite, LPN: lpn, Data: data}, at)
	return done, err
}

func trimOne(f *FTL, lpn uint64, at simclock.Time) (simclock.Time, error) {
	_, done, err := batch.Do(f, batch.Op{Kind: batch.OpTrim, LPN: lpn}, at)
	return done, err
}

// freePages returns the number of immediately programmable pages (free
// blocks plus the tails of active blocks). The GC attack drives this toward
// zero.
func (f *FTL) freePages() int {
	n := len(f.freeList) * f.geo.PagesPerBlock
	for s := range f.fronts {
		for _, w := range f.fronts[s].ways {
			if w.open {
				n += f.geo.PagesPerBlock - w.next
			}
		}
	}
	return n
}

// pinnedPages returns how many physical pages are currently pinned.
func (f *FTL) pinnedPages() int {
	n := 0
	for _, b := range f.blocks {
		n += b.pinned
	}
	return n
}
