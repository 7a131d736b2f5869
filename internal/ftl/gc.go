package ftl

import (
	"fmt"

	"repro/internal/bufpool"
	"repro/internal/nand"
	"repro/internal/simclock"
)

// maybeGC runs a garbage-collection episode from at if the free-block pool
// has drained to the low watermark ("GC timing" in the package doc).
func (f *FTL) maybeGC(at simclock.Time) error {
	if f.inGC || len(f.freeList) > f.cfg.GCLowWater {
		return nil
	}
	f.inGC = true
	defer func() { f.inGC = false }()

	pressured := false
	for len(f.freeList) < f.cfg.GCHighWater {
		victim, ok := f.pickVictim()
		if !ok {
			// Everything reclaimable is pinned. Ask the retainer to
			// shed pins (RSSD offloads; baselines drop oldest), then
			// retry once.
			if f.ret != nil && !pressured {
				need := (f.cfg.GCHighWater - len(f.freeList)) * f.geo.PagesPerBlock
				f.ret.Pressure(need, at)
				pressured = true
				continue
			}
			if len(f.freeList) > 0 {
				return nil // partially recovered; let the write go on
			}
			return ErrNoSpace
		}
		pressured = false
		var err error
		if at, err = f.collect(victim, at); err != nil {
			return err
		}
	}
	return f.wearLevelOnce(at)
}

// wearLevelOnce performs static wear leveling: when the erase-count spread
// reaches wearLevelThreshold, the coldest full block is recycled so
// blocks holding cold data rejoin circulation. At most one block is moved
// per GC episode, bounding the added write amplification.
func (f *FTL) wearLevelOnce(at simclock.Time) error {
	if len(f.freeList) == 0 {
		return nil
	}
	min, max, _ := f.dev.WearSummary()
	if max-min < wearLevelThreshold {
		return nil
	}
	best, bestWear := -1, max+1
	for b := range f.blocks {
		if f.blocks[b].state != blockFull {
			continue
		}
		if w := f.dev.EraseCount(uint64(b)); w < bestWear {
			best, bestWear = b, w
		}
	}
	if best < 0 || bestWear > min+wearLevelThreshold/2 {
		return nil
	}
	_, err := f.collect(uint64(best), at)
	return err
}

// reclaimable returns how many pages erasing the block would free.
func (f *FTL) reclaimable(b uint64) int {
	bi := &f.blocks[b]
	return f.geo.PagesPerBlock - bi.valid - bi.pinned
}

// pickVictim chooses the full block with the most reclaimable pages (greedy
// GC; the lowest block number wins a tie). It returns false if no full block
// would free any space.
func (f *FTL) pickVictim() (uint64, bool) {
	bestBlock, bestRec := uint64(0), 0
	for b := range f.blocks {
		if f.blocks[b].state != blockFull {
			continue
		}
		if rec := f.reclaimable(uint64(b)); rec > bestRec {
			bestBlock, bestRec = uint64(b), rec
		}
	}
	return bestBlock, bestRec > 0
}

// collect migrates the victim's live and pinned pages, then erases it, and
// returns when its last migration program finishes. Migrations run batched:
// one grouped read of every page to move (serial on the victim's chip), then
// one grouped program once every page is in the controller's buffers. The GC
// and log fronts are one block wide, so the live pages all program in turn
// into the GC front's open block on its chip, and the pinned ones into the
// log front's on its chip (a page more moves to the front's next block, on
// another chip, when the open one fills). Blocks with nothing to move (the
// common case under greedy GC) pay only the erase.
func (f *FTL) collect(victim uint64, at simclock.Time) (simclock.Time, error) {
	f.stats.GCRuns++
	base := victim * uint64(f.geo.PagesPerBlock)
	type migration struct {
		oldPPN uint64
		lpn    uint64
		pinned bool
	}
	var migs []migration
	for i := 0; i < f.geo.PagesPerBlock; i++ {
		ppn := base + uint64(i)
		lpn := f.rmap[ppn]
		switch {
		case lpn != NoLPN && f.l2p.get(lpn) == ppn:
			migs = append(migs, migration{oldPPN: ppn, lpn: lpn})
		case f.pinned[ppn]:
			migs = append(migs, migration{oldPPN: ppn, lpn: lpn, pinned: true})
		}
	}
	if len(migs) > 0 {
		// The controller's buffers: one pooled run of pages, free again
		// once the programs have copied them.
		ps := f.geo.PageSize
		buf := bufpool.Get(len(migs) * ps)
		defer buf.Release()
		pages := buf.B[:len(migs)*ps]
		ppns := make([]uint64, len(migs))
		dst := make([][]byte, len(migs))
		for i := range migs {
			ppns[i] = migs[i].oldPPN
			dst[i] = pages[i*ps : (i+1)*ps]
		}
		_, readDone, err := f.dev.ReadBatch(nil, dst, ppns, at)
		if err != nil {
			return at, fmt.Errorf("ftl: gc read block %d: %w", victim, err)
		}
		// Allocate targets (straight from the free pool: inGC keeps alloc
		// from collecting again), then program them as one batch once every
		// source page is in the controller's buffers.
		progs := make([]nand.PageProgram, len(migs))
		for i := range migs {
			stream := StreamGC
			if migs[i].pinned {
				stream = StreamLog
			}
			newPPN, _, err := f.alloc(stream, 1, readDone)
			if err != nil {
				return readDone, err
			}
			oob, _ := f.dev.ReadOOB(ppns[i])
			progs[i] = nand.PageProgram{PPN: newPPN, Data: dst[i], OOB: oob}
		}
		ts, progDone, err := f.dev.ProgramBatch(nil, progs, readDone)
		if err != nil {
			return readDone, fmt.Errorf("ftl: gc program block %d: %w", victim, err)
		}
		for i := range migs {
			m, newPPN := &migs[i], progs[i].PPN
			if m.pinned {
				f.pinned[m.oldPPN] = false
				f.blocks[f.geo.BlockOf(m.oldPPN)].pinned--
				f.pinned[newPPN] = true
				f.blocks[f.geo.BlockOf(newPPN)].pinned++
				f.rmap[newPPN] = m.lpn
				f.rmap[m.oldPPN] = NoLPN
				f.stats.PinMigrates++
				if f.ret != nil {
					f.ret.OnMigrate(m.lpn, m.oldPPN, newPPN, ts[i])
				}
			} else {
				f.blocks[f.geo.BlockOf(m.oldPPN)].valid--
				f.blocks[f.geo.BlockOf(newPPN)].valid++
				f.l2p.set(m.lpn, newPPN)
				f.rmap[newPPN] = m.lpn
				f.rmap[m.oldPPN] = NoLPN
				f.stats.GCMigrates++
			}
		}
		at = progDone
	}
	return at, f.eraseBlock(victim, at)
}

// eraseBlock physically erases block b from time at, reporting destroyed
// stale pages to the retainer, and returns it to the free pool. Bad blocks (endurance
// exceeded) are retired silently, shrinking the pool — that is the
// device-lifetime effect the paper's wear experiments measure.
func (f *FTL) eraseBlock(b uint64, at simclock.Time) error {
	base := b * uint64(f.geo.PagesPerBlock)
	if f.ret != nil {
		for i := 0; i < f.geo.PagesPerBlock; i++ {
			ppn := base + uint64(i)
			if lpn := f.rmap[ppn]; lpn != NoLPN && f.l2p.get(lpn) != ppn && !f.pinned[ppn] {
				f.stats.StaleErased++
				f.ret.OnErased(lpn, ppn, at)
			}
		}
	} else {
		for i := 0; i < f.geo.PagesPerBlock; i++ {
			ppn := base + uint64(i)
			if lpn := f.rmap[ppn]; lpn != NoLPN && f.l2p.get(lpn) != ppn {
				f.stats.StaleErased++
			}
		}
	}
	for i := 0; i < f.geo.PagesPerBlock; i++ {
		f.rmap[base+uint64(i)] = NoLPN
	}
	// The erase itself is suspend-capable background work (see
	// nand.Device.Erase): it does not advance the datapath clock. Its
	// latency surfaces only through the block's readyAt when a program
	// lands on the freshly erased block before the erase finished.
	_, err := f.dev.Erase(b, at)
	if err == nil {
		f.stats.Erases++
		if f.dev.Bad(b) {
			// The erase that hit the endurance limit succeeded, but the
			// block is now bad: retire it instead of recycling it.
			f.blocks[b] = blockInfo{state: blockFull}
			return nil
		}
		f.blocks[b] = blockInfo{state: blockFree}
		f.freeList = append(f.freeList, b)
		return nil
	}
	if err == nand.ErrBadBlock || f.dev.Bad(b) {
		// Retire the block: it simply never rejoins the free list.
		f.blocks[b] = blockInfo{state: blockFull}
		return nil
	}
	return fmt.Errorf("ftl: erase block %d: %w", b, err)
}
