package ftl

import (
	"fmt"

	"repro/internal/nand"
)

// Disposition classifies a programmed flash page during mount-time
// recovery.
type Disposition uint8

const (
	// DispLive: the page holds the current version of its logical page.
	DispLive Disposition = iota + 1
	// DispRetained: the page holds a stale version that must stay pinned
	// (RSSD's conservative retention survives reboots).
	DispRetained
	// DispDiscard: the page is stale and reclaimable (already offloaded,
	// or an uncommitted post-crash tail the owner rolls back).
	DispDiscard
)

// Page is one programmed flash page as the mount-time scan found it.
type Page struct {
	PPN uint64
	OOB nand.OOB
}

// Scan reads the OOB of every programmed page on every good block, in PPN
// order: the one walk over flash a power-on takes. The owner decides from it
// how much history it needs, then hands it to Recover.
func Scan(dev *nand.Device) ([]Page, error) {
	g := dev.Geometry()
	var pages []Page
	for block := uint64(0); block < uint64(g.TotalBlocks()); block++ {
		if dev.Bad(block) {
			continue // retired
		}
		for i, prog := 0, dev.Programmed(block); i < prog; i++ {
			ppn := g.PPN(block, i)
			oob, ok := dev.ReadOOB(ppn)
			if !ok {
				return nil, fmt.Errorf("ftl: scan: block %d page %d counted programmed but unreadable", block, i)
			}
			pages = append(pages, Page{ppn, oob})
		}
	}
	return pages, nil
}

// Recover adopts an existing NAND device image after a power cycle. It asks
// classify to judge each page Scan found; from the verdicts it rebuilds the
// mapping, reverse mapping, pin set, and block accounting. Partially
// programmed blocks are sealed (treated as full) rather than re-opened, the
// standard firmware practice that avoids writing after an uncertain last
// page.
//
// classify must return DispLive for exactly one page per logical page; the
// function returns an error if two pages claim the same LPN.
func Recover(cfg Config, dev *nand.Device, retainer Retainer, pages []Page, classify func(ppn uint64, oob nand.OOB) Disposition) (*FTL, error) {
	f := Attach(cfg, dev, retainer)
	g := f.geo
	// Attach assumed a blank device; rebuild the free list and block
	// states from what is actually on flash.
	f.freeList = f.freeList[:0]
	for b := range f.blocks {
		block := uint64(b)
		if !dev.Bad(block) && dev.Programmed(block) == 0 {
			f.blocks[b] = blockInfo{state: blockFree}
			f.freeList = append(f.freeList, block)
		} else {
			f.blocks[b] = blockInfo{state: blockFull} // retired, or sealed
		}
	}
	for _, p := range pages {
		ppn, oob := p.PPN, p.OOB
		bi := &f.blocks[g.BlockOf(ppn)]
		f.rmap[ppn] = oob.LPN
		switch classify(ppn, oob) {
		case DispLive:
			if oob.LPN >= f.logicalPages {
				return nil, fmt.Errorf("ftl: recover: live ppn %d claims out-of-range lpn %d", ppn, oob.LPN)
			}
			if f.l2p.get(oob.LPN) != NoPPN {
				return nil, fmt.Errorf("ftl: recover: lpn %d claimed live by ppn %d and %d", oob.LPN, f.l2p.get(oob.LPN), ppn)
			}
			f.l2p.set(oob.LPN, ppn)
			bi.valid++
		case DispRetained:
			f.pinned[ppn] = true
			bi.pinned++
		default: // DispDiscard: stale, reclaimable
		}
	}
	return f, nil
}
