// Package ftl implements a page-mapping flash translation layer over the
// simulated NAND array: logical-to-physical mapping, multi-stream block
// allocation, greedy and cost-benefit garbage collection, wear-aware block
// selection, trim, and write-amplification accounting.
//
// Unmodified, this package is the paper's "LocalSSD" baseline: stale data
// survives only until garbage collection reclaims it. The RSSD design
// (internal/core) and the FlashGuard/TimeSSD-like baselines
// (internal/baseline) plug into the same FTL through the Retainer
// interface, which observes every page invalidation and can pin stale
// pages so GC must preserve them. This mirrors how the paper implements
// RSSD: as a modification of the flash management firmware, not a layer
// above the block interface.
package ftl

import (
	"errors"
	"fmt"

	"repro/internal/bufpool"
	"repro/internal/nand"
	"repro/internal/simclock"
)

// Stream identifies which write front a page allocation belongs to.
// Separating host, GC, and log writes into different active blocks reduces
// mixing of hot and cold data, and gives RSSD a dedicated append point for
// remapped/retained pages.
type Stream int

const (
	StreamHost     Stream = iota // host-issued writes
	StreamGC                     // GC migrations of valid data
	StreamLog                    // RSSD: retained-page relocations and log pages
	StreamRecovery               // RSSD: pages a restore rolls back, striped over every chip
	numStreams
)

// way is one open block of a stream's write front.
type way struct {
	block uint64
	open  bool
	next  int // first unallocated page of block
}

// front is a stream's write front: its open blocks, and whose turn it is.
// The host, GC and log fronts are one way wide, so each fills one block at a
// time. The recovery front has a way per chip — way w opens only blocks of
// chip w — and takes its next page from the next way, so consecutive pages
// of a recovery batch land on consecutive chips and program side by side.
type front struct {
	ways []way
	cur  int
}

// StaleCause says why a physical page became stale.
type StaleCause uint8

const (
	CauseOverwrite StaleCause = iota + 1 // host overwrote the logical page
	CauseTrim                            // host trimmed the logical page
)

func (c StaleCause) String() string {
	switch c {
	case CauseOverwrite:
		return "overwrite"
	case CauseTrim:
		return "trim"
	default:
		return fmt.Sprintf("StaleCause(%d)", uint8(c))
	}
}

// Retainer observes invalidations and controls retention of stale pages.
// RSSD's hardware-assisted logging is a Retainer that pins everything and
// releases pins once the data is safely offloaded; the baselines implement
// weaker policies. All methods are called with the FTL's internal lock
// held; implementations must not call back into the FTL except through
// the explicitly reentrant-safe methods (Release, ReadPhysical) after the
// callback returns. The Pressure callback is the exception: it is invoked
// with the lock held but may call Release.
type Retainer interface {
	// OnStale is invoked when ppn (holding lpn's previous contents)
	// becomes stale. Returning true pins the page: GC will migrate it
	// instead of erasing it, until Release(ppn) is called.
	OnStale(lpn, ppn uint64, cause StaleCause, at simclock.Time) bool

	// OnMigrate is invoked when GC relocates a pinned page. The pin
	// transfers from oldPPN to newPPN automatically; the retainer only
	// needs to update its own index.
	OnMigrate(lpn, oldPPN, newPPN uint64, at simclock.Time)

	// OnErased is invoked when a stale, unpinned page is physically
	// destroyed by a block erase. Baselines use it to measure how long
	// stale data actually survived.
	OnErased(lpn, ppn uint64, at simclock.Time)

	// Pressure is invoked when GC cannot find any reclaimable space
	// because pinned pages occupy it. The retainer must release pins
	// (after offloading, for RSSD; by dropping oldest data, for the
	// local baselines) or the triggering write fails with ErrNoSpace.
	Pressure(needPages int, at simclock.Time)
}

// ReadObserver is an optional extension of Retainer: implementations also
// see host reads. FlashGuard-class baselines need this, since their
// retention policy keys on read-then-overwrite patterns.
type ReadObserver interface {
	OnHostRead(lpn uint64, at simclock.Time)
}

// Sentinel mapping values.
const (
	// NoPPN marks a logical page with no physical mapping (never written
	// or trimmed). Reads of such pages return zeroes, as SSDs do.
	NoPPN = ^uint64(0)
	// NoLPN marks a physical page not owned by any logical page (log
	// stream pages and unwritten pages).
	NoLPN = ^uint64(0)
)

// GCPolicy selects the victim-block scoring function.
type GCPolicy int

const (
	// GreedyGC picks the block with the most reclaimable pages.
	GreedyGC GCPolicy = iota
	// CostBenefitGC weighs reclaimable space against migration cost and
	// block age (the classic cost-benefit cleaner).
	CostBenefitGC
)

// Config configures the FTL.
type Config struct {
	NAND nand.Config
	// OverProvision is the fraction of raw capacity hidden from the
	// host; it is the headroom GC and retention live in. Default 0.07
	// plus whatever RetentionReserve asks for.
	OverProvision float64
	// GCLowWater triggers garbage collection when the free-block count
	// drops to it; GCHighWater is where collection stops.
	GCLowWater  int
	GCHighWater int
	Policy      GCPolicy
	// EagerTrimErase erases a block as soon as trim leaves it with no
	// valid or pinned pages, modeling drives that honour trim
	// aggressively. The paper's trimming attack exploits exactly this
	// fast physical destruction on conventional SSDs.
	EagerTrimErase bool
	// WearLevelThreshold bounds the allowed erase-count spread. When the
	// spread reaches it, GC recycles the coldest full block (static wear
	// leveling). Zero selects the default (8); negative disables.
	WearLevelThreshold int
}

// DefaultConfig returns an FTL configuration over the default NAND device:
// 7% over-provisioning and watermark GC.
func DefaultConfig() Config {
	return Config{
		NAND:          nand.DefaultConfig(),
		OverProvision: 0.07,
		GCLowWater:    2,
		GCHighWater:   4,
		Policy:        GreedyGC,
	}
}

// Errors returned by the FTL.
var (
	ErrNoSpace     = errors.New("ftl: no reclaimable space (device full)")
	ErrOutOfRange  = errors.New("ftl: logical page out of range")
	ErrBadPageSize = errors.New("ftl: payload must be exactly one page")
	ErrNotPinned   = errors.New("ftl: page is not pinned")
)

type blockInfo struct {
	valid    int // live mapped pages
	pinned   int // stale pages pinned by the retainer
	seq      uint64
	allocSeq uint64 // when the block last became active (for cost-benefit age)
	state    blockStateKind
}

type blockStateKind uint8

const (
	blockFree blockStateKind = iota
	blockActive
	blockFull
)

// Stats aggregates FTL-level counters. NAND-level counters (total
// programs, erases) live in nand.Stats; together they yield write
// amplification and lifetime estimates.
type Stats struct {
	HostWrites  uint64 // host pages written
	HostReads   uint64
	Trims       uint64
	GCRuns      uint64
	GCMigrates  uint64 // valid-page migrations
	PinMigrates uint64 // pinned (retained) page migrations
	Erases      uint64
	StaleErased uint64 // stale pages physically destroyed
	// Latency accumulators in simulated ns, for the <1% overhead claim.
	HostWriteLatency simclock.Duration
	HostReadLatency  simclock.Duration
}

// FTL is a page-mapping flash translation layer. Not safe for concurrent
// use: the simulation driver issues operations from one goroutine, like
// the single firmware event loop on the device.
type FTL struct {
	cfg Config
	geo nand.Geometry
	dev *nand.Device
	ret Retainer // may be nil (plain LocalSSD)

	l2p    *l2pTable // logical page -> PPN or NoPPN, sharded by LPN
	rmap   []uint64  // PPN -> logical page or NoLPN
	pinned []bool    // PPN -> pinned by retainer

	blocks   []blockInfo
	freeList []uint64
	fronts   [numStreams]front
	allocSeq uint64

	logicalPages uint64
	stats        Stats
	zeroPage     []byte
	inGC         bool
}

// New builds an FTL (and its NAND device) from cfg. retainer may be nil.
func New(cfg Config, retainer Retainer) *FTL {
	dev := nand.New(cfg.NAND)
	return Attach(cfg, dev, retainer)
}

// LogicalPages returns the host-visible capacity, in pages, of an FTL built
// from c: whole blocks, the over-provisioned share held back. Reopen sizes
// its replay table with it before there is an FTL to ask.
func (c Config) LogicalPages() uint64 {
	if c.OverProvision <= 0 {
		c.OverProvision = 0.07
	}
	g := c.NAND.Geometry
	logicalBlocks := max(1, int(float64(g.TotalBlocks())*(1-c.OverProvision)))
	return uint64(logicalBlocks) * uint64(g.PagesPerBlock)
}

// Attach builds an FTL over an existing device. Recovery tests use this to
// re-adopt a device image after a simulated power cycle.
func Attach(cfg Config, dev *nand.Device, retainer Retainer) *FTL {
	g := cfg.NAND.Geometry
	logicalPages := cfg.LogicalPages()
	if cfg.GCLowWater <= 0 {
		cfg.GCLowWater = 2
	}
	if cfg.GCHighWater <= cfg.GCLowWater {
		cfg.GCHighWater = cfg.GCLowWater + 2
	}
	if cfg.WearLevelThreshold == 0 {
		cfg.WearLevelThreshold = 8
	}
	f := &FTL{
		cfg:          cfg,
		geo:          g,
		dev:          dev,
		ret:          retainer,
		l2p:          newL2P(logicalPages),
		rmap:         make([]uint64, g.TotalPages()),
		pinned:       make([]bool, g.TotalPages()),
		blocks:       make([]blockInfo, g.TotalBlocks()),
		logicalPages: logicalPages,
		zeroPage:     make([]byte, g.PageSize),
	}
	for i := range f.rmap {
		f.rmap[i] = NoLPN
	}
	for s := range f.fronts {
		f.fronts[s].ways = make([]way, 1)
	}
	f.fronts[StreamRecovery].ways = make([]way, g.Chips())
	f.freeList = make([]uint64, 0, g.TotalBlocks())
	for b := 0; b < g.TotalBlocks(); b++ {
		f.freeList = append(f.freeList, uint64(b))
	}
	return f
}

// Geometry returns the underlying NAND geometry.
func (f *FTL) Geometry() nand.Geometry { return f.geo }

// Device returns the underlying NAND device (read-only use expected).
func (f *FTL) Device() *nand.Device { return f.dev }

// LogicalPages returns the number of logical pages exposed to the host.
func (f *FTL) LogicalPages() uint64 { return f.logicalPages }

// PageSize returns the page size in bytes.
func (f *FTL) PageSize() int { return f.geo.PageSize }

// Stats returns a snapshot of FTL counters.
func (f *FTL) Stats() Stats { return f.stats }

// WAF returns the write-amplification factor observed so far:
// total NAND programs divided by host page writes.
func (f *FTL) WAF() float64 {
	if f.stats.HostWrites == 0 {
		return 0
	}
	return float64(f.dev.Stats().Programs) / float64(f.stats.HostWrites)
}

// FreePages returns the number of immediately programmable pages
// (free blocks plus the tails of active blocks). The GC attack drives this
// toward zero.
func (f *FTL) FreePages() int {
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

// PinnedPages returns how many physical pages are currently pinned.
func (f *FTL) PinnedPages() int {
	n := 0
	for _, b := range f.blocks {
		n += b.pinned
	}
	return n
}

// MappedPages returns how many logical pages currently map to flash.
func (f *FTL) MappedPages() int {
	n := 0
	for _, b := range f.blocks {
		n += b.valid
	}
	return n
}

// Lookup returns the current physical page of lpn, or NoPPN.
func (f *FTL) Lookup(lpn uint64) uint64 {
	if lpn >= f.logicalPages {
		return NoPPN
	}
	return f.l2p.get(lpn)
}

// LookupBatch resolves a group of LPNs against the sharded mapping table
// in one call. Out-of-range LPNs resolve to NoPPN, like Lookup.
func (f *FTL) LookupBatch(lpns []uint64) []uint64 {
	out := make([]uint64, len(lpns))
	for i, lpn := range lpns {
		if lpn >= f.logicalPages {
			out[i] = NoPPN
		} else {
			out[i] = f.l2p.get(lpn)
		}
	}
	return out
}

// RetentionBudgetPages returns the number of physical pages beyond the
// logical capacity — the space stale data can occupy locally before
// something must give (offload for RSSD, destruction for baselines).
func (f *FTL) RetentionBudgetPages() int {
	return f.geo.TotalPages() - int(f.logicalPages)
}

// Write stores one page of data at logical page lpn, invalidating any
// previous version (which the retainer may pin). It returns the simulated
// completion time.
func (f *FTL) Write(lpn uint64, data []byte, at simclock.Time) (simclock.Time, error) {
	if lpn >= f.logicalPages {
		return at, ErrOutOfRange
	}
	if len(data) != f.geo.PageSize {
		return at, ErrBadPageSize
	}
	ppn, _, issue, err := f.alloc(StreamHost, 1, at)
	if err != nil {
		return at, err
	}
	done, err := f.dev.Program(ppn, data, nand.OOB{LPN: lpn}, issue)
	if err != nil {
		return at, fmt.Errorf("ftl: program ppn %d: %w", ppn, err)
	}
	if old := f.l2p.get(lpn); old != NoPPN {
		f.invalidate(lpn, old, CauseOverwrite, done)
	}
	f.l2p.set(lpn, ppn)
	f.rmap[ppn] = lpn
	f.blocks[f.geo.BlockOf(ppn)].valid++
	f.stats.HostWrites++
	f.stats.HostWriteLatency += done.Sub(at)
	return done, nil
}

// Read returns the current contents of lpn. Unmapped or trimmed pages read
// as zeroes, as on a real SSD.
func (f *FTL) Read(lpn uint64, at simclock.Time) ([]byte, simclock.Time, error) {
	if lpn >= f.logicalPages {
		return nil, at, ErrOutOfRange
	}
	f.stats.HostReads++
	if ro, ok := f.ret.(ReadObserver); ok {
		ro.OnHostRead(lpn, at)
	}
	ppn := f.l2p.get(lpn)
	if ppn == NoPPN {
		buf := make([]byte, f.geo.PageSize)
		return buf, at, nil
	}
	data, _, done, err := f.dev.Read(ppn, at)
	if err != nil {
		return nil, at, fmt.Errorf("ftl: read lpn %d (ppn %d): %w", lpn, ppn, err)
	}
	f.stats.HostReadLatency += done.Sub(at)
	return data, done, nil
}

// Trim invalidates lpn without writing new data. On a conventional SSD the
// stale page is then destroyed at the drive's convenience — immediately,
// when EagerTrimErase is set. A Retainer may pin it instead; that is the
// heart of RSSD's enhanced trim.
func (f *FTL) Trim(lpn uint64, at simclock.Time) (simclock.Time, error) {
	if lpn >= f.logicalPages {
		return at, ErrOutOfRange
	}
	f.stats.Trims++
	ppn := f.l2p.get(lpn)
	if ppn == NoPPN {
		return at, nil
	}
	f.l2p.set(lpn, NoPPN)
	f.invalidate(lpn, ppn, CauseTrim, at)
	if f.cfg.EagerTrimErase {
		b := f.geo.BlockOf(ppn)
		bi := &f.blocks[b]
		if bi.state == blockFull && bi.valid == 0 && bi.pinned == 0 {
			return f.eraseBlock(b, at)
		}
	}
	return at, nil
}

// invalidate marks ppn stale and offers it to the retainer.
func (f *FTL) invalidate(lpn, ppn uint64, cause StaleCause, at simclock.Time) {
	b := f.geo.BlockOf(ppn)
	f.blocks[b].valid--
	// rmap keeps pointing at the old LPN: pinned pages need it for
	// migration and forensics; for unpinned pages it is cleaned at erase.
	if f.ret != nil && f.ret.OnStale(lpn, ppn, cause, at) {
		f.pinned[ppn] = true
		f.blocks[b].pinned++
	}
}

// Release unpins a physical page, making it reclaimable by GC. RSSD calls
// this once the page's contents are durably offloaded; local baselines
// call it when their retention policy expires the page.
func (f *FTL) Release(ppn uint64) error {
	if ppn >= uint64(len(f.pinned)) || !f.pinned[ppn] {
		return ErrNotPinned
	}
	f.pinned[ppn] = false
	f.blocks[f.geo.BlockOf(ppn)].pinned--
	return nil
}

// ReadPhysical reads a physical page directly (pinned retained data or any
// programmed page). RSSD's offload path and the recovery engine use it.
func (f *FTL) ReadPhysical(ppn uint64, at simclock.Time) ([]byte, nand.OOB, simclock.Time, error) {
	return f.dev.Read(ppn, at)
}

// ReadPhysicalBackground reads a physical page on the NAND background
// lane: the hardware-isolated offload engine's reads, which yield the chip
// to host traffic (see nand.Device.ReadBackground). The returned data is a
// pooled buffer the caller must Release once its bytes are captured — the
// zero-copy read-lane contract that keeps background reads allocation-free.
func (f *FTL) ReadPhysicalBackground(ppn uint64, at simclock.Time) (*bufpool.Buf, nand.OOB, simclock.Time, error) {
	return f.dev.ReadBackground(ppn, at)
}

// needsNewBlock reports whether the next allocation on stream has to open
// a fresh block (and may therefore trigger garbage collection).
func (f *FTL) needsNewBlock(stream Stream) bool {
	fr := &f.fronts[stream]
	w := &fr.ways[fr.cur]
	return !w.open || w.next >= f.geo.PagesPerBlock
}

// alloc is the one block allocator. It reserves pages at the stream's current
// way and moves the front on to the next: up to want consecutive pages of the
// open block on a one-way front (the run never spans blocks, so callers that
// want more simply call again), a single page on the striped recovery front.
// It returns the first reserved PPN and the run length (>= 1 on success). A
// way whose block is exhausted opens a new one, running GC first unless the
// caller is GC itself (maybeGC does not recurse); a recovery way whose chip
// has no free block is passed over this round. Reserved pages MUST be
// programmed before their way opens its next block — batch writers program
// what they hold before an allocation that may collect, keeping the NAND
// sequential-program invariant.
func (f *FTL) alloc(stream Stream, want int, at simclock.Time) (uint64, int, simclock.Time, error) {
	fr := &f.fronts[stream]
	for range fr.ways {
		wi := fr.cur
		w := &fr.ways[wi]
		if f.needsNewBlock(stream) {
			var err error
			if at, err = f.openBlock(stream, wi, at); err != nil {
				return 0, 0, at, err
			}
		}
		fr.cur = (wi + 1) % len(fr.ways)
		if !w.open {
			continue
		}
		n := 1
		if len(fr.ways) == 1 {
			n = min(want, f.geo.PagesPerBlock-w.next)
		}
		ppn := f.geo.PPN(w.block, w.next)
		w.next += n
		return ppn, n, at, nil
	}
	return 0, 0, at, ErrNoSpace
}

// openBlock retires the filled block of way wi of the stream's front and
// opens the next: for the host front an open block the recovery front left
// behind, else the least-worn free block — of the way's own chip on the
// striped front. Finding none leaves the way closed.
func (f *FTL) openBlock(stream Stream, wi int, at simclock.Time) (simclock.Time, error) {
	fr := &f.fronts[stream]
	w := &fr.ways[wi]
	if w.open {
		f.blocks[w.block].state = blockFull
		w.open = false
	}
	if stream == StreamHost && f.adoptRecoveryBlock(w) {
		return at, nil
	}
	at, err := f.maybeGC(at)
	if err != nil {
		return at, err
	}
	chip := -1
	if len(fr.ways) > 1 {
		chip = wi
	}
	blk, ok := f.takeFreeBlock(chip)
	if !ok {
		return at, nil
	}
	*w = way{block: blk, open: true}
	f.allocSeq++
	f.blocks[blk].state = blockActive
	f.blocks[blk].allocSeq = f.allocSeq
	return at, nil
}

// adoptRecoveryBlock hands w the first block with room that the recovery
// front holds open, and retires the full ones it passes. The FTL is
// single-threaded, so recovery is never mid-batch when the host allocates;
// without this an idle recovery front would strand up to a block per chip of
// free pages where host writes cannot reach them.
func (f *FTL) adoptRecoveryBlock(w *way) bool {
	ways := f.fronts[StreamRecovery].ways
	for i := range ways {
		if !ways[i].open {
			continue
		}
		ways[i].open = false
		if ways[i].next < f.geo.PagesPerBlock {
			*w = way{block: ways[i].block, open: true, next: ways[i].next}
			return true
		}
		f.blocks[ways[i].block].state = blockFull
	}
	return false
}

// takeFreeBlock removes and returns the coldest (least-worn) free block,
// implementing static wear leveling at allocation time. chip >= 0 restricts
// the choice to that chip's blocks.
func (f *FTL) takeFreeBlock(chip int) (uint64, bool) {
	best, bestWear := -1, int(^uint(0)>>1)
	for i, b := range f.freeList {
		if chip >= 0 && f.geo.ChipOfBlock(b) != chip {
			continue
		}
		if w := f.dev.EraseCount(b); w < bestWear {
			best, bestWear = i, w
		}
	}
	if best < 0 {
		return 0, false
	}
	blk := f.freeList[best]
	f.freeList[best] = f.freeList[len(f.freeList)-1]
	f.freeList = f.freeList[:len(f.freeList)-1]
	return blk, true
}
