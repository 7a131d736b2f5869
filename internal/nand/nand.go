// Package nand simulates raw NAND flash: the geometry, timing, wear, and
// programming constraints of the flash array on a Cosmos+ OpenSSD-class
// board (the hardware the RSSD paper prototypes on).
//
// The simulator enforces the three physical rules every FTL is built
// around:
//
//  1. Pages must be erased before they are programmed (no in-place update).
//  2. Pages within a block must be programmed in order.
//  3. Erasure happens at block granularity and wears the block out; a block
//     past its endurance limit goes bad.
//
// All operations account simulated time against per-chip next-free
// timestamps, so channel/chip parallelism behaves the way it does in the
// real device: two operations on different chips overlap, two on the same
// chip serialize.
package nand

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/bufpool"
	"repro/internal/simclock"
)

// Geometry describes the physical layout of the flash array.
type Geometry struct {
	Channels        int // independent buses to the controller
	ChipsPerChannel int // flash packages per channel
	DiesPerChip     int
	PlanesPerDie    int
	BlocksPerPlane  int
	PagesPerBlock   int
	PageSize        int // bytes of user data per page (OOB is modeled separately)
}

// DefaultGeometry mirrors a small Cosmos+ OpenSSD configuration scaled down
// so that unit tests and benchmarks run quickly while preserving the
// channel/chip parallelism that matters for latency behaviour.
func DefaultGeometry() Geometry {
	return Geometry{
		Channels:        4,
		ChipsPerChannel: 2,
		DiesPerChip:     1,
		PlanesPerDie:    1,
		BlocksPerPlane:  64,
		PagesPerBlock:   64,
		PageSize:        4096,
	}
}

// Validate reports whether every field is positive.
func (g Geometry) Validate() error {
	switch {
	case g.Channels <= 0, g.ChipsPerChannel <= 0, g.DiesPerChip <= 0,
		g.PlanesPerDie <= 0, g.BlocksPerPlane <= 0, g.PagesPerBlock <= 0:
		return fmt.Errorf("nand: non-positive geometry field: %+v", g)
	case g.PageSize <= 0 || g.PageSize%512 != 0:
		return fmt.Errorf("nand: page size %d must be a positive multiple of 512", g.PageSize)
	}
	return nil
}

// Chips returns the total number of independently busy flash chips.
func (g Geometry) Chips() int { return g.Channels * g.ChipsPerChannel }

// BlocksPerChip returns the number of blocks on one chip.
func (g Geometry) BlocksPerChip() int {
	return g.DiesPerChip * g.PlanesPerDie * g.BlocksPerPlane
}

// TotalBlocks returns the number of erase blocks in the array.
func (g Geometry) TotalBlocks() int { return g.Chips() * g.BlocksPerChip() }

// TotalPages returns the number of programmable pages in the array.
func (g Geometry) TotalPages() int { return g.TotalBlocks() * g.PagesPerBlock }

// CapacityBytes returns the raw capacity of the array.
func (g Geometry) CapacityBytes() int64 {
	return int64(g.TotalPages()) * int64(g.PageSize)
}

// BlockOf returns the block containing physical page ppn.
func (g Geometry) BlockOf(ppn uint64) uint64 { return ppn / uint64(g.PagesPerBlock) }

// PageIndexOf returns the in-block page index of ppn.
func (g Geometry) PageIndexOf(ppn uint64) int { return int(ppn % uint64(g.PagesPerBlock)) }

// ChipOfBlock returns the chip a block lives on. Blocks are striped so that
// consecutive block numbers land on consecutive chips, which gives
// sequential allocation natural channel parallelism.
func (g Geometry) ChipOfBlock(block uint64) int { return int(block % uint64(g.Chips())) }

// PPN composes a physical page number from a block and in-block index.
func (g Geometry) PPN(block uint64, page int) uint64 {
	return block*uint64(g.PagesPerBlock) + uint64(page)
}

// Timing holds the latency model. Defaults approximate mid-range MLC NAND,
// the class of flash on the Cosmos+ board.
type Timing struct {
	ReadLatency  simclock.Duration // cell read to register
	ProgramLatency simclock.Duration
	EraseLatency simclock.Duration
	Transfer     simclock.Duration // register <-> controller DMA per page
}

// DefaultTiming returns the latency model used throughout the evaluation.
func DefaultTiming() Timing {
	return Timing{
		ReadLatency:    50 * simclock.Microsecond,
		ProgramLatency: 500 * simclock.Microsecond,
		EraseLatency:   3 * simclock.Millisecond,
		Transfer:       25 * simclock.Microsecond,
	}
}

// Config configures a simulated device.
type Config struct {
	Geometry Geometry
	Timing   Timing
	// EnduranceLimit is the number of program/erase cycles a block
	// tolerates before it goes bad. Zero means unlimited (useful in
	// long-horizon tests that are not about wear).
	EnduranceLimit int
	// BitErrorProb is the probability that a read returns data with a
	// single flipped bit, used by fault-injection tests. Zero disables.
	BitErrorProb float64
	// Seed drives the deterministic error-injection stream.
	Seed int64
}

// DefaultConfig returns a config with DefaultGeometry and DefaultTiming and
// a 3000-cycle endurance limit (typical MLC).
func DefaultConfig() Config {
	return Config{Geometry: DefaultGeometry(), Timing: DefaultTiming(), EnduranceLimit: 3000}
}

// OOB is the out-of-band (spare-area) metadata stored with each page. The
// FTL uses it to rebuild reverse mappings; RSSD additionally stamps the
// operation-log sequence number and the content hash that log entry
// records, so a retained page ships under the hash the evidence chain
// bound at write time — not one recomputed from whatever a later flash read
// returns.
type OOB struct {
	LPN  uint64   // logical page the data belonged to when written
	Seq  uint64   // operation-log sequence number of the write
	Hash [32]byte // SHA-256 of the data as written (the log entry's DataHash); zero when the owner stamps none
	Kind uint8    // page kind tag, interpreted by the owner (host/GC/log)
}

// Errors returned by device operations.
var (
	ErrOutOfRange    = errors.New("nand: address out of range")
	ErrNotErased     = errors.New("nand: program to non-erased page")
	ErrNonSequential = errors.New("nand: non-sequential program within block")
	ErrUnwritten     = errors.New("nand: read of unwritten page")
	ErrBadBlock      = errors.New("nand: block is bad (endurance exceeded)")
	ErrPageSize      = errors.New("nand: payload size does not match page size")
)

type blockState struct {
	eraseCount int
	programmed int // pages programmed so far; next program must target this index
	bad        bool
	// readyAt is when the block's last erase completes. Erases run
	// suspend-capable (see Erase): other traffic on the chip proceeds,
	// but programs to this block must wait for readyAt.
	readyAt simclock.Time
}

// Stats counts raw flash operations; the FTL derives write amplification
// and lifetime estimates from these.
type Stats struct {
	Reads    uint64
	Programs uint64
	Erases   uint64
	BitErrors uint64
}

// Device is a simulated NAND flash array. It is safe for concurrent use.
type Device struct {
	geo    Geometry
	timing Timing
	cfg    Config

	mu       sync.Mutex
	pages    []*bufpool.Buf // nil = erased/unwritten; pooled page copies
	held     int64          // programmed pages currently holding a pooled buffer
	oobs     []OOB
	blocks   []blockState
	chipBusy []simclock.Time // host/GC datapath next-free per chip
	bgBusy   []simclock.Time // background (offload engine) next-free per chip
	sched    []chipQueue     // batch scheduler scratch, one queue per chip
	stats    Stats
	rng      *rand.Rand
}

// New builds a device from cfg. It panics if the geometry is invalid, since
// that is a programming error in the simulation setup, not a runtime
// condition.
func New(cfg Config) *Device {
	if err := cfg.Geometry.Validate(); err != nil {
		panic(err)
	}
	g := cfg.Geometry
	return &Device{
		geo:      g,
		timing:   cfg.Timing,
		cfg:      cfg,
		pages:    make([]*bufpool.Buf, g.TotalPages()),
		oobs:     make([]OOB, g.TotalPages()),
		blocks:   make([]blockState, g.TotalBlocks()),
		chipBusy: make([]simclock.Time, g.Chips()),
		bgBusy:   make([]simclock.Time, g.Chips()),
		sched:    make([]chipQueue, g.Chips()),
		rng:      rand.New(rand.NewSource(cfg.Seed)),
	}
}

// Geometry returns the device geometry.
func (d *Device) Geometry() Geometry { return d.geo }

// Stats returns a snapshot of the raw operation counters.
func (d *Device) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// occupy serializes an operation on the chip owning block: the operation
// starts when both the issuer (at) and the chip are free, and the chip is
// busy until start+dur. It returns the completion time.
func (d *Device) occupy(block uint64, at simclock.Time, dur simclock.Duration) simclock.Time {
	chip := d.geo.ChipOfBlock(block)
	start := simclock.Max(at, d.chipBusy[chip])
	done := start.Add(dur)
	d.chipBusy[chip] = done
	return done
}

// occupyBG serializes a background-lane operation: it starts only once the
// chip is free of host work and of earlier background work, and it never
// pushes the host lane's next-free time — modeling read-suspend, where a
// host command preempts a background read and the engine resumes in the
// next idle gap.
func (d *Device) occupyBG(block uint64, at simclock.Time, dur simclock.Duration) simclock.Time {
	chip := d.geo.ChipOfBlock(block)
	start := simclock.Max(at, simclock.Max(d.chipBusy[chip], d.bgBusy[chip]))
	done := start.Add(dur)
	d.bgBusy[chip] = done
	return done
}

// ReadBackground is Read on the background lane: the dedicated offload
// engine's page reads. The engine has strictly lower priority than the
// host datapath — its reads queue behind host operations and behind each
// other, but never delay subsequent host operations on the chip.
//
// The returned data is a pooled copy: the caller owns it until it calls
// data.Release(), after which the bytes may be reused by any pool consumer.
// This is the zero-copy read lane's contract — the offload engine releases
// each page once its bytes are sealed into a segment blob, so steady-state
// background reads allocate nothing.
func (d *Device) ReadBackground(ppn uint64, at simclock.Time) (data *bufpool.Buf, oob OOB, done simclock.Time, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	src, oob, done, err := d.readOn(ppn, at, d.occupyBG)
	if err != nil {
		return nil, oob, done, err
	}
	data = bufpool.Get(len(src))
	data.B = append(data.B, src...)
	d.maybeFlip(data.B)
	return data, oob, done, nil
}

// Read returns a copy of the page's data and OOB. The returned completion
// time reflects chip contention.
func (d *Device) Read(ppn uint64, at simclock.Time) (data []byte, oob OOB, done simclock.Time, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.readLocked(ppn, at)
}

// readLocked is Read with d.mu held.
func (d *Device) readLocked(ppn uint64, at simclock.Time) (data []byte, oob OOB, done simclock.Time, err error) {
	src, oob, done, err := d.readOn(ppn, at, d.occupy)
	if err != nil {
		return nil, oob, done, err
	}
	data = make([]byte, len(src))
	copy(data, src)
	d.maybeFlip(data)
	return data, oob, done, nil
}

// readOn performs a page read, charging chip time through the given lane
// (occupy for the host datapath, occupyBG for the offload engine). The
// returned slice aliases the stored page; callers copy it out before
// releasing d.mu.
func (d *Device) readOn(ppn uint64, at simclock.Time, lane func(uint64, simclock.Time, simclock.Duration) simclock.Time) (src []byte, oob OOB, done simclock.Time, err error) {
	if ppn >= uint64(len(d.pages)) {
		return nil, OOB{}, at, ErrOutOfRange
	}
	pg := d.pages[ppn]
	if pg == nil {
		return nil, OOB{}, at, ErrUnwritten
	}
	d.stats.Reads++
	done = lane(d.geo.BlockOf(ppn), at, d.timing.ReadLatency+d.timing.Transfer)
	return pg.B, d.oobs[ppn], done, nil
}

// maybeFlip injects a single-bit read error into data per the configured
// probability (fault-injection tests). Called with d.mu held so the rng
// stream stays deterministic.
func (d *Device) maybeFlip(data []byte) {
	if d.cfg.BitErrorProb > 0 && d.rng.Float64() < d.cfg.BitErrorProb {
		bit := d.rng.Intn(len(data) * 8)
		data[bit/8] ^= 1 << (bit % 8)
		d.stats.BitErrors++
	}
}

// Program writes data and OOB to an erased page. Pages within a block must
// be programmed sequentially, mirroring real NAND constraints.
func (d *Device) Program(ppn uint64, data []byte, oob OOB, at simclock.Time) (done simclock.Time, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.programLocked(ppn, data, oob, at)
}

// programLocked is Program with d.mu held.
func (d *Device) programLocked(ppn uint64, data []byte, oob OOB, at simclock.Time) (done simclock.Time, err error) {
	if ppn >= uint64(len(d.pages)) {
		return at, ErrOutOfRange
	}
	if len(data) != d.geo.PageSize {
		return at, ErrPageSize
	}
	block := d.geo.BlockOf(ppn)
	bs := &d.blocks[block]
	if bs.bad {
		return at, ErrBadBlock
	}
	if d.pages[ppn] != nil {
		return at, ErrNotErased
	}
	if idx := d.geo.PageIndexOf(ppn); idx != bs.programmed {
		return at, fmt.Errorf("%w: block %d page %d, expected page %d",
			ErrNonSequential, block, idx, bs.programmed)
	}
	// The stored copy is a pooled buffer: Erase releases it, so steady-state
	// program/erase churn recycles page memory instead of allocating it.
	buf := bufpool.Get(len(data))
	buf.B = append(buf.B, data...)
	d.pages[ppn] = buf
	d.held++
	d.oobs[ppn] = oob
	bs.programmed++
	d.stats.Programs++
	// A program cannot start until the block's erase has fully completed.
	return d.occupy(block, simclock.Max(at, bs.readyAt), d.timing.ProgramLatency+d.timing.Transfer), nil
}

// Erase wipes a block, incrementing its wear counter. Once the endurance
// limit is exceeded the block is marked bad and further programs fail.
//
// Erases are suspend-capable, as on modern NAND: host reads and programs
// to other blocks on the chip preempt an in-flight erase, so the erase
// occupies the chip's background lane instead of stalling the datapath
// for its full multi-millisecond latency. The erased block itself stays
// unavailable for programming until the erase completes (readyAt).
func (d *Device) Erase(block uint64, at simclock.Time) (done simclock.Time, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if block >= uint64(len(d.blocks)) {
		return at, ErrOutOfRange
	}
	bs := &d.blocks[block]
	if bs.bad {
		return at, ErrBadBlock
	}
	base := block * uint64(d.geo.PagesPerBlock)
	for i := 0; i < d.geo.PagesPerBlock; i++ {
		// Every read hands out a copy, so no borrowed view can outlive the
		// page; releasing the storage back to the pool here is what makes
		// the program path allocation-free in steady state.
		if d.pages[base+uint64(i)] != nil {
			d.pages[base+uint64(i)].Release()
			d.pages[base+uint64(i)] = nil
			d.held--
		}
		d.oobs[base+uint64(i)] = OOB{}
	}
	bs.programmed = 0
	bs.eraseCount++
	d.stats.Erases++
	if d.cfg.EnduranceLimit > 0 && bs.eraseCount >= d.cfg.EnduranceLimit {
		bs.bad = true
	}
	done = d.occupyBG(block, at, d.timing.EraseLatency)
	bs.readyAt = done
	return done, nil
}

// ReadOOB returns a page's out-of-band metadata without transferring the
// data, reporting ok=false for erased pages. Mount-time recovery scans use
// it; like real OOB scans it does not occupy the data path, so no
// simulated time is charged.
func (d *Device) ReadOOB(ppn uint64) (OOB, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if ppn >= uint64(len(d.pages)) || d.pages[ppn] == nil {
		return OOB{}, false
	}
	return d.oobs[ppn], true
}

// HeldPageBufs returns how many pooled page buffers the array currently
// holds for programmed flash content. Leak checks against the bufpool
// outstanding-buffer gauge subtract this residency: live flash data is
// supposed to hold its buffers, and only growth beyond it is a leak.
func (d *Device) HeldPageBufs() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.held
}

// EraseCount returns a block's wear counter.
func (d *Device) EraseCount(block uint64) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	if block >= uint64(len(d.blocks)) {
		return 0
	}
	return d.blocks[block].eraseCount
}

// Bad reports whether a block has exceeded its endurance limit.
func (d *Device) Bad(block uint64) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return block < uint64(len(d.blocks)) && d.blocks[block].bad
}

// WearSummary returns the min, max and mean erase counts across all
// non-bad blocks; wear-leveling tests and the lifetime experiment use it.
func (d *Device) WearSummary() (min, max int, mean float64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.blocks) == 0 {
		return 0, 0, 0
	}
	min = int(^uint(0) >> 1)
	var sum, n int
	for i := range d.blocks {
		b := &d.blocks[i]
		if b.bad {
			continue
		}
		if b.eraseCount < min {
			min = b.eraseCount
		}
		if b.eraseCount > max {
			max = b.eraseCount
		}
		sum += b.eraseCount
		n++
	}
	if n == 0 {
		return 0, max, 0
	}
	return min, max, float64(sum) / float64(n)
}

// Programmed returns how many pages of the block have been programmed; the
// FTL uses it when adopting a device image (e.g. after simulated power
// cycle in recovery tests).
func (d *Device) Programmed(block uint64) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	if block >= uint64(len(d.blocks)) {
		return 0
	}
	return d.blocks[block].programmed
}
