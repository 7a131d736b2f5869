// Package core implements RSSD, the ransomware-aware SSD of the paper: an
// FTL extended with hardware-assisted logging, conservative retention of
// all stale data, an enhanced trim that retains trimmed data, and a
// hardware-isolated offload path that ships retained pages and the
// operation log to remote storage in time order.
//
// The design invariant is zero data loss: a stale page's local copy is
// only released for garbage collection after the remote server has
// acknowledged durable receipt of its contents. Under that invariant the
// three Ransomware 2.0 attacks are neutralized:
//
//   - GC attack: flooding the device forces GC, but GC can only reclaim
//     space by migrating pins or after offload has drained them — the old
//     versions survive remotely, so forcing GC destroys nothing.
//   - Timing attack: retention is no longer bounded by local capacity, so
//     encrypting slowly does not outlast the retention window; and the
//     remote detection pipeline sees entropy-stamped logs regardless of
//     pacing.
//   - Trimming attack: trim is remapped, not destructive — the trimmed
//     data is retained and offloaded like any overwrite.
package core

import (
	"errors"

	"repro/internal/batch"
	"repro/internal/ftl"
	"repro/internal/netsim"
	"repro/internal/oplog"
	"repro/internal/remote"
	"repro/internal/simclock"
)

// Config configures an RSSD instance.
type Config struct {
	FTL      ftl.Config
	DeviceID uint64

	// OffloadHighWater and OffloadLowWater are fractions of the retention
	// budget (the over-provisioned page pool). When locally retained
	// pages exceed High, the offload engine drains them to Low.
	OffloadHighWater float64
	OffloadLowWater  float64
	// OffloadQueueDepth bounds the offload engine's in-flight segments
	// (shipped, their acks not yet due). When that many are in flight the
	// host stalls until the oldest ack is due — the backpressure point of
	// the pipeline. Default 8.
	OffloadQueueDepth int
	// NIC, when set, is the shared server-NIC arbiter this device's
	// offload traffic is charged to (as one ClassOffload flow): transfers
	// contend with fleet restore streams under the arbiter's strict
	// priority, which guarantees offload 10 % of the line. nil gives
	// the device a private 1200 MB/s, 30µs link — an arbiter whose only
	// flow is this one, so every transfer sees the full line.
	NIC *netsim.Arbiter
	// Dial, when set, lets the device re-establish remote sessions itself:
	// the offload engine redials a dead session with exponential backoff
	// and resumes from the server's FetchHead, and the restorer uses it to
	// resume interrupted image streams. Without it, a dead session fails
	// segments until a caller attaches a new client by hand — the
	// pre-redial behaviour.
	Dial DialFunc
}

// The retry schedule of a dead remote session, shared by the offload
// engine's redial and the restorer's stream resume: the first retry waits
// backoffBase of simulated time, each later one twice the one before, up to
// backoffMax. A restore gives up after maxResumes+1 failed dials or cut
// streams.
const (
	backoffBase = simclock.Millisecond
	backoffMax  = 32 * simclock.Millisecond
	maxResumes  = 8
)

// segmentMaxPages bounds the retained pages one offload segment carries.
// checkpointEvery ships a checkpoint (the live write sequence of every LPN,
// what Reopen replays from) after that many host ops; CheckpointNow writes
// one on demand.
const (
	segmentMaxPages = 128
	checkpointEvery = 4096
)

// DefaultConfig returns the configuration used across the evaluation.
func DefaultConfig() Config {
	return Config{
		FTL:               ftl.DefaultConfig(),
		DeviceID:          1,
		OffloadHighWater:  0.70,
		OffloadLowWater:   0.40,
		OffloadQueueDepth: 8,
	}
}

// Stats aggregates RSSD-level counters on top of the FTL's.
type Stats struct {
	HostWrites      uint64
	HostReads       uint64
	HostTrims       uint64
	RetainedNow     int
	OffloadSegments uint64
	OffloadPages    uint64
	// OffloadBytesWire is what actually crossed the NVMe-oE link: codec-
	// framed (compressed) segment blobs. OffloadBytesLogical is the same
	// segments' uncompressed marshal size; wire < logical is the
	// compression the retention budget and link model are sized with.
	OffloadBytesWire    uint64
	OffloadBytesLogical uint64
	ReleasedPins        uint64
	Checkpoints         uint64
	PressureEvents      uint64
	OffloadErrors       uint64 // background offload failures (retried)
	// OffloadLatency is the total simulated time the offload engine spent
	// moving data — background-lane flash reads plus seal-to-ack spans.
	// None of it is charged to host I/O; the host pays only queue-full
	// stalls (OffloadStallTime).
	OffloadLatency simclock.Duration
	// OffloadAckTime is the cumulative seal-to-ack span over acked
	// segments; OffloadAckTime / OffloadSegments is the mean ack latency.
	// It includes the encode stage, the link transfer, and the storage
	// tier's modeled Put service time reported back in each segment ack —
	// device-side ack latency reflects the backend, not just the wire.
	OffloadAckTime simclock.Duration
	// OffloadTierTime is the share of OffloadAckTime spent in the storage
	// tier's modeled Put service (zero on free local tiers).
	OffloadTierTime simclock.Duration
	// EncodeTime is the total simulated time the codec lanes spent
	// compressing sealed segments, overlapped with host I/O and the link.
	// EncodeQueuePeak is the deepest the encode stage ever got — segments
	// still on a simulated codec lane when a new seal arrived.
	EncodeTime      simclock.Duration
	EncodeQueuePeak int
	// OffloadStalls / OffloadStallTime count host stalls from staging-
	// queue backpressure (the queue was full, the host waited for an ack).
	OffloadStalls    uint64
	OffloadStallTime simclock.Duration
	// OffloadQueuePeak is the deepest the staging pipeline ever got.
	OffloadQueuePeak int
	// OffloadInFlight is the current number of staged, unacked pages.
	OffloadInFlight int
	// OffloadRetries counts failed segment batches requeued for retry.
	OffloadRetries uint64
	// Redials counts sessions the engine re-established itself from the
	// configured dial factory; RedialAttempts additionally counts the
	// attempts that failed and backed off.
	Redials        uint64
	RedialAttempts uint64
	// RedialExhausted counts OffloadNow calls that gave up after
	// maxRedialWaits backoff waits with the session still dead (the typed
	// ErrRedialExhausted return) — distinct from slow-but-successful heals,
	// which only accumulate RedialWaitTime.
	RedialExhausted uint64
	// ResumeGap accumulates log entries found durable at the server
	// (FetchHead) on redial whose acks died with the old session — work
	// the reconcile step did NOT re-ship. A mid-batch disconnect between
	// send and ack shows up here instead of as duplicate chain entries.
	ResumeGap uint64
	// RedialWaitTime is simulated time OffloadNow spent waiting out the
	// redial backoff for a dead session — the device-observed outage cost
	// of a server failover, as opposed to RedialAttempts which only counts
	// the dials themselves.
	RedialWaitTime simclock.Duration
	// ReopenHeld / ReopenRepinned split the committed stale flash pages
	// Reopen found: held ones the server already lists with the chain's
	// hash (released, never shipped again), repinned ones it does not (the
	// unshipped tail — the next drain ships exactly these).
	ReopenHeld     uint64
	ReopenRepinned uint64
	// LastOffloadError is the most recent background offload/checkpoint
	// failure ("" when the last attempt succeeded) — the SMART-log style
	// surfacing of errors that never reach host I/O.
	LastOffloadError string
}

// retEntry tracks one locally retained stale page version.
type retEntry struct {
	ppn      uint64
	lpn      uint64
	writeSeq uint64 // log seq of the write that created this version
	staleSeq uint64 // log seq of the op that invalidated it
	at       simclock.Time
	// newer and older are the entry's neighbours in its LPN's chain (see
	// retByLPN); nil at either end and once the entry is unpinned.
	newer, older *retEntry
	cause        ftl.StaleCause
	released     bool
}

// RSSD is the ransomware-aware SSD. Like the FTL it wraps, it is driven
// from a single simulation goroutine (the firmware event loop).
type RSSD struct {
	cfg Config
	f   *ftl.FTL
	log *oplog.Log

	client *remote.Client // nil = no remote attached

	retained map[uint64]*retEntry // by current PPN
	// retByLPN[lpn] is the newest pinned version of lpn, nil when none: the
	// head of a chain through the entries, newest to oldest by writeSeq.
	retByLPN []*retEntry
	retQueue []*retEntry // stale-time order (offload FIFO)
	retHead  int         // queue head index (popped prefix)
	retSlab  []retEntry  // where pin cuts the next entries from

	lpnWriteSeq []uint64 // seq of the latest write per LPN (NoSeq if none)

	curStaleSeq    uint64 // seq to attribute OnStale events to
	offloadedUpTo  uint64 // log entries below this are durably remote (acked)
	stagedUpTo     uint64 // log entries below this are sealed into segments
	opsSinceCP     uint64
	lastOffloadErr error

	// Redial state: a transport-level failure marks the session dead; the
	// background duty cycle then re-establishes it from cfg.Dial on an
	// exponential simulated-time backoff (see maybeRedial). A server-side
	// chain rejection instead schedules a FetchHead reconcile over the
	// healthy session.
	sessionDead   bool
	needReconcile bool
	redialBackoff simclock.Duration
	nextRedialAt  simclock.Time

	engine *offloadEngine // offload pipeline of the current session (lazy)
	// nic is the arbiter this device's offload traffic is priced on —
	// cfg.NIC, or a private one on the device's own link — resolved at the
	// first offload. nicFlow is the device's offload-class flow on it: it
	// spans engine restarts (the device's NVMe-oE session on the server
	// NIC) and closes with the device.
	nic     *netsim.Arbiter
	nicFlow *netsim.Flow

	scratch scratch // the working memory of host and restore runs

	// rolling is the restore in flight (nil when none): releaseSegment holds
	// the acked pins at or past its cursor.
	rolling *rollback

	stats Stats
}

// NoSeq marks an LPN that has never been written.
const NoSeq = ^uint64(0)

// Errors returned by RSSD operations.
var (
	ErrNoRemote = errors.New("core: no remote client attached")
	// ErrRedialExhausted reports that OffloadNow waited out maxRedialWaits
	// scheduled redial backoffs with the session still dead — the dial
	// factory never produced a live server. Callers distinguish this
	// ("gave up") from a transient push failure ("healed slowly") with
	// errors.Is; Stats.RedialExhausted counts occurrences.
	ErrRedialExhausted = errors.New("core: offload redial budget exhausted with session dead")
)

// normalize fills the Config defaults shared by New and Reopen.
func (cfg Config) normalize() Config {
	if cfg.OffloadHighWater <= 0 {
		cfg.OffloadHighWater = 0.70
	}
	if cfg.OffloadLowWater <= 0 || cfg.OffloadLowWater >= cfg.OffloadHighWater {
		cfg.OffloadLowWater = cfg.OffloadHighWater / 2
	}
	if cfg.OffloadQueueDepth <= 0 {
		cfg.OffloadQueueDepth = 8
	}
	return cfg
}

// New builds an RSSD over a fresh NAND device. client may be nil: the device
// then retains every stale page until a client is attached, and a write that
// needs a retained page's space fails with ftl.ErrNoSpace.
func New(cfg Config, client *remote.Client) *RSSD {
	cfg = cfg.normalize()
	r := &RSSD{
		cfg:      cfg,
		log:      oplog.New(),
		client:   client,
		retained: map[uint64]*retEntry{},
	}
	r.f = ftl.New(cfg.FTL, r)
	r.lpnWriteSeq = blankWriteSeqs(r.f.LogicalPages())
	r.retByLPN = make([]*retEntry, r.f.LogicalPages())
	return r
}

// blankWriteSeqs is the live-version table of a device nothing was written
// to: NoSeq for each of its n logical pages.
func blankWriteSeqs(n uint64) []uint64 {
	t := make([]uint64, n)
	for i := range t {
		t[i] = NoSeq
	}
	return t
}

// FTL exposes the underlying translation layer (read-mostly: stats,
// geometry, capacity).
func (r *RSSD) FTL() *ftl.FTL { return r.f }

// Log exposes the operation log (forensics reads it).
func (r *RSSD) Log() *oplog.Log { return r.log }

// Stats returns a snapshot of RSSD counters.
func (r *RSSD) Stats() Stats {
	s := r.stats
	s.RetainedNow = len(r.retained)
	if r.engine != nil {
		s.OffloadInFlight = r.engine.pagesInFlight
	}
	if r.lastOffloadErr != nil {
		s.LastOffloadError = r.lastOffloadErr.Error()
	}
	return s
}

// PageSize returns the page size in bytes.
func (r *RSSD) PageSize() int { return r.f.PageSize() }

// LogicalPages returns the host-visible capacity in pages.
func (r *RSSD) LogicalPages() uint64 { return r.f.LogicalPages() }

// retentionBudget returns the local page budget for retained data.
func (r *RSSD) retentionBudget() int { return r.f.RetentionBudgetPages() }

// Write stores one page and logs the operation. The old version, if any,
// is retained. It is a thin wrapper over a one-element submission batch;
// bulk callers should use SubmitBatch directly.
func (r *RSSD) Write(lpn uint64, data []byte, at simclock.Time) (simclock.Time, error) {
	_, done, err := batch.Do(r, Op{Kind: OpWrite, LPN: lpn, Data: data}, at)
	return done, err
}

// Read returns the current contents of lpn, logging a read entry.
// It is a thin wrapper over a one-element submission batch.
func (r *RSSD) Read(lpn uint64, at simclock.Time) ([]byte, simclock.Time, error) {
	return batch.Do(r, Op{Kind: OpRead, LPN: lpn}, at)
}

// Trim invalidates lpn. With enhanced trim (the default) the stale data is
// retained exactly like an overwritten version; the logical page reads as
// zeroes afterwards. The paper describes this as remapping the trimmed
// address to fresh pages — retaining the old pages and serving zeroes is
// the same observable behaviour without burning erased pages. It is a thin
// wrapper over a one-element submission batch.
func (r *RSSD) Trim(lpn uint64, at simclock.Time) (simclock.Time, error) {
	_, done, err := batch.Do(r, Op{Kind: OpTrim, LPN: lpn}, at)
	return done, err
}

// afterOps runs the background duties a firmware event loop interleaves
// with host I/O — watermark-driven offload and periodic checkpoints — once
// per submission batch of n mutating operations: one offload watermark
// check, with checkpoint accounting advanced by n. A batch larger than
// checkpointEvery triggers a single checkpoint where n one-op batches would
// have triggered several — acceptable, since checkpoints only bound
// recovery's log replay.
func (r *RSSD) afterOps(n int, at simclock.Time) (simclock.Time, error) {
	var err error
	at, err = r.maybeOffload(at)
	if err != nil {
		return at, err
	}
	r.opsSinceCP += uint64(n)
	if r.opsSinceCP >= checkpointEvery {
		r.opsSinceCP = 0
		if at, err = r.CheckpointNow(at); err != nil {
			// Like offload, checkpointing is background work: its
			// failure is surfaced out of band, never to host I/O.
			r.stats.OffloadErrors++
			r.noteRemoteErr(err)
		}
	}
	return at, nil
}

// --- ftl.Retainer implementation -----------------------------------------

// OnStale pins every stale page, trimmed ones included: conservative
// retention.
func (r *RSSD) OnStale(lpn, ppn uint64, cause ftl.StaleCause, at simclock.Time) bool {
	r.pin(retEntry{
		ppn:      ppn,
		lpn:      lpn,
		writeSeq: r.lpnWriteSeq[lpn],
		staleSeq: r.curStaleSeq,
		cause:    cause,
		at:       at,
	})
	return true
}

// retSlabEntries is how many retained versions pin cuts from one allocation.
const retSlabEntries = 256

// pin enters a retained version into the retention index: by PPN, into its
// LPN's chain in writeSeq order (newer than any with the same writeSeq; a
// host overwrite's is the new head) and at the tail of the offload queue.
// Entries are cut from 256-entry slabs and chained through their own links,
// so a stale page costs the index no allocation of its own; an entry is never
// reused, so a released one stays released.
func (r *RSSD) pin(e retEntry) {
	if len(r.retSlab) == 0 {
		r.retSlab = make([]retEntry, retSlabEntries)
	}
	re := &r.retSlab[0]
	r.retSlab = r.retSlab[1:]
	*re = e
	r.retained[re.ppn] = re
	re.newer, re.older = nil, r.retByLPN[re.lpn]
	for re.older != nil && re.older.writeSeq > re.writeSeq {
		re.newer, re.older = re.older, re.older.older
	}
	if re.newer != nil {
		re.newer.older = re
	} else {
		r.retByLPN[re.lpn] = re
	}
	if re.older != nil {
		re.older.newer = re
	}
	r.retQueue = append(r.retQueue, re)
}

// OnMigrate follows GC relocations of retained pages.
func (r *RSSD) OnMigrate(lpn, oldPPN, newPPN uint64, at simclock.Time) {
	re, ok := r.retained[oldPPN]
	if !ok {
		return
	}
	delete(r.retained, oldPPN)
	re.ppn = newPPN
	r.retained[newPPN] = re
}

// OnErased observes physical destruction of unpinned stale pages. Under
// RSSD those pages were already offloaded (released), so nothing remains to
// track.
func (r *RSSD) OnErased(lpn, ppn uint64, at simclock.Time) {}

// Pressure is the FTL telling us pins are blocking reclamation. Offload
// until the requested pages are free; without a live remote nothing is
// freed, and the FTL fails the write with ErrNoSpace. This is the one
// place the host waits out acks that are not due: the FTL needs pins
// actually released before GC can make progress, so the pipeline is
// staged full and every in-flight ack applied at once (the wait is
// recorded as a stall, not charged — Pressure has no completion time to
// report).
func (r *RSSD) Pressure(needPages int, at simclock.Time) {
	r.stats.PressureEvents++
	if r.client == nil {
		return
	}
	target := max(r.pins()-needPages, 0)
	r.maybeRedial(at)
	r.pollOffload(at)
	// Two rounds: if a failure epoch is pending, the first round's drain
	// requeues the failed batches and clears the epoch, and the second
	// actually retries the offload, so the write fails only after a real
	// attempt failed. stage() itself charges queue-full stalls, so only the
	// drain span is added here.
	for attempt := 0; attempt < 2; attempt++ {
		staged := r.stageTo(target, at)
		end := r.drainOffload(staged)
		if end > staged {
			r.stats.OffloadStallTime += end.Sub(staged)
		}
		at = end
		if r.pins() <= target {
			return
		}
		r.maybeRedial(at)
	}
}
