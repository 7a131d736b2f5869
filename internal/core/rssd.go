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
	// SegmentMaxPages bounds retained pages per offload segment.
	SegmentMaxPages int
	// CheckpointEvery ships a checkpoint (the live write sequence of every
	// LPN, what Reopen replays from) after that many host ops (0 disables
	// periodic checkpoints; one is still written on demand).
	CheckpointEvery uint64
	// ReadLogSampling logs every Nth host read (1 = all, 0 = none).
	// Read entries feed the read-then-overwrite ransomware detector.
	ReadLogSampling int
	// DisableEnhancedTrim reverts to destructive trim semantics
	// (ablation: this is what makes the trimming attack succeed).
	DisableEnhancedTrim bool
	// DropWhenOffline controls behaviour when no remote client is
	// attached and retention pressure builds: true drops the oldest
	// retained pages (LocalSSD-like degradation), false fails writes.
	DropWhenOffline bool
	// OffloadQueueDepth bounds the asynchronous engine's staging queue
	// (sealed segments awaiting transfer). When the queue is full the
	// host stalls until the oldest segment resolves — the backpressure
	// point of the pipeline. Default 8.
	OffloadQueueDepth int
	// SyncOffload reverts to inline synchronous offload: segments are
	// shipped on the host path with seal + transfer time charged to host
	// I/O. It is the baseline the fleet experiment compares the
	// asynchronous engine against.
	SyncOffload bool
	// OffloadLinkRTT and OffloadLinkMBps model the NVMe-oE link the
	// offload engine owns: one segment transfer costs
	// RTT + bytes/bandwidth of simulated time, serialized on the link.
	// Defaults: 30µs, 1200 MB/s. Ignored when NIC is set.
	OffloadLinkRTT  simclock.Duration
	OffloadLinkMBps float64
	// NIC, when set, is the shared server-NIC QoS arbiter this device's
	// offload traffic is charged to (as one ClassOffload flow): transfers
	// contend with fleet restore streams and lifecycle transfers under
	// the arbiter's strict-priority + guaranteed-floor policy. nil gives
	// the device a private link built from OffloadLinkRTT/MBps — an
	// arbiter whose only flow is this one, so every transfer sees the full
	// line.
	NIC *netsim.Arbiter
	// EncodeWorkers sizes the codec worker pool that compresses sealed
	// segments off the firmware goroutine: seal hands raw segments to the
	// workers, and the transfer goroutine ships encoded blobs in seal
	// order. 0 selects the default (2). A negative value selects inline
	// encoding at seal time on the firmware goroutine — the reference the
	// tests hold the workers against.
	EncodeWorkers int
	// EncodeMBps models one codec worker's DEFLATE throughput in the
	// simulated-time model (real encoding runs as fast as the CPU allows;
	// this is what the honest accounting charges). Default 400 MB/s,
	// BestSpeed-class.
	EncodeMBps float64
	// Dial, when set, lets the device re-establish remote sessions itself:
	// the offload engine redials a dead session with exponential backoff
	// and resumes from the server's FetchHead, and the restorer uses it to
	// resume interrupted image streams. Without it, a dead session fails
	// segments until a caller attaches a new client by hand — the
	// pre-redial behaviour.
	Dial DialFunc
	// RedialBackoff and RedialBackoffMax bound the redial schedule: the
	// first attempt fires at the next background poll after the session
	// dies, then retries back off exponentially from RedialBackoff up to
	// RedialBackoffMax of simulated time. Defaults: 1ms, 32ms.
	RedialBackoff    simclock.Duration
	RedialBackoffMax simclock.Duration
	// RecoveryChunkPages bounds retained pages per streamed restore chunk
	// (0 lets the server pick).
	RecoveryChunkPages int
}

// DefaultConfig returns the configuration used across the evaluation.
func DefaultConfig() Config {
	return Config{
		FTL:               ftl.DefaultConfig(),
		DeviceID:          1,
		OffloadHighWater:  0.70,
		OffloadLowWater:   0.40,
		SegmentMaxPages:   128,
		CheckpointEvery:   4096,
		ReadLogSampling:   1,
		DropWhenOffline:   true,
		OffloadQueueDepth: 8,
		OffloadLinkRTT:    30 * simclock.Microsecond,
		OffloadLinkMBps:   1200,
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
	OffloadBytes    uint64 // uncompressed page bytes shipped
	OffloadEntries  uint64
	// OffloadBytesWire is what actually crossed the NVMe-oE link: codec-
	// framed (compressed) segment blobs. OffloadBytesLogical is the same
	// segments' uncompressed marshal size; wire < logical is the
	// compression the retention budget and link model are sized with.
	OffloadBytesWire    uint64
	OffloadBytesLogical uint64
	ReleasedPins        uint64
	DroppedPages        uint64 // retained pages destroyed without offload (offline mode only)
	Checkpoints         uint64
	PressureEvents      uint64
	OffloadErrors       uint64 // background offload failures (retried)
	// OffloadLatency is the total simulated time the offload engine spent
	// moving data — background-lane flash reads plus link transfers. In
	// the asynchronous mode none of it is charged to host I/O; in
	// SyncOffload mode the same quantity rides the host path.
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
	// compressing sealed segments. With encode workers it overlaps host
	// I/O and the link; in the inline/sync baselines it rides the host
	// path. EncodeQueuePeak is the deepest the encode stage ever got —
	// segments still on a simulated codec lane when a new seal arrived.
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
	// RestoreBytesWire / RestoreBytesLogical mirror the offload-side wire
	// and logical counters for recovery traffic: image streams and range
	// fetches ride the same segment codec as offload, and wire < logical
	// is the compression the restore path now gets end to end.
	RestoreBytesWire    uint64
	RestoreBytesLogical uint64
	// RestorePagesLiteral / RestorePagesDelta split streamed restore pages
	// by wire form: literals carried their full payload, delta pages
	// arrived as a 32-byte hash reference resolved from the device-side
	// cache (each unique page content crosses the wire once per restore).
	// DedupHitRate is derived: delta / (delta + literal); zero until a
	// dedup restore runs.
	RestorePagesLiteral uint64
	RestorePagesDelta   uint64
	DedupHitRate        float64
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
	cause    ftl.StaleCause
	at       simclock.Time
	released bool
}

// RSSD is the ransomware-aware SSD. Like the FTL it wraps, it is driven
// from a single simulation goroutine (the firmware event loop).
type RSSD struct {
	cfg Config
	f   *ftl.FTL
	log *oplog.Log

	client *remote.Client // nil = no remote attached

	retained map[uint64]*retEntry   // by current PPN
	retByLPN map[uint64][]*retEntry // writeSeq-ordered per LPN
	retQueue []*retEntry            // stale-time order (offload FIFO)
	retHead  int                    // queue head index (popped prefix)

	lpnWriteSeq []uint64 // seq of the latest write per LPN (NoSeq if none)

	curStaleSeq    uint64 // seq to attribute OnStale events to
	curStaleAt     simclock.Time
	offloadedUpTo  uint64 // log entries below this are durably remote (acked)
	stagedUpTo     uint64 // log entries below this are sealed into segments
	opsSinceCP     uint64
	readCounter    uint64
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

	engine *offloadEngine // asynchronous offload pipeline (lazy; nil in sync mode)
	// nicFlow is this device's offload-class flow on the NIC arbiter
	// (cfg.NIC, or a lazily built private one). It spans engine restarts —
	// the device's NVMe-oE session on the server NIC — and closes with the
	// device.
	nicFlow *netsim.Flow

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
	if cfg.SegmentMaxPages <= 0 {
		cfg.SegmentMaxPages = 128
	}
	if cfg.OffloadQueueDepth <= 0 {
		cfg.OffloadQueueDepth = 8
	}
	if cfg.EncodeWorkers == 0 {
		cfg.EncodeWorkers = 2
	}
	if cfg.EncodeMBps <= 0 {
		cfg.EncodeMBps = 400
	}
	if cfg.RedialBackoff <= 0 {
		cfg.RedialBackoff = simclock.Millisecond
	}
	if cfg.RedialBackoffMax <= 0 {
		cfg.RedialBackoffMax = 32 * simclock.Millisecond
	}
	if cfg.RedialBackoffMax < cfg.RedialBackoff {
		cfg.RedialBackoffMax = cfg.RedialBackoff
	}
	return cfg
}

// New builds an RSSD over a fresh NAND device. client may be nil (offline
// retention mode); attach one later with AttachRemote.
func New(cfg Config, client *remote.Client) *RSSD {
	cfg = cfg.normalize()
	r := &RSSD{
		cfg:      cfg,
		log:      oplog.New(),
		client:   client,
		retained: map[uint64]*retEntry{},
		retByLPN: map[uint64][]*retEntry{},
	}
	r.f = ftl.New(cfg.FTL, r)
	r.lpnWriteSeq = blankWriteSeqs(r.f.LogicalPages())
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

// AttachRemote connects the offload engine to a remote server session,
// retiring any engine bound to the previous session first (outstanding
// completions are settled so no pin is orphaned). A hand-attached session
// also resets the redial machinery: the caller vouches for this one.
func (r *RSSD) AttachRemote(client *remote.Client) {
	r.stopEngine()
	r.client = client
	r.sessionDead = false
	r.needReconcile = false
	r.redialBackoff = 0
	r.nextRedialAt = 0
}

// FTL exposes the underlying translation layer (read-mostly: stats,
// geometry, capacity).
func (r *RSSD) FTL() *ftl.FTL { return r.f }

// Log exposes the operation log (forensics reads it).
func (r *RSSD) Log() *oplog.Log { return r.log }

// DeviceID returns the device's enrollment identity.
func (r *RSSD) DeviceID() uint64 { return r.cfg.DeviceID }

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
	if total := s.RestorePagesDelta + s.RestorePagesLiteral; total > 0 {
		s.DedupHitRate = float64(s.RestorePagesDelta) / float64(total)
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
	res, done, err := batch.SubmitOne(r, Op{Kind: OpWrite, LPN: lpn, Data: data}, at)
	if err != nil {
		return done, err
	}
	if res.Err != nil {
		return res.Done, res.Err
	}
	return done, nil
}

// Read returns the current contents of lpn, logging a sampled read entry.
// It is a thin wrapper over a one-element submission batch.
func (r *RSSD) Read(lpn uint64, at simclock.Time) ([]byte, simclock.Time, error) {
	res, done, err := batch.SubmitOne(r, Op{Kind: OpRead, LPN: lpn}, at)
	if err != nil {
		return nil, done, err
	}
	if res.Err != nil {
		return nil, res.Done, res.Err
	}
	return res.Data, done, nil
}

// Trim invalidates lpn. With enhanced trim (the default) the stale data is
// retained exactly like an overwritten version; the logical page reads as
// zeroes afterwards. The paper describes this as remapping the trimmed
// address to fresh pages — retaining the old pages and serving zeroes is
// the same observable behaviour without burning erased pages. It is a thin
// wrapper over a one-element submission batch.
func (r *RSSD) Trim(lpn uint64, at simclock.Time) (simclock.Time, error) {
	res, done, err := batch.SubmitOne(r, Op{Kind: OpTrim, LPN: lpn}, at)
	if err != nil {
		return done, err
	}
	if res.Err != nil {
		return res.Done, res.Err
	}
	return done, nil
}

// afterOp runs the background duties a firmware event loop interleaves
// with host I/O: watermark-driven offload and periodic checkpoints.
func (r *RSSD) afterOp(at simclock.Time) (simclock.Time, error) {
	return r.afterOps(1, at)
}

// afterOps is afterOp amortized over a submission batch of n mutating
// operations: one offload watermark check per batch, with checkpoint
// accounting advanced by the batch size. A batch larger than
// CheckpointEvery triggers a single checkpoint where per-op submission
// would have triggered several — acceptable, since checkpoints only bound
// recovery's log replay.
func (r *RSSD) afterOps(n int, at simclock.Time) (simclock.Time, error) {
	var err error
	at, err = r.maybeOffload(at)
	if err != nil {
		return at, err
	}
	if r.cfg.CheckpointEvery > 0 {
		r.opsSinceCP += uint64(n)
		if r.opsSinceCP >= r.cfg.CheckpointEvery {
			r.opsSinceCP = 0
			if at, err = r.CheckpointNow(at); err != nil {
				// Like offload, checkpointing is background work: its
				// failure is surfaced out of band, never to host I/O.
				r.stats.OffloadErrors++
				r.noteRemoteErr(err)
			}
		}
	}
	return at, nil
}

// --- ftl.Retainer implementation -----------------------------------------

// OnStale pins every stale page: conservative retention.
func (r *RSSD) OnStale(lpn, ppn uint64, cause ftl.StaleCause, at simclock.Time) bool {
	if cause == ftl.CauseTrim && r.cfg.DisableEnhancedTrim {
		return false // ablation: native destructive trim
	}
	re := &retEntry{
		ppn:      ppn,
		lpn:      lpn,
		writeSeq: r.lpnWriteSeq[lpn],
		staleSeq: r.curStaleSeq,
		cause:    cause,
		at:       at,
	}
	r.retained[ppn] = re
	r.retByLPN[lpn] = append(r.retByLPN[lpn], re)
	r.retQueue = append(r.retQueue, re)
	return true
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
// RSSD those pages were either already offloaded (released) or dropped
// under offline pressure, so nothing remains to track.
func (r *RSSD) OnErased(lpn, ppn uint64, at simclock.Time) {}

// Pressure is the FTL telling us pins are blocking reclamation. Offload
// (or, offline, drop) until the requested pages are free. This is the one
// place the asynchronous engine goes synchronous: the FTL needs pins
// actually released before GC can make progress, so the pipeline is
// staged full and drained inline (the stall is recorded, not charged —
// Pressure has no completion time to report).
func (r *RSSD) Pressure(needPages int, at simclock.Time) {
	r.stats.PressureEvents++
	target := len(r.retained) - needPages
	if target < 0 {
		target = 0
	}
	if r.client != nil {
		r.maybeRedial(at)
		if r.cfg.SyncOffload {
			if _, err := r.offloadToSync(target, at); err == nil {
				return
			}
			r.stats.OffloadErrors++
		} else {
			r.pollOffload(at)
			// Two rounds: if a failure epoch is pending, the first round's
			// drain requeues the failed batches and clears the epoch, and
			// the second actually retries the offload — pages are only
			// dropped after a real attempt failed, matching the old inline
			// path. stage() itself charges queue-full stalls, so only the
			// drain span is added here.
			for attempt := 0; attempt < 2; attempt++ {
				staged := r.stageTo(target, at)
				end := r.drainOffload(staged)
				if end > staged {
					r.stats.OffloadStallTime += end.Sub(staged)
				}
				at = end
				if len(r.retained) <= target {
					return
				}
				r.maybeRedial(at)
			}
		}
	}
	if r.cfg.DropWhenOffline {
		r.dropTo(target)
	}
}
