package core

import (
	"errors"

	"repro/internal/bufpool"
	"repro/internal/netsim"
	"repro/internal/nvmeoe"
	"repro/internal/oplog"
	"repro/internal/remote"
	"repro/internal/simclock"
)

// This file implements the asynchronous offload engine: the pipeline
// between the retention watermark check and the NVMe-oE transport. The
// host path *seals* segments (reads their pages on the NAND background
// lane) and stages them into a bounded queue; a pool of codec workers
// compresses the sealed segments off the firmware goroutine; a dedicated
// transfer goroutine ships the encoded blobs to the remote server in seal
// order. Pins are released only when the durability ack is harvested back
// on the firmware goroutine — the zero-data-loss invariant is unchanged,
// and neither the compression nor the transfer time sits on the host path.
//
// Concurrency model: all FTL/RSSD state is still owned by the single
// firmware goroutine. A codec worker touches only its staged segment
// (already sealed: pages read into pooled buffers, entries copied); the
// transfer goroutine touches only encoded segments (in seal order, waiting
// out each segment's encode) and the NVMe-oE client. Results come back
// over a channel and are applied by the firmware goroutine at poll points
// (afterOps, Pressure, DrainOffload).
//
// Allocation model: the hot path rents everything from internal/bufpool.
// Page reads land in pooled buffers released once the codec worker has
// captured their bytes; the marshal buffer is released as soon as the blob
// is framed; the blob buffer is released after the transfer. In steady
// state a segment's trip through seal→encode→ship allocates only its
// constant-size bookkeeping (the stagedSegment and its done channel).
//
// Simulated-time model: sealing fixes each segment's encode-stage schedule
// deterministically — EncodeWorkers simulated codec lanes, each encoding
// at EncodeMBps, earliest-free lane first — and the transfer goroutine
// fixes the ack instant from the link model (serialized transfers on one
// simulated link: start = max(encode done, link free), ack = start + RTT +
// bytes/BW + the storage tier's modeled Put service time, which the server
// reports in the ack). The firmware goroutine applies a completion only
// once simulated time reaches that instant; when a completion's ack time
// is not yet computable it blocks on the results channel only if the
// segment's deterministic ack floor (encode done + RTT) has been reached —
// so behaviour is deterministic in simulated time regardless of goroutine
// scheduling, and encode and transfer overlap host I/O instead of adding
// to it.

// stagedSegment is one sealed segment travelling through the pipeline.
type stagedSegment struct {
	seg      *oplog.Segment
	blob     []byte         // codec-framed wire encoding (what actually ships)
	blobBuf  *bufpool.Buf   // pooled backing of blob; released after transfer
	pageBufs []*bufpool.Buf // pooled page data; released once encoded
	batch    []*retEntry    // retained pages carried by seg (pins still held)
	toSeq    uint64         // log entries below this are covered by seg
	sealedAt simclock.Time  // flash background reads complete
	// encDoneAt is when the simulated codec lane finishes this segment;
	// ackFloor = encDoneAt + RTT is the earliest its ack could possibly
	// arrive. Both are fixed at staging time on the firmware goroutine, so
	// "could this ack be due?" is answerable without racing the pipeline.
	encDoneAt simclock.Time
	ackFloor  simclock.Time
	ackAt     simclock.Time     // simulated durability-ack arrival (link + tier model)
	wire      int               // compressed wire bytes: what the link model charges
	logical   int               // uncompressed marshal size
	svc       simclock.Duration // storage tier's modeled Put service time (from the ack)
	err       error             // set by the transfer goroutine
	encoded   chan struct{}     // closed by the codec worker; nil when encoded inline
}

// offloadEngine owns the staging queue, the codec worker pool, and the
// transfer goroutine.
type offloadEngine struct {
	depth   int                 // staging-queue bound (backpressure point)
	workers int                 // codec workers (0 = inline encode at seal)
	encodeq chan *stagedSegment // sealed, awaiting compression
	xferq   chan *stagedSegment // seal-order lane the transfer goroutine ships
	results chan *stagedSegment // transfer resolved, FIFO with xferq
	ready   *stagedSegment      // harvested result whose ack instant lies ahead

	inFlight      []*stagedSegment // firmware-side FIFO mirror of the pipeline
	pagesInFlight int
	encFree       []simclock.Time // simulated next-free time per codec lane
	// failure epoch: once one segment fails, everything behind it in the
	// pipeline fails too (the chain has a gap at the server). Failed
	// batches are collected in stage order and requeued together when the
	// pipeline drains, then staging resumes from the acked sequence.
	failing       bool
	failedBatches [][]*retEntry
}

// newOffloadEngine starts the codec workers and the transfer goroutine for
// one client session. Transfers are priced by the device's offload-class
// flow on the NIC arbiter — a shared server NIC when cfg.NIC is set, a
// private single-flow arbiter otherwise.
func newOffloadEngine(client *remote.Client, depth, workers int, flow *netsim.Flow) *offloadEngine {
	if depth <= 0 {
		depth = 8
	}
	e := &offloadEngine{
		depth:   depth,
		workers: workers,
		xferq:   make(chan *stagedSegment, depth+2),
		// results is sized so the transfer goroutine never blocks sending:
		// at most depth segments queue plus one in its hands.
		results: make(chan *stagedSegment, depth+2),
	}
	if workers > 0 {
		e.encodeq = make(chan *stagedSegment, depth+2)
		e.encFree = make([]simclock.Time, workers)
		for i := 0; i < workers; i++ {
			go func() {
				for st := range e.encodeq {
					encodeStaged(st)
					close(st.encoded)
				}
			}()
		}
	}
	go func() {
		var linkFree simclock.Time
		for st := range e.xferq {
			if st.encoded != nil {
				<-st.encoded // codec worker done; blob and wire size final
			}
			start := simclock.Max(st.encDoneAt, linkFree)
			st.svc, st.err = client.PushSegmentBlobTimed(st.blob, st.seg.LastSeq)
			linkFree = flow.Grant(st.wire, start)
			st.ackAt = linkFree.Add(st.svc)
			// The wire bytes have left the device; the pooled blob goes back.
			st.blobBuf.Release()
			st.blobBuf, st.blob = nil, nil
			e.results <- st
		}
	}()
	return e
}

// harvest takes the oldest resolved completion, blocking until the real
// pipeline produces it. The ready slot holds a completion harvested early
// whose ack instant had not been reached yet.
func (e *offloadEngine) harvest() *stagedSegment {
	if st := e.ready; st != nil {
		e.ready = nil
		return st
	}
	return <-e.results
}

// encodeStaged compresses one sealed segment through pooled buffers: the
// marshal lands in a rented buffer sized exactly by MarshaledSize, the
// codec frame in a rented buffer sized by BlobOverhead + marshal, and the
// page buffers are released the moment their bytes are captured. This is
// the encode hot loop the datapath benchmark tracks: steady-state it
// allocates nothing.
func encodeStaged(st *stagedSegment) {
	m := bufpool.Get(st.logical)
	raw := st.seg.AppendMarshal(m.B)
	bb := bufpool.Get(nvmeoe.BlobOverhead + len(raw))
	st.blob = nvmeoe.AppendSegmentBlob(bb.B, raw)
	st.blobBuf = bb
	st.wire = len(st.blob)
	m.B = raw
	m.Release()
	// The blob owns the bytes now; drop the page views before releasing
	// their pooled backing so nothing dangles into reused memory.
	for i := range st.seg.Pages {
		st.seg.Pages[i].Data = nil
	}
	for _, pb := range st.pageBufs {
		pb.Release()
	}
	st.pageBufs = nil
}

// linkRTT and linkMBps resolve the configured link model with its defaults.
func (r *RSSD) linkRTT() simclock.Duration {
	if r.cfg.OffloadLinkRTT > 0 {
		return r.cfg.OffloadLinkRTT
	}
	return 30 * simclock.Microsecond
}

func (r *RSSD) linkMBps() float64 {
	if r.cfg.OffloadLinkMBps > 0 {
		return r.cfg.OffloadLinkMBps
	}
	return 1200
}

// offloadFlow lazily opens this device's offload-class flow on the NIC
// arbiter. With cfg.NIC set the flow contends on the shared server NIC
// under the QoS policy; nil builds a private single-flow arbiter from
// OffloadLinkRTT/MBps, which prices every transfer at RTT + bytes over the
// full line. The flow spans engine restarts and closes with the device.
func (r *RSSD) offloadFlow() *netsim.Flow {
	if r.nicFlow == nil {
		nic := r.cfg.NIC
		if nic == nil {
			nic = netsim.New(netsim.Config{MBps: r.linkMBps(), RTT: r.linkRTT()})
		}
		r.nicFlow = nic.Open(netsim.ClassOffload, 1)
	}
	return r.nicFlow
}

// nicRTT is the round trip of the NIC the offload flow actually rides —
// the ack-floor lower bound must come from the same arbiter that prices
// the grants.
func (r *RSSD) nicRTT() simclock.Duration {
	if r.cfg.NIC != nil {
		return r.cfg.NIC.RTT()
	}
	return r.linkRTT()
}

// xferTime models one segment's NVMe-oE transfer on the offload link
// (the synchronous baseline path; the async engine prices transfers on
// its timed flow instead).
func (r *RSSD) xferTime(bytes int) simclock.Duration {
	return r.offloadFlow().GrantDur(bytes)
}

// encodeDur models compressing n marshal bytes on one codec lane.
func (r *RSSD) encodeDur(n int) simclock.Duration {
	return simclock.Duration(float64(n) / (r.cfg.EncodeMBps * 1e6) * float64(simclock.Second))
}

// ensureEngine lazily starts the engine for the attached client.
func (r *RSSD) ensureEngine() *offloadEngine {
	if r.engine == nil {
		workers := r.cfg.EncodeWorkers
		if workers < 0 {
			workers = 0 // inline encode at seal (the measured baseline)
		}
		r.engine = newOffloadEngine(r.client, r.cfg.OffloadQueueDepth, workers,
			r.offloadFlow())
	}
	return r.engine
}

// stopEngine drains and dismantles the engine (client swap or Close).
// Outstanding completions are applied unconditionally so no pin is
// orphaned; simulated time is not advanced (admin path).
func (r *RSSD) stopEngine() {
	e := r.engine
	if e == nil {
		return
	}
	for len(e.inFlight) > 0 {
		r.applyResult(e.harvest())
	}
	if e.encodeq != nil {
		close(e.encodeq)
	}
	close(e.xferq)
	r.engine = nil
}

// Close releases the engine's worker goroutines and the device's NIC
// flow. The device remains usable (offload falls back to lazy engine
// start on the next watermark crossing); call it when retiring a device
// instance.
func (r *RSSD) Close() {
	r.stopEngine()
	if r.nicFlow != nil {
		r.nicFlow.Close()
		r.nicFlow = nil
	}
}

// buildSegment seals one segment: the next run of unstaged log entries
// plus the given retained pages, read on the NAND background lane into
// pooled buffers the pipeline releases once their bytes are encoded. It
// advances stagedUpTo and fixes the segment's logical (marshal) size so
// the encode stage can be scheduled before the real encode runs. On error
// the caller must requeue batch.
func (r *RSSD) buildSegment(batch []*retEntry, at simclock.Time) (*stagedSegment, error) {
	to := r.log.NextSeq()
	if to > r.stagedUpTo+maxEntriesPerSegment {
		to = r.stagedUpTo + maxEntriesPerSegment
	}
	entries := r.log.Entries(r.stagedUpTo, to)
	seg := &oplog.Segment{
		DeviceID: r.cfg.DeviceID,
		FirstSeq: r.stagedUpTo,
		LastSeq:  to,
		Entries:  entries,
	}
	if len(entries) > 0 {
		seg.FirstTime = entries[0].At
		seg.LastTime = entries[len(entries)-1].At
	}
	st := &stagedSegment{seg: seg, batch: batch, toSeq: to, sealedAt: at}
	for _, re := range batch {
		// Background lane: the offload engine's flash reads fill host idle
		// gaps (read-suspend priority) rather than delaying host I/O. The
		// returned page is a pooled buffer this segment now owns. It ships
		// under the write-time hash its OOB carries (the one the chain
		// records): a hash of the read-back could only vouch for whatever
		// flash returned.
		data, oob, done, err := r.f.ReadPhysicalBackground(re.ppn, at)
		if err != nil {
			for _, pb := range st.pageBufs {
				pb.Release()
			}
			return nil, err
		}
		st.pageBufs = append(st.pageBufs, data)
		r.stats.OffloadLatency += done.Sub(at)
		if done > st.sealedAt {
			st.sealedAt = done
		}
		seg.Pages = append(seg.Pages, oplog.PageRecord{
			LPN:      re.lpn,
			WriteSeq: re.writeSeq,
			StaleSeq: re.staleSeq,
			Cause:    uint8(re.cause),
			Hash:     oob.Hash,
			Data:     data.B,
		})
	}
	st.logical = seg.MarshaledSize()
	r.stagedUpTo = to
	return st, nil
}

// stage seals batch into a segment, schedules its encode on the simulated
// codec lanes, and hands it to the worker pool and the transfer lane.
// When the staging queue is full the host stalls: completions are
// harvested (blocking) until a slot frees, and the stall is charged to the
// returned host time. The batch must already be popped from the retention
// queue; on build failure it is requeued.
func (r *RSSD) stage(batch []*retEntry, at simclock.Time) (simclock.Time, error) {
	e := r.ensureEngine()
	st, err := r.buildSegment(batch, at)
	if err != nil {
		r.requeue(batch)
		return at, err
	}
	dur := r.encodeDur(st.logical)
	r.stats.EncodeTime += dur
	if e.workers > 0 {
		// Earliest-free simulated codec lane; the real workers race ahead
		// or lag behind, but the schedule is fixed here, deterministically.
		lane := 0
		for i := 1; i < len(e.encFree); i++ {
			if e.encFree[i] < e.encFree[lane] {
				lane = i
			}
		}
		start := simclock.Max(st.sealedAt, e.encFree[lane])
		st.encDoneAt = start.Add(dur)
		e.encFree[lane] = st.encDoneAt
		st.encoded = make(chan struct{})
	} else {
		// Inline baseline: the firmware goroutine compresses at seal time,
		// so the host path pays the encode before it can continue.
		encodeStaged(st)
		st.encDoneAt = simclock.Max(st.sealedAt, at).Add(dur)
		at = at.Add(dur)
	}
	st.ackFloor = st.encDoneAt.Add(r.nicRTT())
	// Backpressure: the bound is the firmware-side in-flight count, not
	// the channel's instantaneous occupancy, so stalls depend only on
	// simulated time, never on goroutine scheduling.
	for len(e.inFlight) >= e.depth {
		res := e.harvest()
		if res.ackAt > at {
			r.stats.OffloadStalls++
			r.stats.OffloadStallTime += res.ackAt.Sub(at)
			at = res.ackAt
		}
		r.applyResult(res)
	}
	if e.workers > 0 {
		e.encodeq <- st // never blocks: queue is sized past the depth bound
	}
	e.xferq <- st // never blocks: queue holds at most depth-1 entries here
	e.inFlight = append(e.inFlight, st)
	e.pagesInFlight += len(st.batch)
	if n := len(e.inFlight); n > r.stats.OffloadQueuePeak {
		r.stats.OffloadQueuePeak = n
	}
	// Encode-stage occupancy: segments still on a simulated codec lane
	// when this one was sealed. Peak > 1 is the overlap the worker pool
	// buys; a persistently full encode stage means EncodeWorkers (or
	// EncodeMBps) is the pipeline's bottleneck.
	encQ := 0
	for _, s := range e.inFlight {
		if s.encDoneAt > st.sealedAt {
			encQ++
		}
	}
	if encQ > r.stats.EncodeQueuePeak {
		r.stats.EncodeQueuePeak = encQ
	}
	return at, nil
}

// pollOffload applies, in pipeline order, every completion whose simulated
// ack instant has been reached. The deterministic ack floor (encode done +
// RTT, fixed at staging) gates the blocking read: the firmware goroutine
// only waits on the results channel when the head segment's ack could
// actually be due, which keeps the simulation deterministic while the real
// encode and transfer run concurrently.
func (r *RSSD) pollOffload(at simclock.Time) {
	e := r.engine
	if e == nil {
		return
	}
	for len(e.inFlight) > 0 && e.inFlight[0].ackFloor <= at {
		if e.ready == nil {
			e.ready = <-e.results
		}
		if e.ready.ackAt > at {
			return // harvested early; applies at a later poll
		}
		r.applyResult(e.ready)
		e.ready = nil
	}
}

// drainOffload blocks until the pipeline is empty, applying every
// completion and advancing host time to the final ack.
func (r *RSSD) drainOffload(at simclock.Time) simclock.Time {
	e := r.engine
	if e == nil {
		return at
	}
	for len(e.inFlight) > 0 {
		res := e.harvest()
		at = simclock.Max(at, res.ackAt)
		r.applyResult(res)
	}
	return at
}

// DrainOffload synchronously settles the offload pipeline: every staged
// segment is acked or failed-and-requeued before it returns, and a dead
// session gets its scheduled redial attempt. Host tooling calls it before
// reading Stats() for a consistent view; tests use it as a barrier.
func (r *RSSD) DrainOffload(at simclock.Time) simclock.Time {
	at = r.drainOffload(at)
	r.maybeRedial(at)
	return at
}

// applyResult consumes the oldest in-flight completion on the firmware
// goroutine: success releases the pins and advances the durable frontier,
// failure opens (or extends) the failure epoch.
func (r *RSSD) applyResult(st *stagedSegment) {
	e := r.engine
	e.inFlight = e.inFlight[1:]
	e.pagesInFlight -= len(st.batch)
	if st.err != nil {
		r.stats.OffloadErrors++
		r.noteRemoteErr(st.err)
		e.failing = true
		if len(st.batch) > 0 {
			e.failedBatches = append(e.failedBatches, st.batch)
		}
	} else {
		r.releaseSegment(st)
	}
	if e.failing && len(e.inFlight) == 0 {
		// Pipeline drained with failures: put every failed batch back at
		// the queue head in stale-time order and rewind staging to the
		// durable frontier so the retry ships the same entries.
		for i := len(e.failedBatches) - 1; i >= 0; i-- {
			r.requeue(e.failedBatches[i])
			r.stats.OffloadRetries++
		}
		e.failedBatches = nil
		e.failing = false
		r.stagedUpTo = r.offloadedUpTo
	}
}

// releaseSegment applies one durably-acked segment: local pins are
// released (the ack-before-release ordering is the zero-data-loss
// invariant), the log is pruned, and the transfer span is attributed to
// the background engine rather than host I/O.
func (r *RSSD) releaseSegment(st *stagedSegment) {
	for _, re := range st.batch {
		if err := r.f.Release(re.ppn); err == nil {
			r.stats.ReleasedPins++
		}
		re.released = true
		delete(r.retained, re.ppn)
		r.removeFromLPNIndex(re)
		r.stats.OffloadPages++
		r.stats.OffloadBytes += uint64(r.f.PageSize())
	}
	r.stats.OffloadSegments++
	r.stats.OffloadEntries += uint64(len(st.seg.Entries))
	r.stats.OffloadBytesWire += uint64(st.wire)
	r.stats.OffloadBytesLogical += uint64(st.logical)
	ackSpan := st.ackAt.Sub(st.sealedAt)
	r.stats.OffloadLatency += ackSpan
	r.stats.OffloadAckTime += ackSpan
	r.stats.OffloadTierTime += st.svc
	// The durable frontier advances only over entries this segment itself
	// carried. A pages-only segment acked behind a rejected entry-bearing
	// one (the server skips the chain check when Entries is empty) must
	// not claim the failed segment's entries as durable — they are neither
	// remote nor, after a prune, local.
	if n := len(st.seg.Entries); n > 0 {
		if upTo := st.seg.Entries[n-1].Seq + 1; upTo > r.offloadedUpTo {
			r.offloadedUpTo = upTo
			r.log.Prune(r.offloadedUpTo)
		}
	}
	// A durable ack means the path is healthy again: clear the SMART-style
	// sticky error so polling tooling sees the recovery — unless a failure
	// epoch is still draining, in which case the error stands until the
	// requeued entries actually land.
	if r.engine == nil || !r.engine.failing {
		r.lastOffloadErr = nil
	}
}

// noteRemoteErr records a background remote failure and classifies it: a
// transport-level failure (anything but a server-reported RemoteError)
// means the session itself is dead and the redial path may take over. A
// server rejection travels over a healthy session — redialing it would
// just replay the rejection — but it can mean the device's view of the
// chain head is stale (a prior segment landed durably while its ack died
// with an earlier session), so it schedules a head reconcile instead.
func (r *RSSD) noteRemoteErr(err error) {
	r.lastOffloadErr = err
	var re *remote.RemoteError
	if errors.As(err, &re) {
		r.needReconcile = true
	} else {
		r.sessionDead = true
	}
}

// adoptHead reconciles the durable frontier with the server's chain head.
// Entries below the head are durably remote even if their acks were never
// harvested; adopting them (counted in Stats.ResumeGap) instead of
// re-shipping them is what keeps a send-without-ack disconnect from
// wedging on duplicate-chain rejections. Pins whose pages rode the lost
// acks stay requeued and re-ship as page-bearing segments past the head —
// nothing is lost, nothing is double-extended.
//
// Adoption is verified, never blind: the server's chain hash at its head
// must equal OUR entry's hash at that sequence. A head the device never
// wrote, or one whose hash diverges, means the remote chain is foreign or
// poisoned — adopting it would prune the only copy of the local evidence
// chain, so the frontier stands and the divergence stays surfaced through
// LastOffloadError.
func (r *RSSD) adoptHead(head nvmeoe.Head) {
	r.needReconcile = false
	if head.NextSeq > r.offloadedUpTo {
		if head.NextSeq > r.log.NextSeq() {
			return // server holds entries this device never wrote
		}
		if es := r.log.Entries(head.NextSeq-1, head.NextSeq); len(es) != 1 || es[0].Hash != head.Hash {
			return // chain divergence: do not destroy local evidence
		}
		r.stats.ResumeGap += head.NextSeq - r.offloadedUpTo
		r.offloadedUpTo = head.NextSeq
		r.log.Prune(head.NextSeq)
	}
	r.stagedUpTo = r.offloadedUpTo
}

// maybeRedial re-establishes a dead session from the configured dial
// factory. Attempts back off exponentially in simulated time (base
// RedialBackoff, capped at RedialBackoffMax). On success the durable
// frontier is reconciled against the server's FetchHead before staging
// resumes: entries the server stored durably but whose acks died with the
// old session are counted into Stats.ResumeGap and NOT re-shipped — the
// server would reject a duplicate chain extension — while everything past
// the head (including requeued page pins) re-ships normally. The sticky
// LastOffloadError intentionally survives the redial itself; only the
// first post-redial durable ack clears it.
func (r *RSSD) maybeRedial(at simclock.Time) {
	if e := r.engine; e != nil && len(e.inFlight) > 0 {
		return // let the failure epoch drain and requeue first
	}
	if !r.sessionDead {
		// The session is healthy; a scheduled reconcile (chain rejection)
		// refreshes the frontier over it.
		if r.needReconcile && r.client != nil {
			head, err := r.client.Head()
			if err != nil {
				r.noteRemoteErr(err)
				return
			}
			r.adoptHead(head)
		}
		return
	}
	if r.cfg.Dial == nil {
		return
	}
	if at < r.nextRedialAt {
		return
	}
	r.stats.RedialAttempts++
	client, err := r.cfg.Dial()
	var head nvmeoe.Head
	if err == nil {
		if head, err = client.Head(); err != nil {
			client.Close()
		}
	}
	if err != nil {
		r.lastOffloadErr = err
		if r.redialBackoff == 0 {
			r.redialBackoff = r.cfg.RedialBackoff
		} else {
			r.redialBackoff *= 2
			if r.redialBackoff > r.cfg.RedialBackoffMax {
				r.redialBackoff = r.cfg.RedialBackoffMax
			}
		}
		r.nextRedialAt = at.Add(r.redialBackoff)
		return
	}
	r.stopEngine()
	if r.client != nil {
		r.client.Close() // unblock any server goroutine wedged on the dead pipe
	}
	r.client = client
	r.adoptHead(head)
	r.sessionDead = false
	r.redialBackoff = 0
	r.nextRedialAt = 0
	r.stats.Redials++
}
