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

// This file implements the offload engine: the pipeline between the
// retention watermark check and the NVMe-oE transport. The host path
// *seals* segments (reads their pages on the NAND background lane into
// pooled buffers), and each sealed segment is encoded and pushed to the
// remote server at once, in seal order. Pins are released only when
// simulated time reaches the segment's durability ack — the zero-data-loss
// invariant — and neither the compression nor the transfer time sits on
// the host path.
//
// Concurrency model: none. The engine runs on the device's own goroutine,
// like all FTL/RSSD state: it starts no goroutine and makes no channel. The
// isolation and overlap the paper's offload engine gets from hardware are a
// simulated-time property here, fixed when a segment is staged.
//
// Simulated-time model: staging fixes each segment's schedule
// deterministically — encodeWorkers simulated codec lanes, each encoding at
// encodeMBps, earliest-free lane first, then one serialized link per
// session: start = max(encode done, link free), ack = the NIC arbiter's
// grant for the wire bytes from start + the storage tier's modeled Put
// service time, which the server reports in the ack. inFlight holds the
// staged segments in seal order; the poll points (afterOps, Pressure,
// drainOffload, stopEngine and the backpressure loop in stage) apply its
// head once simulated time reaches its ack instant, so encode and transfer
// overlap host I/O instead of adding to it.
//
// Allocation model: the hot path rents everything from internal/bufpool.
// Page reads land in pooled buffers released once their bytes are encoded;
// the marshal buffer is released as soon as the blob is framed; the blob
// buffer is released after the push. In steady state a segment's trip
// through seal→encode→ship allocates only its stagedSegment.
//
// There is no other route off the device: every segment, Pressure's and
// OffloadNow's included, is staged, encoded on a codec lane and shipped.

// stagedSegment is one sealed segment travelling through the pipeline.
type stagedSegment struct {
	seg       *oplog.Segment
	blob      []byte            // codec-framed wire encoding (what actually ships)
	blobBuf   *bufpool.Buf      // pooled backing of blob; released after the push
	pageBufs  []*bufpool.Buf    // pooled page data; released once encoded
	batch     []*retEntry       // retained pages carried by seg (pins still held)
	sealedAt  simclock.Time     // flash background reads complete
	encDoneAt simclock.Time     // the simulated codec lane finishes this segment
	ackAt     simclock.Time     // simulated durability-ack arrival (link + tier model)
	wire      int               // compressed wire bytes: what the link model charges
	logical   int               // uncompressed marshal size
	svc       simclock.Duration // storage tier's modeled Put service time (from the ack)
	err       error             // the push's failure, applied at ackAt
}

// The engine's fixed model: encodeWorkers simulated codec lanes, each
// compressing at encodeMBps (BestSpeed-class DEFLATE; the real encode runs
// as fast as the CPU allows). A device without Config.NIC ships over a
// private link of offloadLinkRTT + bytes at offloadLinkMBps.
const (
	encodeWorkers   = 2
	encodeMBps      = 400
	offloadLinkRTT  = 30 * simclock.Microsecond
	offloadLinkMBps = 1200
)

// offloadEngine is one client session's pipeline: the simulated codec lanes
// and link, and the shipped segments whose acks are not applied yet.
type offloadEngine struct {
	client *remote.Client
	flow   *netsim.Flow // prices each push on the device's NIC arbiter
	depth  int          // in-flight bound (backpressure point)

	inFlight      []*stagedSegment // shipped, in seal order, awaiting ackAt
	pagesInFlight int
	encFree       [encodeWorkers]simclock.Time // simulated next-free time per codec lane
	linkFree      simclock.Time                // the link's last grant this session ends
	// failure epoch: once one segment fails, everything behind it in the
	// pipeline fails too (the chain has a gap at the server). Failed
	// batches are collected in stage order and requeued together when the
	// pipeline drains, then staging resumes from the acked sequence.
	failing       bool
	failedBatches [][]*retEntry
}

// ship encodes st and pushes it over the session, fixing its ack instant on
// the session's link: the segment goes on the wire once its codec lane is
// done and the link is free.
func (e *offloadEngine) ship(st *stagedSegment) {
	encodeStaged(st)
	start := simclock.Max(st.encDoneAt, e.linkFree)
	st.svc, st.err = e.client.PushSegmentBlob(st.blob, st.seg.LastSeq)
	e.linkFree = e.flow.Grant(st.wire, start)
	st.ackAt = e.linkFree.Add(st.svc)
	// The wire bytes have left the device; the pooled blob goes back.
	st.blobBuf.Release()
	st.blobBuf, st.blob = nil, nil
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

// offloadFlow lazily resolves the device's NIC arbiter and opens its
// offload-class flow on it. With cfg.NIC set the flow contends on the
// shared server NIC under the QoS policy; nil builds a private single-flow
// arbiter on the device's own link, which prices every transfer at RTT +
// bytes over the full line. The arbiter is resolved once; the flow spans
// engine restarts and closes with the device.
func (r *RSSD) offloadFlow() *netsim.Flow {
	if r.nic == nil {
		r.nic = r.cfg.NIC
		if r.nic == nil {
			r.nic = netsim.New(netsim.Config{MBps: offloadLinkMBps, RTT: offloadLinkRTT})
		}
	}
	if r.nicFlow == nil {
		r.nicFlow = r.nic.Open(netsim.ClassOffload, 1)
	}
	return r.nicFlow
}

// encodeDur models compressing n marshal bytes on one codec lane.
func encodeDur(n int) simclock.Duration {
	return simclock.Duration(float64(n) / (encodeMBps * 1e6) * float64(simclock.Second))
}

// ensureEngine lazily opens the pipeline of the attached client's session.
// Its pushes are priced by the device's offload-class flow on the NIC
// arbiter — a shared server NIC when cfg.NIC is set, a private single-flow
// arbiter otherwise.
func (r *RSSD) ensureEngine() *offloadEngine {
	if r.engine == nil {
		r.engine = &offloadEngine{client: r.client, flow: r.offloadFlow(), depth: r.cfg.OffloadQueueDepth}
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
		r.applyHead()
	}
	r.engine = nil
}

// Close applies every in-flight ack, retires the engine and closes the
// device's NIC flow. The device remains usable (offload falls back to lazy
// engine start on the next watermark crossing); call it when retiring a
// device instance.
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
// advances stagedUpTo and fixes the segment's logical (marshal) size, which
// schedules its simulated encode. On error the caller must requeue batch.
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
	st := &stagedSegment{seg: seg, batch: batch, sealedAt: at}
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
// codec lanes and ships it — the one way a segment leaves the device.
// When depth segments are in flight the host stalls: the oldest acks are
// applied until a slot frees, and the wait for them is charged to the
// returned host time. The batch must already be popped from the retention
// queue; on build failure it is requeued.
func (r *RSSD) stage(batch []*retEntry, at simclock.Time) (simclock.Time, error) {
	e := r.ensureEngine()
	st, err := r.buildSegment(batch, at)
	if err != nil {
		r.requeue(batch)
		return at, err
	}
	dur := encodeDur(st.logical)
	r.stats.EncodeTime += dur
	// Earliest-free simulated codec lane.
	lane := 0
	for i := 1; i < len(e.encFree); i++ {
		if e.encFree[i] < e.encFree[lane] {
			lane = i
		}
	}
	st.encDoneAt = simclock.Max(st.sealedAt, e.encFree[lane]).Add(dur)
	e.encFree[lane] = st.encDoneAt
	// Backpressure: the host waits out the oldest acks until a slot frees.
	for len(e.inFlight) >= e.depth {
		if ackAt := e.inFlight[0].ackAt; ackAt > at {
			r.stats.OffloadStalls++
			r.stats.OffloadStallTime += ackAt.Sub(at)
			at = ackAt
		}
		r.applyHead()
	}
	// Pushes and grants follow seal order, behind the backpressure wait.
	e.ship(st)
	e.inFlight = append(e.inFlight, st)
	e.pagesInFlight += len(st.batch)
	if n := len(e.inFlight); n > r.stats.OffloadQueuePeak {
		r.stats.OffloadQueuePeak = n
	}
	// Encode-stage occupancy: segments still on a simulated codec lane
	// when this one was sealed. Peak > 1 is the overlap the codec lanes
	// buy; a persistently full encode stage means the codec lanes are the
	// pipeline's bottleneck.
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

// pollOffload applies, in seal order, every in-flight segment whose
// simulated ack instant has been reached.
func (r *RSSD) pollOffload(at simclock.Time) {
	e := r.engine
	if e == nil {
		return
	}
	for len(e.inFlight) > 0 && e.inFlight[0].ackAt <= at {
		r.applyHead()
	}
}

// drainOffload applies every in-flight segment and advances host time to
// the final ack.
func (r *RSSD) drainOffload(at simclock.Time) simclock.Time {
	e := r.engine
	if e == nil {
		return at
	}
	for len(e.inFlight) > 0 {
		at = simclock.Max(at, e.inFlight[0].ackAt)
		r.applyHead()
	}
	return at
}

// applyHead applies the oldest in-flight segment's ack: success releases
// the pins and advances the durable frontier, failure opens (or extends)
// the failure epoch.
func (r *RSSD) applyHead() {
	e := r.engine
	st := e.inFlight[0]
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
// the background engine rather than host I/O. A restore in flight keeps the
// pins at or past its cursor: its stream may already have passed the
// version, and the pin is then the only candidate it will see.
func (r *RSSD) releaseSegment(st *stagedSegment) {
	for _, re := range st.batch {
		r.stats.OffloadPages++
		if rb := r.rolling; rb != nil && re.lpn >= rb.cursor {
			rb.held = append(rb.held, re)
			continue
		}
		r.unpin(re)
	}
	r.stats.OffloadSegments++
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
	if !r.engine.failing {
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
// applied; adopting them (counted in Stats.ResumeGap) instead of
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
// factory. Attempts back off exponentially in simulated time (from
// backoffBase, capped at backoffMax). On success the durable
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
			r.redialBackoff = backoffBase
		} else {
			r.redialBackoff = min(2*r.redialBackoff, backoffMax)
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
