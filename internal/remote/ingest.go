package remote

import (
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"repro/internal/bufpool"
	"repro/internal/nvmeoe"
	"repro/internal/oplog"
)

// The server-side ingest lane: the mirror image of the device's encode
// lane. Connection goroutines take codec blobs off the wire and hand them
// to a pooled decode-worker lane; workers inflate into pooled buffers,
// verify, append to the store (which runs the streaming detection
// subscribers), and write the durability ack. Jobs are sharded to workers
// by device ID, so one device's segments decode on one worker in arrival
// order — chain verification and Subscribe hooks see exactly the order the
// wire carried — while different devices decode in parallel.

// ServerConfig tunes the ingest path. Set it before the server accepts its
// first connection; the lane is sized lazily when the first session needs
// it.
type ServerConfig struct {
	// DecodeWorkers sizes the decode lane shared by every session; zero or
	// less uses GOMAXPROCS. Every segment is ingested on the lane.
	DecodeWorkers int
}

// decodeQueueDepth is each decode worker's job-queue capacity. A full queue
// backpressures the connection goroutine — and, through the transport, the
// device. Pipelining clients must keep their in-flight window well below
// this depth, or a synchronous in-memory transport (net.Pipe) can deadlock:
// the client blocked writing while the worker is blocked writing an ack the
// client is not reading.
const decodeQueueDepth = 1024

// IngestStats ledgers the server-side ingest path for one device, the
// ingest mirror of RecoveryStats. Wall-clock durations, not simulated
// time: server-side decode and detection are real compute.
type IngestStats struct {
	// Segments and Errors count accepted and rejected segment pushes.
	Segments uint64
	Errors   uint64
	// BytesWire is codec-framed bytes as received; BytesLogical their
	// decoded size. The ratio is the ingest-side decompression expansion.
	BytesWire    uint64
	BytesLogical uint64
	// DecodeTime is wall time the lane spent inflating and unmarshaling
	// this device's segments.
	DecodeTime time.Duration
	// DetectTime is wall time spent in store subscribers (the streaming
	// detection pipeline) for this device, read from the store's ledger.
	DetectTime time.Duration
	// DecodeQueuePeak is the deepest decode backlog (segments enqueued but
	// not yet fully ingested) any session of this device reached.
	DecodeQueuePeak int
}

type ingestLedger struct {
	mu sync.Mutex
	st IngestStats
}

// IngestStats returns the ingest-side ledger for one device.
func (s *Server) IngestStats(deviceID uint64) IngestStats {
	s.mu.Lock()
	l := s.ingest[deviceID]
	s.mu.Unlock()
	var st IngestStats
	if l != nil {
		l.mu.Lock()
		st = l.st
		l.mu.Unlock()
	}
	if s.Store != nil {
		st.DetectTime = s.Store.SubscriberTime(deviceID)
	}
	return st
}

// IngestTotals sums the per-device ingest ledgers into one server-wide
// view — the per-server row of the fleet scaling curve. DetectTime is
// omitted (the store's subscriber ledger is per device across the whole
// cluster, and a failed-over device would be double-counted); read it per
// device via IngestStats instead.
func (s *Server) IngestTotals() IngestStats {
	s.mu.Lock()
	ledgers := make([]*ingestLedger, 0, len(s.ingest))
	for _, l := range s.ingest {
		ledgers = append(ledgers, l)
	}
	s.mu.Unlock()
	var tot IngestStats
	for _, l := range ledgers {
		l.mu.Lock()
		st := l.st
		l.mu.Unlock()
		tot.Segments += st.Segments
		tot.Errors += st.Errors
		tot.BytesWire += st.BytesWire
		tot.BytesLogical += st.BytesLogical
		tot.DecodeTime += st.DecodeTime
		if st.DecodeQueuePeak > tot.DecodeQueuePeak {
			tot.DecodeQueuePeak = st.DecodeQueuePeak
		}
	}
	return tot
}

// ledger returns (creating on first contact) the device's ingest ledger.
func (s *Server) ledger(deviceID uint64) *ingestLedger {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ingest == nil {
		s.ingest = map[uint64]*ingestLedger{}
	}
	l := s.ingest[deviceID]
	if l == nil {
		l = &ingestLedger{}
		s.ingest[deviceID] = l
	}
	return l
}

// decodeJob is one wire blob awaiting decode. body is freshly owned: the
// frame layer returns a private buffer per ReadMsg, so handing it to a
// worker is safe.
type decodeJob struct {
	sess *session
	body []byte
}

// decodeLane is the pooled decode-worker pool. Its lifetime follows the
// sessions that use it: the first authenticated session spins the workers
// up, the last one out closes the queues and the workers drain and exit —
// an idle server keeps no lane goroutines.
type decodeLane struct {
	queues []chan decodeJob
	refs   int // active sessions, guarded by Server.mu
}

// acquireLane returns the running lane (starting it if needed) and takes a
// session reference.
func (s *Server) acquireLane() *decodeLane {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lane == nil {
		workers := s.Config.DecodeWorkers
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		l := &decodeLane{queues: make([]chan decodeJob, workers)}
		for i := range l.queues {
			l.queues[i] = make(chan decodeJob, decodeQueueDepth)
			go laneWorker(l.queues[i])
		}
		s.lane = l
	}
	s.lane.refs++
	return s.lane
}

// releaseLane drops a session reference; the last release closes the
// queues (queued jobs still drain) and forgets the lane.
func (s *Server) releaseLane(l *decodeLane) {
	s.mu.Lock()
	defer s.mu.Unlock()
	l.refs--
	if l.refs == 0 && s.lane == l {
		for _, q := range l.queues {
			close(q)
		}
		s.lane = nil
	}
}

// enqueue hands a segment body to the device's worker. Sharding by device
// ID keeps one device's jobs on one queue — per-device FIFO — while the
// fleet spreads across workers.
func (l *decodeLane) enqueue(ss *session, body []byte) {
	l.queues[int(ss.deviceID%uint64(len(l.queues)))] <- decodeJob{sess: ss, body: body}
}

func laneWorker(q chan decodeJob) {
	for job := range q {
		job.sess.ingestSegment(job.body)
		job.sess.done()
	}
}

// session is one authenticated device connection's server-side state.
type session struct {
	srv      *Server
	nc       net.Conn
	conn     *nvmeoe.Conn
	deviceID uint64
	lane     *decodeLane
	led      *ingestLedger

	// The nvmeoe.Conn is not safe for concurrent writers; lane workers
	// write acks while the connection goroutine writes fetch replies, so
	// every server-side write goes through writeMu. (The idle barrier
	// below already keeps those phases apart; the mutex makes the safety
	// local instead of global.)
	writeMu sync.Mutex

	pendMu  sync.Mutex
	pending int // segments enqueued to the lane, not yet fully ingested
	idle    sync.Cond

	// runs holds the store views of one entries frame (serveEntries).
	runs [][]oplog.Entry
}

func newSession(s *Server, nc net.Conn, conn *nvmeoe.Conn, deviceID uint64) *session {
	ss := &session{srv: s, nc: nc, conn: conn, deviceID: deviceID, led: s.ledger(deviceID)}
	ss.idle.L = &ss.pendMu
	return ss
}

func (ss *session) writeMsg(t nvmeoe.MsgType, payload []byte) error {
	ss.writeMu.Lock()
	defer ss.writeMu.Unlock()
	return ss.conn.WriteMsg(t, payload)
}

func (ss *session) sendErr(code uint32, err error) error {
	return ss.writeMsg(nvmeoe.MsgError, (&nvmeoe.ErrorMsg{Code: code, Text: err.Error()}).Marshal())
}

// begin registers one in-flight decode job, returning the backlog depth
// for the queue-peak ledger.
func (ss *session) begin() int {
	ss.pendMu.Lock()
	ss.pending++
	p := ss.pending
	ss.pendMu.Unlock()
	ss.srv.noteQueue(1)
	return p
}

func (ss *session) done() {
	ss.srv.noteQueue(-1)
	ss.pendMu.Lock()
	ss.pending--
	if ss.pending == 0 {
		ss.idle.Broadcast()
	}
	ss.pendMu.Unlock()
}

// waitIdle blocks until every lane job of this session has completed. The
// connection goroutine calls it before any non-segment dispatch, so a
// checkpoint, fetch, or head read ordered after a burst of segments on the
// wire still observes their effects — the lane reorders nothing a client
// can see — and again at session teardown so in-flight acks flush.
func (ss *session) waitIdle() {
	ss.pendMu.Lock()
	for ss.pending > 0 {
		ss.idle.Wait()
	}
	ss.pendMu.Unlock()
}

// decodeBlob is the lane's codec step: inflate (or copy) the wire blob
// into a pooled buffer sized by the blob's logical-size header. This is
// the step the alloc-regression test pins at 0 allocs/op — the ingest
// mirror of the device lane's encodeStaged.
func decodeBlob(buf *bufpool.Buf, body []byte) ([]byte, error) {
	return nvmeoe.AppendDecodeSegmentBlob(buf.B[:0], body)
}

// ingestSegment is the whole per-segment ingest: pooled decode, verify,
// append (running detection subscribers), ack. It runs on a lane worker.
func (ss *session) ingestSegment(body []byte) {
	ss.pendMu.Lock()
	queued := ss.pending
	ss.pendMu.Unlock()
	start := time.Now()
	buf := bufpool.Get(nvmeoe.SegmentBlobLogicalSize(body))
	raw, err := decodeBlob(buf, body)
	var seg *oplog.Segment
	logical := 0
	if err == nil {
		logical = len(raw)
		seg, err = oplog.UnmarshalSegment(raw)
	}
	decodeDur := time.Since(start)
	if err == nil && seg.DeviceID != ss.deviceID {
		err = fmt.Errorf("segment for device %d on session of device %d", seg.DeviceID, ss.deviceID)
	}
	if err == nil {
		// Persist the wire bytes as received: compressed on the wire is
		// compressed at rest, and the server never re-compresses.
		err = ss.srv.Store.AppendSegmentBlob(seg, body)
	}
	buf.Release() // seg's pages alias buf until the store's verify repoints them

	ss.led.mu.Lock()
	ss.led.st.DecodeTime += decodeDur
	if queued > ss.led.st.DecodeQueuePeak {
		ss.led.st.DecodeQueuePeak = queued
	}
	if err != nil {
		ss.led.st.Errors++
	} else {
		ss.led.st.Segments++
		ss.led.st.BytesWire += uint64(len(body))
		ss.led.st.BytesLogical += uint64(logical)
	}
	ss.led.mu.Unlock()
	if err == nil {
		ss.srv.winSegments.Add(1)
		ss.srv.winBytes.Add(uint64(len(body)))
	}

	if err != nil {
		// Report and keep the session: the device's chain state is
		// unchanged, so it can resync. Only a broken transport kills the
		// connection.
		if ss.sendErr(CodeBadData, err) != nil {
			ss.nc.Close()
		}
		return
	}
	// The ack carries the tier's modeled service time for this blob, so
	// the device's ack-latency model reflects the backend (s3sim's Put
	// latency), not just the NVMe-oE wire.
	ack := nvmeoe.Ack{UpTo: seg.LastSeq, SvcNs: uint64(ss.srv.Store.PutServiceTime(len(body)))}
	if ss.writeMsg(nvmeoe.MsgSegmentAck, ack.Marshal()) != nil {
		ss.nc.Close() // kick the reader loop; the device will reconnect
	}
}

// PushSegmentBlobs ships blobs in order over the session, keeping up to
// window segments in flight before draining acks — the pipelined push that
// keeps a server's decode lane fed, where PushSegmentBlob's one-at-a-time
// round trip would idle it. lastSeqs[i] is blobs[i]'s LastSeq; acks return
// in order. The first server-reported error aborts the push. window must
// stay well below the server's decodeQueueDepth (see there).
func (c *Client) PushSegmentBlobs(blobs [][]byte, lastSeqs []uint64, window int) error {
	if len(blobs) != len(lastSeqs) {
		return fmt.Errorf("remote: %d blobs with %d seqs", len(blobs), len(lastSeqs))
	}
	if window < 1 {
		window = 1
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	next, acked := 0, 0
	for acked < len(blobs) {
		for next < len(blobs) && next-acked < window {
			if err := c.conn.WriteMsg(nvmeoe.MsgSegment, blobs[next]); err != nil {
				return err
			}
			next++
		}
		typ, body, err := c.conn.ReadMsg()
		if err != nil {
			return err
		}
		switch typ {
		case nvmeoe.MsgSegmentAck:
			ack, err := nvmeoe.UnmarshalAck(body)
			if err != nil {
				return err
			}
			if ack.UpTo != lastSeqs[acked] {
				return fmt.Errorf("remote: ack up to %d, want %d", ack.UpTo, lastSeqs[acked])
			}
			acked++
		case nvmeoe.MsgError:
			em, err := nvmeoe.UnmarshalErrorMsg(body)
			if err != nil {
				return err
			}
			return &RemoteError{Code: em.Code, Text: em.Text}
		default:
			return fmt.Errorf("remote: unexpected message %v during pipelined push", typ)
		}
	}
	return nil
}
