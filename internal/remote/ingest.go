package remote

import (
	"fmt"
	"sync/atomic"

	"repro/internal/bufpool"
	"repro/internal/nvmeoe"
	"repro/internal/oplog"
)

// The server side of one device session: a reader goroutine moves frames
// off the wire into a bounded FIFO, and the session's handler (HandleConn's
// goroutine) takes them in wire order — a segment is inflated into a pooled
// buffer, verified, appended to the store (which runs the streaming
// detection subscribers) and acked; a checkpoint or fetch is served where
// the wire put it, after every segment sent before it. Different devices'
// sessions ingest in parallel; one device's segments reach chain
// verification and Subscribe hooks in exactly the order the wire carried.

// sessionQueueDepth is each session's frame-queue capacity. A full queue
// backpressures the reader — and, through the transport, the device.
// Pipelining clients must keep their in-flight window well below this
// depth, or a synchronous in-memory transport (net.Pipe) can deadlock: the
// client blocked writing while the handler is blocked writing an ack the
// client is not reading.
const sessionQueueDepth = 1024

// IngestStats is a server's ingest ledger: segment pushes accepted and
// rejected, and the codec-framed wire bytes of the accepted ones, over the
// server's lifetime and every device it served.
type IngestStats struct {
	Segments  uint64
	Errors    uint64
	BytesWire uint64
}

// ingestCounters is the server's one ingest ledger, bumped once per segment
// by ingestSegment.
type ingestCounters struct {
	segments, errors, bytesWire atomic.Uint64
}

// IngestTotals returns the server's ingest ledger — the per-server row of
// the fleet scaling curve.
func (s *Server) IngestTotals() IngestStats {
	return IngestStats{
		Segments:  s.ingested.segments.Load(),
		Errors:    s.ingested.errors.Load(),
		BytesWire: s.ingested.bytesWire.Load(),
	}
}

// session is one authenticated device connection's server-side state.
// Only its handler writes to conn.
type session struct {
	srv      *Server
	conn     *nvmeoe.Conn
	deviceID uint64

	// runs holds the store views of one entries frame (serveEntries).
	runs [][]oplog.Entry
}

// frame is one message the reader took off the wire. body is private to
// its ReadMsg, so the handler may keep it.
type frame struct {
	typ  nvmeoe.MsgType
	body []byte
}

// read moves frames from the wire into the session's queue until the conn
// fails or closes, then closes the queue. Queued segments count toward the
// server's decode backlog until the handler is done with them.
func (ss *session) read(frames chan<- frame) {
	defer close(frames)
	for {
		typ, body, err := ss.conn.ReadMsg()
		if err != nil {
			// A closed pipe or a transport-integrity failure ends the
			// session alike; the device reconnects and resumes from the
			// acked sequence.
			return
		}
		if typ == nvmeoe.MsgSegment {
			ss.srv.noteQueue(1)
		}
		frames <- frame{typ, body}
	}
}

func (ss *session) sendErr(code uint32, err error) error {
	return ss.conn.WriteMsg(nvmeoe.MsgError, (&nvmeoe.ErrorMsg{Code: code, Text: err.Error()}).Marshal())
}

// decodeBlob is ingest's codec step: inflate (or copy) the wire blob into
// a pooled buffer sized by the blob's logical-size header. This is the step
// the alloc-regression test pins at 0 allocs/op.
func decodeBlob(buf *bufpool.Buf, body []byte) ([]byte, error) {
	return nvmeoe.AppendDecodeSegmentBlob(buf.B[:0], body)
}

// ingestSegment is the whole per-segment ingest: pooled decode, verify,
// append (running detection subscribers), ack. It returns only a failed
// reply: a rejected segment is reported and the session kept.
func (ss *session) ingestSegment(body []byte) error {
	buf := bufpool.Get(nvmeoe.SegmentBlobLogicalSize(body))
	raw, err := decodeBlob(buf, body)
	var seg *oplog.Segment
	if err == nil {
		seg, err = oplog.UnmarshalSegment(raw)
	}
	if err == nil && seg.DeviceID != ss.deviceID {
		err = fmt.Errorf("segment for device %d on session of device %d", seg.DeviceID, ss.deviceID)
	}
	if err == nil {
		// Persist the wire bytes as received: compressed on the wire is
		// compressed at rest, and the server never re-compresses.
		err = ss.srv.Store.AppendSegmentBlob(seg, body)
	}
	buf.Release() // seg's pages alias buf until the store's verify repoints them

	if err != nil {
		ss.srv.ingested.errors.Add(1)
		// Report and keep the session: the device's chain state is
		// unchanged, so it can resync. Only a broken transport kills the
		// connection.
		return ss.sendErr(CodeBadData, err)
	}
	ss.srv.ingested.segments.Add(1)
	ss.srv.ingested.bytesWire.Add(uint64(len(body)))
	// The ack carries the tier's modeled service time for this blob, so
	// the device's ack-latency model reflects the backend (s3sim's Put
	// latency), not just the NVMe-oE wire.
	ack := nvmeoe.Ack{UpTo: seg.LastSeq, SvcNs: uint64(ss.srv.Store.PutServiceTime(len(body)))}
	return ss.conn.WriteMsg(nvmeoe.MsgSegmentAck, ack.Marshal())
}

// PushSegmentBlobs ships blobs in order over the session, keeping up to
// window segments in flight before draining acks — the pipelined push that
// keeps a session's handler fed, where PushSegmentBlob's one-at-a-time
// round trip would idle it. lastSeqs[i] is blobs[i]'s LastSeq; acks return
// in order. The first server-reported error aborts the push. window must
// stay well below the server's sessionQueueDepth (see there).
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
