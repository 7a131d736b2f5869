package remote

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/bufpool"
	"repro/internal/netsim"
	"repro/internal/nvmeoe"
	"repro/internal/oplog"
	"repro/internal/simclock"
)

// Error codes carried in MsgError payloads.
const (
	CodeNotFound = 404
	CodeBadData  = 400
	CodeInternal = 500
)

// Server accepts NVMe-oE sessions from devices and serves the Store. Every
// connection gets its own handler, fed in wire order by its own reader
// (see ingest.go), and because the Store's indexes are sharded per device,
// sessions make progress independently — the server is the fan-in point of
// the fleet, not a serialization point.
type Server struct {
	Store *Store
	// LookupPSK maps an enrolled device ID to its pre-shared key.
	LookupPSK func(deviceID uint64) ([]byte, bool)
	// NIC is this server's egress-NIC arbiter: the single shared link that
	// restore streams and device offload traffic contend on
	// (internal/netsim). Set it before sessions attach (a Cluster gives
	// each of its servers one). Experiments wire it into device configs
	// (core.Config.NIC) and restore links (NewRecoveryLinkOn) so both
	// traffic classes are priced on one line.
	NIC *netsim.Arbiter

	mu            sync.Mutex
	conns         map[net.Conn]tracked // active sessions
	sessionsTotal uint64

	// Server-wide decode backlog (segments read off the wire, not yet fully
	// ingested) and its lifetime high-water mark.
	queueDepth atomic.Int64
	queuePeak  atomic.Int64

	ingested ingestCounters  // IngestTotals
	restored restoreCounters // RecoveryStats
}

// RecoveryStats is a server's restore ledger over its lifetime and every
// device it served: how many image streams it opened (and how many of
// those were resumes of an interrupted stream), and the chunk/page/byte
// volume that crossed the recovery path. Wire < logical is the codec
// compression; the restore wire traffic rides the same segment codec as
// offload. Every served page is either a literal (full payload with its
// content hash) or, on streams opened with FetchFlagDedup, a reference to a
// literal sent earlier in the stream (32-byte hash the device resolves
// locally).
type RecoveryStats struct {
	Streams      uint64
	Resumes      uint64 // streams opened mid-image (From > 0)
	Chunks       uint64
	Pages        uint64
	BytesWire    uint64
	BytesLogical uint64
	PagesLiteral uint64
	PagesRef     uint64
}

// restoreCounters is the server's one restore ledger, bumped once per
// stream and once per chunk served.
type restoreCounters struct {
	streams, resumes, chunks, pages                 atomic.Uint64
	bytesWire, bytesLogical, pagesLiteral, pagesRef atomic.Uint64
}

// DefaultRecoveryChunkPages bounds pages per streamed restore chunk when
// the device does not ask for a specific chunking; MaxRecoveryChunkPages
// clamps what a device may ask for (a chunk must stay a right-sized
// frame, and the request field is wire data — never an allocation size).
const (
	DefaultRecoveryChunkPages = 128
	MaxRecoveryChunkPages     = 4096
)

// RecoveryStats returns the server's restore ledger.
func (s *Server) RecoveryStats() RecoveryStats {
	r := &s.restored
	return RecoveryStats{
		Streams:      r.streams.Load(),
		Resumes:      r.resumes.Load(),
		Chunks:       r.chunks.Load(),
		Pages:        r.pages.Load(),
		BytesWire:    r.bytesWire.Load(),
		BytesLogical: r.bytesLogical.Load(),
		PagesLiteral: r.pagesLiteral.Load(),
		PagesRef:     r.pagesRef.Load(),
	}
}

// NewServer returns a server over store that accepts any device presenting
// psk (single-tenant setup; use LookupPSK directly for fleets).
func NewServer(store *Store, psk []byte) *Server {
	return &Server{
		Store:     store,
		LookupPSK: func(uint64) ([]byte, bool) { return psk, true },
		conns:     map[net.Conn]tracked{},
	}
}

// Serve accepts connections until the listener closes.
func (s *Server) Serve(l net.Listener) error {
	for {
		nc, err := l.Accept()
		if err != nil {
			return err
		}
		go s.HandleConn(nc)
	}
}

// SessionsTotal returns how many sessions ever authenticated.
func (s *Server) SessionsTotal() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sessionsTotal
}

// Close terminates every active session and waits for their teardown to
// finish — a handler stops at its first failed reply and drops what its
// reader queued behind it — so when Close returns, every segment that was
// in flight is either fully applied (decoded, chain-verified, appended,
// subscribers run) or never entered the store; nothing is half-applied.
// Devices see a transport error and requeue their unacked segments. Close
// is a drain, not a shutdown latch: connections accepted afterwards are
// served normally.
func (s *Server) Close() {
	s.closeConns(func(uint64) bool { return true })
}

// CloseDevice terminates (and drains, like Close) only the sessions of one
// device — how the cluster evicts a device from a live server during
// rebalancing so it redials to its new owner.
func (s *Server) CloseDevice(deviceID uint64) {
	s.closeConns(func(dev uint64) bool { return dev == deviceID })
}

// tracked is one registered session: its device and a channel closed when
// the session deregisters.
type tracked struct {
	deviceID uint64
	done     chan struct{}
}

// closeConns closes every tracked session matching the predicate and
// blocks until those sessions deregister. Closing the conn ends the
// session's reader and fails any ack its handler is blocked writing, so
// the handler cannot wedge on its way out.
func (s *Server) closeConns(match func(deviceID uint64) bool) {
	s.mu.Lock()
	var targets []net.Conn
	var done []chan struct{}
	for nc, t := range s.conns {
		if match(t.deviceID) {
			targets = append(targets, nc)
			done = append(done, t.done)
		}
	}
	s.mu.Unlock()
	for _, nc := range targets {
		nc.Close()
	}
	for _, d := range done {
		<-d
	}
}

// track registers an authenticated session, returning its deregister.
func (s *Server) track(nc net.Conn, deviceID uint64) func() {
	t := tracked{deviceID: deviceID, done: make(chan struct{})}
	s.mu.Lock()
	if s.conns == nil {
		s.conns = map[net.Conn]tracked{} // Server built as a literal
	}
	s.conns[nc] = t
	s.sessionsTotal++
	s.mu.Unlock()
	return func() {
		s.mu.Lock()
		delete(s.conns, nc)
		s.mu.Unlock()
		close(t.done)
	}
}

// noteQueue adjusts the server-wide decode backlog and, on growth, its
// peak.
func (s *Server) noteQueue(delta int64) {
	d := s.queueDepth.Add(delta)
	if delta <= 0 {
		return
	}
	for {
		p := s.queuePeak.Load()
		if d <= p || s.queuePeak.CompareAndSwap(p, d) {
			break
		}
	}
}

// QueuePeak returns the lifetime peak of the server-wide decode backlog.
func (s *Server) QueuePeak() int { return int(s.queuePeak.Load()) }

// HandleConn authenticates one device connection and serves its requests
// until it disconnects. Exported so tests and in-process wiring can drive
// a single net.Pipe end without a listener.
func (s *Server) HandleConn(nc net.Conn) {
	defer nc.Close()
	conn, deviceID, err := nvmeoe.ServerHandshake(nc, s.LookupPSK)
	if err != nil {
		return
	}
	defer s.track(nc, deviceID)()
	ss := &session{srv: s, conn: conn, deviceID: deviceID}
	frames := make(chan frame, sessionQueueDepth)
	go ss.read(frames)
	// The loop ends when the reader closes frames, so no reader outlives
	// its session.
	failed := false
	for f := range frames {
		if !failed && s.dispatch(ss, f.typ, f.body) != nil {
			// A reply failed: the device will reconnect and resume from
			// its last ack. Closing nc ends the reader; nothing queued
			// behind the failure is served, only drained.
			failed = true
			nc.Close()
		}
		if f.typ == nvmeoe.MsgSegment {
			s.noteQueue(-1)
		}
	}
}

// dispatch serves one frame in wire order: everything the wire carried
// before it has been ingested or answered.
func (s *Server) dispatch(ss *session, typ nvmeoe.MsgType, body []byte) error {
	switch typ {
	case nvmeoe.MsgSegment:
		// The payload is the codec-framed segment blob.
		return ss.ingestSegment(body)

	case nvmeoe.MsgCheckpoint:
		cp, err := nvmeoe.UnmarshalCheckpoint(body)
		if err != nil {
			return ss.sendErr(CodeBadData, err)
		}
		if err := s.Store.AppendCheckpoint(ss.deviceID, cp); err != nil {
			return ss.sendErr(CodeInternal, err)
		}
		return ss.conn.WriteMsg(nvmeoe.MsgCheckpointAck, (&nvmeoe.Ack{UpTo: cp.Seq}).Marshal())

	case nvmeoe.MsgFetch:
		req, err := nvmeoe.UnmarshalFetchReq(body)
		if err != nil {
			return ss.sendErr(CodeBadData, err)
		}
		return s.serveFetch(ss, req)

	default:
		return ss.sendErr(CodeBadData, fmt.Errorf("unexpected message type %v", typ))
	}
}

// serveFetch answers one retrieval request. Every reply that carries a
// segment marshal is wrapped in the segment codec: restore chunks deflated,
// because the link prices them, and entries frames, held listings and
// checkpoints stored (nvmeoe's codec rule). Head replies stay bare: 40 bytes
// gains nothing from a 9-byte codec header.
func (s *Server) serveFetch(ss *session, req nvmeoe.FetchReq) error {
	deviceID := ss.deviceID
	switch req.Kind {
	case nvmeoe.FetchEntries:
		return s.serveEntries(ss, req)
	case nvmeoe.FetchImageStream:
		return s.serveImageStream(ss, req)
	case nvmeoe.FetchCheckpoint:
		cp, ok := s.Store.Checkpoint(deviceID, req.Before)
		if !ok {
			return ss.sendErr(CodeNotFound, errors.New("no checkpoint"))
		}
		return ss.writeStored(cp.MarshaledSize(), cp.AppendMarshal)
	case nvmeoe.FetchHead:
		h := s.Store.Head(deviceID)
		return ss.conn.WriteMsg(nvmeoe.MsgFetchResp, h.Marshal())
	case nvmeoe.FetchHeld:
		seg := oplog.Segment{DeviceID: deviceID, Pages: s.Store.HeldVersions(deviceID)}
		return ss.writeStored(seg.MarshaledSize(), seg.AppendMarshal)
	default:
		return ss.sendErr(CodeBadData, fmt.Errorf("unknown fetch kind %d", req.Kind))
	}
}

// writeStored answers a fetch with a stored blob: marshal appends its size
// bytes straight behind the codec header, in the one pooled buffer the frame
// is sealed from. An entries frame is byte for byte the stored blob of a
// Segment whose Entries are Store.Entries(…) over the frame's range.
func (ss *session) writeStored(size int, marshal func([]byte) []byte) error {
	blob := bufpool.Get(nvmeoe.BlobOverhead + size)
	blob.B = marshal(nvmeoe.AppendStoredHeader(blob.B, size))
	err := ss.conn.WriteMsg(nvmeoe.MsgFetchResp, blob.B)
	blob.Release()
	return err
}

// serveImageStream streams the device's point-in-time image of the LPNs in
// [From, To) in LPN order: codec-framed chunks of at most ChunkPages pages
// each, terminated by a StreamEnd trailer. Each chunk is computed fresh from
// the store rather than from an up-front snapshot, so pages the device
// offloads while its own restore is running are served by later chunks
// instead of silently missed. The ledger counts a stream opened with
// From > 0 as a resume — the device already applied everything below From
// and the server just continues from there — and so also the first stream
// of a restore scoped to LPNs past 0.
//
// Every chunk is a MsgFetchChunkRef frame and every page in it carries its
// content hash. Two orthogonal reductions apply on request. With
// FetchFlagDedup, only the first occurrence of each content hash in the
// stream session carries the literal page; repeats carry only the hash —
// the per-session sent set guarantees every reference resolves from
// literals the device has already cached. With Anchor > 0, the stream is a
// checkpoint-anchored delta: only LPNs touched by a state-changing entry at
// or after the anchor are served, because everything else is bit-identical
// to what the device reconstructs from its own pre-anchor state.
func (s *Server) serveImageStream(ss *session, req nvmeoe.FetchReq) error {
	deviceID := ss.deviceID
	chunkPages := int(req.ChunkPages)
	if chunkPages <= 0 {
		chunkPages = DefaultRecoveryChunkPages
	}
	if chunkPages > MaxRecoveryChunkPages {
		chunkPages = MaxRecoveryChunkPages
	}
	led := &s.restored
	led.streams.Add(1)
	if req.From > 0 {
		led.resumes.Add(1)
	}
	only := s.Store.TouchedSince(deviceID, req.Anchor)
	// Hashes already sent as literals; nil when the device did not ask for
	// references, so nothing ever repeats.
	var sent map[[oplog.HashSize]byte]struct{}
	if req.Flags&nvmeoe.FetchFlagDedup != 0 {
		sent = make(map[[oplog.HashSize]byte]struct{})
	}
	refPages := make([]nvmeoe.RefPage, 0, chunkPages)
	from := req.From
	end := nvmeoe.StreamEnd{NextLPN: from}
	for {
		pages, next, more := s.Store.ImageRange(deviceID, from, req.To, req.Before, chunkPages, only)
		if len(pages) > 0 {
			refPages = refPages[:0]
			literal := 0
			for i := range pages {
				p := &pages[i]
				rp := nvmeoe.RefPage{
					LPN:      p.LPN,
					WriteSeq: p.WriteSeq,
					StaleSeq: p.StaleSeq,
					Cause:    p.Cause,
					Hash:     p.Hash,
				}
				if _, dup := sent[p.Hash]; dup {
					rp.Ref = true
				} else {
					rp.Data = p.Data
					if sent != nil {
						sent[p.Hash] = struct{}{}
					}
					literal++
				}
				refPages = append(refPages, rp)
			}
			raw := bufpool.Get(nvmeoe.RefChunkWireSize(refPages))
			raw.B = nvmeoe.AppendRefChunk(raw.B, deviceID, refPages)
			blob := bufpool.Get(nvmeoe.BlobOverhead + len(raw.B))
			blob.B = nvmeoe.AppendSegmentBlob(blob.B, raw.B)
			err := ss.conn.WriteMsg(nvmeoe.MsgFetchChunkRef, blob.B)
			logical, wire := len(raw.B), len(blob.B)
			raw.Release()
			blob.Release()
			if err != nil {
				return err
			}
			end.Chunks++
			end.Pages += uint64(len(pages))
			end.NextLPN = next
			led.chunks.Add(1)
			led.pages.Add(uint64(len(pages)))
			led.bytesWire.Add(uint64(wire))
			led.bytesLogical.Add(uint64(logical))
			led.pagesLiteral.Add(uint64(literal))
			led.pagesRef.Add(uint64(len(pages) - literal))
		}
		if !more || len(pages) == 0 {
			break
		}
		from = next
	}
	return ss.conn.WriteMsg(nvmeoe.MsgFetchEnd, end.Marshal())
}

// Client is the device-side handle to a remote server session. Calls are
// synchronous request/response, matching the single-queue offload engine.
type Client struct {
	mu     sync.Mutex
	conn   *nvmeoe.Conn
	stream entriesStream // AppendEntries' state, under mu
}

// Dial authenticates over nc and returns a client.
func Dial(nc net.Conn, psk []byte, deviceID uint64) (*Client, error) {
	conn, err := nvmeoe.DeviceHandshake(nc, psk, deviceID)
	if err != nil {
		return nil, err
	}
	return &Client{conn: conn}, nil
}

// Close tears down the session.
func (c *Client) Close() error { return c.conn.Close() }

// RemoteError is a server-reported failure.
type RemoteError struct {
	Code uint32
	Text string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("remote: server error %d: %s", e.Code, e.Text)
}

func (c *Client) roundTrip(t nvmeoe.MsgType, payload []byte, wantResp nvmeoe.MsgType) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.conn.WriteMsg(t, payload); err != nil {
		return nil, err
	}
	typ, body, err := c.conn.ReadMsg()
	if err != nil {
		return nil, err
	}
	if typ == nvmeoe.MsgError {
		em, err := nvmeoe.UnmarshalErrorMsg(body)
		if err != nil {
			return nil, err
		}
		return nil, &RemoteError{Code: em.Code, Text: em.Text}
	}
	if typ != wantResp {
		return nil, fmt.Errorf("remote: unexpected response %v, want %v", typ, wantResp)
	}
	return body, nil
}

// PushSegmentBlob ships one codec-framed segment blob, waits for the
// durability ack covering lastSeq and returns the storage tier's modeled
// Put service time carried in the ack (zero on free local tiers). The
// offload engine folds it into the simulated ack instant so device-side
// OffloadAckTime reflects the backend.
func (c *Client) PushSegmentBlob(blob []byte, lastSeq uint64) (simclock.Duration, error) {
	body, err := c.roundTrip(nvmeoe.MsgSegment, blob, nvmeoe.MsgSegmentAck)
	if err != nil {
		return 0, err
	}
	ack, err := nvmeoe.UnmarshalAck(body)
	if err != nil {
		return 0, err
	}
	if ack.UpTo != lastSeq {
		return 0, fmt.Errorf("remote: ack up to %d, want %d", ack.UpTo, lastSeq)
	}
	return simclock.Duration(ack.SvcNs), nil
}

// PushCheckpoint ships one mapping snapshot and waits for the ack.
func (c *Client) PushCheckpoint(cp *nvmeoe.Checkpoint) error {
	_, err := c.roundTrip(nvmeoe.MsgCheckpoint, cp.Marshal(), nvmeoe.MsgCheckpointAck)
	return err
}

// ChunkStats describes one streamed restore chunk as the client saw it:
// wire and logical sizes plus how the pages arrived — full literal
// payloads or hash references resolved from the cache.
type ChunkStats struct {
	WireBytes    int
	LogicalBytes int
	Literals     int
	Refs         int
}

// FetchImageStream streams the point-in-time image before the given
// sequence of the LPNs in [from, to) as LPN-ordered chunks, invoking fn once
// per chunk with the decoded pages (the slice is reused for the next chunk,
// the payloads are not). A whole image is [0, LogicalPages()); a restorer
// resumes an interrupted stream by asking again from its cursor, and one page
// is [lpn, lpn+1). anchor > 0 asks for a checkpoint-anchored delta: only LPNs
// touched at or after the anchor are streamed. The session is busy for the
// whole stream; if fn returns an error the stream is abandoned mid-flight
// and the session must be closed, which is exactly what a resuming
// restorer does.
//
// Every literal is checked against its content hash before fn sees it; a
// mismatch fails the stream. With a cache the stream is requested deduped
// (FetchFlagDedup): literals are verified as they enter the cache and
// references resolve from it. The cache must outlive resumes of the same
// restore only to dedup copies — the server's sent set is per session, so
// a resumed stream re-literals whatever it references and a fresh session
// is always self-contained.
func (c *Client) FetchImageStream(from, to, before, anchor uint64, chunkPages int, cache *ResolveCache, fn func(pages []oplog.PageRecord, cs ChunkStats) error) (nvmeoe.StreamEnd, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	req := nvmeoe.FetchReq{
		Kind: nvmeoe.FetchImageStream, From: from, To: to, Before: before,
		ChunkPages: uint32(chunkPages), Anchor: anchor,
	}
	if cache != nil {
		req.Flags |= nvmeoe.FetchFlagDedup
	}
	if err := c.conn.WriteMsg(nvmeoe.MsgFetch, req.Marshal()); err != nil {
		return nvmeoe.StreamEnd{}, err
	}
	var pages []oplog.PageRecord // scratch, reused across chunks
	for {
		typ, body, err := c.conn.ReadMsg()
		if err != nil {
			return nvmeoe.StreamEnd{}, err
		}
		switch typ {
		case nvmeoe.MsgFetchChunkRef:
			raw, err := nvmeoe.DecodeSegmentBlob(body)
			if err != nil {
				return nvmeoe.StreamEnd{}, err
			}
			cs := ChunkStats{WireBytes: len(body), LogicalBytes: len(raw)}
			pages = pages[:0]
			if _, err := nvmeoe.WalkRefChunk(raw, func(p nvmeoe.RefPage) error {
				rec := oplog.PageRecord{
					LPN:      p.LPN,
					WriteSeq: p.WriteSeq,
					StaleSeq: p.StaleSeq,
					Cause:    p.Cause,
					Hash:     p.Hash,
					Data:     p.Data,
				}
				switch {
				case p.Ref:
					// (A stream opened without a cache was promised no
					// references; one is as unresolvable as a miss.)
					var ok bool
					if cache != nil {
						rec.Data, ok = cache.Lookup(p.Hash)
					}
					if !ok {
						return fmt.Errorf("remote: unresolved hash reference for lpn %d", p.LPN)
					}
					cs.Refs++
				case cache != nil:
					data, err := cache.Add(p.Hash, p.Data)
					if err != nil {
						return err
					}
					rec.Data = data
					cs.Literals++
				default:
					if err := verifyLiteral(p.Hash, p.Data); err != nil {
						return err
					}
					cs.Literals++
				}
				pages = append(pages, rec)
				return nil
			}); err != nil {
				return nvmeoe.StreamEnd{}, err
			}
			if err := fn(pages, cs); err != nil {
				return nvmeoe.StreamEnd{}, err
			}
		case nvmeoe.MsgFetchEnd:
			return nvmeoe.UnmarshalStreamEnd(body)
		case nvmeoe.MsgError:
			em, err := nvmeoe.UnmarshalErrorMsg(body)
			if err != nil {
				return nvmeoe.StreamEnd{}, err
			}
			return nvmeoe.StreamEnd{}, &RemoteError{Code: em.Code, Text: em.Text}
		default:
			return nvmeoe.StreamEnd{}, fmt.Errorf("remote: unexpected message %v in image stream", typ)
		}
	}
}

// FetchCheckpoint retrieves the newest checkpoint at or before the given
// sequence.
func (c *Client) FetchCheckpoint(before uint64) (nvmeoe.Checkpoint, bool, error) {
	req := nvmeoe.FetchReq{Kind: nvmeoe.FetchCheckpoint, Before: before}
	body, err := c.roundTrip(nvmeoe.MsgFetch, req.Marshal(), nvmeoe.MsgFetchResp)
	var re *RemoteError
	if errors.As(err, &re) && re.Code == CodeNotFound {
		return nvmeoe.Checkpoint{}, false, nil
	}
	if err != nil {
		return nvmeoe.Checkpoint{}, false, err
	}
	raw, err := nvmeoe.DecodeSegmentBlob(body)
	if err != nil {
		return nvmeoe.Checkpoint{}, false, err
	}
	cp, err := nvmeoe.UnmarshalCheckpoint(raw)
	if err != nil {
		return nvmeoe.Checkpoint{}, false, err
	}
	return cp, true, nil
}

// FetchHeld retrieves the identity — LPN, WriteSeq, StaleSeq, Cause, Hash,
// no payload — of every page version the server holds for this device. One
// stored reply carries the whole listing at 61 bytes per version, so a single
// frame covers about a million versions.
func (c *Client) FetchHeld() ([]oplog.PageRecord, error) {
	req := nvmeoe.FetchReq{Kind: nvmeoe.FetchHeld}
	body, err := c.roundTrip(nvmeoe.MsgFetch, req.Marshal(), nvmeoe.MsgFetchResp)
	if err != nil {
		return nil, err
	}
	raw, err := nvmeoe.DecodeSegmentBlob(body)
	if err != nil {
		return nil, err
	}
	seg, err := oplog.UnmarshalSegment(raw)
	if err != nil {
		return nil, err
	}
	return seg.Pages, nil
}

// Head retrieves the remote chain state.
func (c *Client) Head() (nvmeoe.Head, error) {
	req := nvmeoe.FetchReq{Kind: nvmeoe.FetchHead}
	body, err := c.roundTrip(nvmeoe.MsgFetch, req.Marshal(), nvmeoe.MsgFetchResp)
	if err != nil {
		return nvmeoe.Head{}, err
	}
	return nvmeoe.UnmarshalHead(body)
}

// Loopback wires a client to srv over an in-process pipe, starting a
// handler goroutine. It is the standard way simulations attach a device to
// its remote server without real networking.
func Loopback(srv *Server, psk []byte, deviceID uint64) (*Client, error) {
	dc, sc := net.Pipe()
	go srv.HandleConn(sc)
	return Dial(dc, psk, deviceID)
}
