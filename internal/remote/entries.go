package remote

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/bufpool"
	"repro/internal/nvmeoe"
	"repro/internal/oplog"
)

// FrameEntries is how many entries one frame of an entries stream carries.
// The server answers a FetchEntries request with the range cut into stored
// page-less segment marshals of this many entries, the last one shorter, and
// ends the stream with MsgFetchEnd; the client derives each frame's chain
// while the next one crosses the wire.
const FrameEntries = 1024

// ErrEntriesStream reports an entries stream out of the bounds its request
// sets: a frame of more entries than FrameEntries or than the range has left,
// a frame once the range is full, or more frames than the range has entries.
var ErrEntriesStream = errors.New("remote: entries stream out of bounds")

// fetchReserveEntries bounds the room AppendEntries makes up front: a range
// is the caller's claim, and often a peer's (the head a server announced), so
// it sizes no allocation past this. A longer stream grows the slice as its
// frames arrive.
const fetchReserveEntries = 64 * FrameEntries

// serveEntries streams the device's entries with From <= Seq < To: one stored
// page-less segment marshal of FrameEntries entries per MsgFetchResp frame,
// the last shorter, as far as the store's head, then an empty MsgFetchEnd.
// Each frame is marshaled from the store's runs straight into the pooled
// buffer it is sealed from.
func (s *Server) serveEntries(ss *session, req nvmeoe.FetchReq) error {
	seg := oplog.Segment{DeviceID: ss.deviceID}
	for from := req.From; from < req.To; from += FrameEntries {
		ss.runs = s.Store.appendRuns(ss.runs[:0], ss.deviceID, from, from+min(req.To-from, FrameEntries))
		if len(ss.runs) == 0 {
			break
		}
		err := ss.writeStored(seg.MarshaledSizeRuns(ss.runs...), func(b []byte) []byte {
			return seg.AppendMarshalRuns(b, ss.runs...)
		})
		clear(ss.runs)
		if err != nil {
			return err
		}
	}
	return ss.writeMsg(nvmeoe.MsgFetchEnd, nil)
}

// FetchEntries retrieves log entries with from <= Seq < to: one request, its
// answer streamed in frames that are derived as they arrive (AppendEntries).
func (c *Client) FetchEntries(from, to uint64) ([]oplog.Entry, error) {
	return c.AppendEntries(nil, from, to)
}

// AppendEntries is FetchEntries appending to dst; on error dst is returned as
// it was. The range is one request answered by a stream of frames, and what
// it appends, or the frame error it returns, is what
// oplog.AppendSegmentEntries gives appending the frames one after another:
// each frame is a chain derived and held against its own last hash. What is
// left to the caller is that each frame extends the one before it, and the
// first starts where the caller expects.
//
// Each frame is read into a pooled buffer and derived in place, at its place
// in dst, on min(GOMAXPROCS, frames) workers while the next frame crosses the
// wire; with one P, or one frame, the reader derives each frame itself. A
// frame of more entries than FrameEntries, or than the range has left, is
// refused. After a frame fails the rest of the stream is read and dropped,
// so the session stays in step. A frame once the range is full, more frames
// than the range has entries, a broken connection, or a message that is no
// part of the stream ends the call at once with that error: the session is
// then out of step and must be closed, as after an abandoned image stream.
func (c *Client) AppendEntries(dst []oplog.Entry, from, to uint64) ([]oplog.Entry, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	req := nvmeoe.FetchReq{Kind: nvmeoe.FetchEntries, From: from, To: to}
	if err := c.conn.WriteMsg(nvmeoe.MsgFetch, req.Marshal()); err != nil {
		return dst, err
	}
	var want uint64
	if to > from {
		want = to - from
	}
	frames := want / FrameEntries
	if want%FrameEntries != 0 {
		frames++
	}
	procs := uint64(runtime.GOMAXPROCS(0))
	parallel := frames > 1 && procs > 1
	if parallel {
		startFrameWorkers(int(min(procs, frames)))
	}
	st := &c.stream
	st.failAt, st.err = -1, nil
	out := slices.Grow(dst, int(min(want, fetchReserveEntries)))
	n := len(out) // the end of what the frames so far were placed at
	var err error // what ended the stream early
	for k := uint64(0); ; k++ {
		typ, buf, rerr := c.conn.ReadMsgBuf()
		if rerr != nil {
			err = rerr
			break
		}
		if typ == nvmeoe.MsgFetchEnd {
			buf.Release()
			break
		}
		if typ != nvmeoe.MsgFetchResp || k == want || uint64(n-len(dst)) == want {
			err = streamError(typ, buf.B, want)
			buf.Release()
			break
		}
		if st.failed() {
			buf.Release()
			continue
		}
		raw, m, ferr := frameMarshal(buf.B, want-uint64(n-len(dst)))
		if ferr != nil {
			st.fail(int(k), ferr)
			buf.Release()
			continue
		}
		if cap(out)-n < m {
			// Frames in flight write into out: they finish before it moves.
			st.wg.Wait()
			out = slices.Grow(out[:n], m)
		}
		j := frameJob{st: st, k: int(k), buf: buf, raw: raw, out: out[n : n+m]}
		n += m
		if !parallel {
			j.derive()
			continue
		}
		st.wg.Add(1)
		frameJobs <- j
	}
	st.wg.Wait()
	if err == nil {
		err = st.err
	}
	if err != nil {
		return dst, err
	}
	return out[:n], nil
}

// frameMarshal decodes one frame of an entries stream and reads how many
// entries it carries, refusing more than a frame holds or than the stream
// has left of its range.
func frameMarshal(blob []byte, left uint64) ([]byte, int, error) {
	raw, err := nvmeoe.DecodeSegmentBlob(blob)
	if err != nil {
		return nil, 0, err
	}
	n, err := oplog.SegmentEntryCount(raw)
	if err == nil && (n > FrameEntries || uint64(n) > left) {
		err = fmt.Errorf("%w: a frame of %d entries, where the stream has room for %d", ErrEntriesStream, n, min(FrameEntries, left))
	}
	return raw, n, err
}

// streamError is why a message ends an entries stream early: the server's
// error, a frame past the range, or a message of another kind.
func streamError(typ nvmeoe.MsgType, body []byte, want uint64) error {
	switch typ {
	case nvmeoe.MsgError:
		em, err := nvmeoe.UnmarshalErrorMsg(body)
		if err != nil {
			return err
		}
		return &RemoteError{Code: em.Code, Text: em.Text}
	case nvmeoe.MsgFetchResp:
		return fmt.Errorf("%w: a frame past the %d entries asked for", ErrEntriesStream, want)
	default:
		return fmt.Errorf("remote: unexpected message %v in an entries stream", typ)
	}
}

// entriesStream is what one AppendEntries call shares with the workers
// deriving its frames: the frames in flight, and the earliest one that
// failed. A Client keeps one, so a fetch allocates nothing for it.
type entriesStream struct {
	wg     sync.WaitGroup
	mu     sync.Mutex
	failAt int // the earliest failed frame, or -1
	err    error
}

func (st *entriesStream) fail(k int, err error) {
	st.mu.Lock()
	if st.failAt < 0 || k < st.failAt {
		st.failAt, st.err = k, err
	}
	st.mu.Unlock()
}

func (st *entriesStream) failed() bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.failAt >= 0
}

// frameJob is one frame to derive: its marshal, the pooled buffer that holds
// it, and its place in the caller's slice.
type frameJob struct {
	st  *entriesStream
	k   int
	buf *bufpool.Buf
	raw []byte
	out []oplog.Entry
}

// derive derives the frame into its place and gives its buffer back.
func (j *frameJob) derive() {
	if err := oplog.DeriveSegmentEntries(j.out, j.raw); err != nil {
		j.st.fail(j.k, err)
	}
	j.buf.Release()
}

// frameJobs carries frames to the derivation workers, which every client's
// streams share. A worker is started the first time a fetch wants more than
// have been, up to GOMAXPROCS, and lives as long as the process: a fetch
// starts no goroutine once the pool has grown, and so allocates none.
var (
	frameJobs    = make(chan frameJob)
	frameWorkers atomic.Int32
)

func startFrameWorkers(n int) {
	for w := frameWorkers.Load(); int(w) < n; w = frameWorkers.Load() {
		if frameWorkers.CompareAndSwap(w, w+1) {
			go deriveFrames()
		}
	}
}

func deriveFrames() {
	for j := range frameJobs {
		j.derive()
		j.st.wg.Done()
	}
}
