package forensic

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"net"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/attack"
	"repro/internal/bufpool"
	"repro/internal/core"
	"repro/internal/ftl"
	"repro/internal/host"
	"repro/internal/nand"
	"repro/internal/nvmeoe"
	"repro/internal/oplog"
	"repro/internal/remote"
	"repro/internal/simclock"
)

var psk = []byte("forensic-test-psk-0123456789abcd")

type rig struct {
	fs     *host.FlatFS
	dev    *core.RSSD
	store  *remote.Store
	client *remote.Client
}

func newRig(t *testing.T) *rig {
	t.Helper()
	store := remote.NewStore(remote.NewMemStore())
	srv := remote.NewServer(store, psk)
	client, err := remote.Loopback(srv, psk, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	cfg := core.DefaultConfig()
	cfg.FTL = ftl.Config{
		NAND: nand.Config{
			Geometry: nand.Geometry{
				Channels: 2, ChipsPerChannel: 2, DiesPerChip: 1, PlanesPerDie: 1,
				BlocksPerPlane: 64, PagesPerBlock: 8, PageSize: 512,
			},
			Timing: nand.DefaultTiming(),
		},
		OverProvision: 0.2,
	}
	dev := core.New(cfg, client)
	return &rig{fs: host.NewFlatFS(dev, simclock.NewClock()), dev: dev, store: store, client: client}
}

func TestTimelineMergesRemoteAndLocal(t *testing.T) {
	r := newRig(t)
	rng := rand.New(rand.NewSource(1))
	attack.Seed(r.fs, rng, 10, 2)
	// Force part of the log remote, keep a local suffix.
	if _, err := r.dev.OffloadNow(r.fs.Clock().Now()); err != nil {
		t.Fatal(err)
	}
	attack.RunBenign(r.fs, rng, 30, simclock.Minute)

	a := NewAnalyzer(r.dev, r.client)
	ev, err := a.Timeline()
	if err != nil {
		t.Fatal(err)
	}
	if !ev.ChainIntact {
		t.Fatal("chain reported broken")
	}
	if ev.RemoteEntries == 0 || ev.LocalEntries == 0 {
		t.Fatalf("merge did not span both stores: remote=%d local=%d", ev.RemoteEntries, ev.LocalEntries)
	}
	if uint64(len(ev.Entries)) != r.dev.Log().NextSeq() {
		t.Fatalf("timeline has %d entries, device issued %d", len(ev.Entries), r.dev.Log().NextSeq())
	}
	// Sequences are contiguous from zero.
	for i, e := range ev.Entries {
		if e.Seq != uint64(i) {
			t.Fatalf("entry %d has seq %d", i, e.Seq)
		}
	}
}

func TestTimelineLocalOnly(t *testing.T) {
	r := newRig(t)
	rng := rand.New(rand.NewSource(2))
	attack.Seed(r.fs, rng, 5, 2)
	a := NewAnalyzer(r.dev, nil)
	ev, err := a.Timeline()
	if err != nil {
		t.Fatal(err)
	}
	if ev.RemoteEntries != 0 || ev.LocalEntries == 0 {
		t.Fatalf("local-only: %+v", ev)
	}
}

func TestAttackWindowOnEncryptor(t *testing.T) {
	r := newRig(t)
	rng := rand.New(rand.NewSource(3))
	attack.Seed(r.fs, rng, 12, 3)
	attack.RunBenign(r.fs, rng, 60, simclock.Minute)
	preAttackSeq := r.dev.Log().NextSeq()
	rep, err := (&attack.Encryptor{Key: [32]byte{1}}).Run(r.fs, rng)
	if err != nil {
		t.Fatal(err)
	}
	a := NewAnalyzer(r.dev, r.client)
	ev, err := a.Timeline()
	if err != nil {
		t.Fatal(err)
	}
	win, err := a.AttackWindow(ev, r.dev.Log().NextSeq())
	if err != nil {
		t.Fatal(err)
	}
	if win.StartSeq < preAttackSeq {
		t.Fatalf("window starts at %d, before the attack began at %d", win.StartSeq, preAttackSeq)
	}
	if len(win.Victims) == 0 || win.EncryptWrites == 0 {
		t.Fatalf("window = %+v", win)
	}
	// Every encrypted page should be identified: the encryptor touched
	// rep.FilesAttacked files; victims must cover at least one page each.
	if len(win.Victims) < rep.FilesAttacked {
		t.Fatalf("victims %d < files attacked %d", len(win.Victims), rep.FilesAttacked)
	}
}

func TestAttackWindowOnTrimmingAttack(t *testing.T) {
	r := newRig(t)
	rng := rand.New(rand.NewSource(4))
	attack.Seed(r.fs, rng, 8, 2)
	(&attack.TrimmingAttack{Key: [32]byte{2}}).Run(r.fs, rng)
	a := NewAnalyzer(r.dev, r.client)
	ev, _ := a.Timeline()
	win, err := a.AttackWindow(ev, r.dev.Log().NextSeq())
	if err != nil {
		t.Fatal(err)
	}
	if win.MaliciousTrims == 0 {
		t.Fatalf("no malicious trims identified: %+v", win)
	}
}

func TestAttackWindowBenignOnly(t *testing.T) {
	r := newRig(t)
	rng := rand.New(rand.NewSource(5))
	attack.Seed(r.fs, rng, 10, 2)
	attack.RunBenign(r.fs, rng, 200, simclock.Minute)
	a := NewAnalyzer(r.dev, r.client)
	ev, err := a.Timeline()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.AttackWindow(ev, 0); !errors.Is(err, ErrNoAttack) {
		t.Fatalf("benign timeline produced a window: %v", err)
	}
}

func TestPageHistory(t *testing.T) {
	r := newRig(t)
	at := simclock.Time(0)
	at, _ = r.dev.Write(5, make([]byte, 512), at)
	at, _ = r.dev.Write(5, make([]byte, 512), at)
	r.dev.Read(5, at)
	r.dev.Trim(5, at)
	r.dev.Write(6, make([]byte, 512), at)
	a := NewAnalyzer(r.dev, r.client)
	ev, _ := a.Timeline()
	hist := a.PageHistory(ev, 5)
	if len(hist) != 4 {
		t.Fatalf("history of lpn 5 = %d entries", len(hist))
	}
	for _, e := range hist {
		if e.LPN != 5 {
			t.Fatalf("foreign entry in history: %+v", e)
		}
	}
}

func TestWriteReport(t *testing.T) {
	r := newRig(t)
	rng := rand.New(rand.NewSource(6))
	attack.Seed(r.fs, rng, 10, 2)
	(&attack.Encryptor{Key: [32]byte{1}}).Run(r.fs, rng)
	a := NewAnalyzer(r.dev, r.client)
	ev, _ := a.Timeline()
	win, err := a.AttackWindow(ev, r.dev.Log().NextSeq())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := a.WriteReport(&buf, ev, win); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"VERIFIED", "attack window", "Victim pages", "write"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

// TestEvidenceSurvivesHostCompromise: after offload, even an attacker with
// full host control cannot change what the remote store holds — the chain
// head is fixed, and re-pushing altered history is rejected upstream (see
// remote tests). Here we confirm the analyst's view is stable: the same
// remote prefix is returned before and after further (attacker) activity.
func TestEvidenceSurvivesHostCompromise(t *testing.T) {
	r := newRig(t)
	rng := rand.New(rand.NewSource(7))
	attack.Seed(r.fs, rng, 8, 2)
	r.dev.OffloadNow(r.fs.Clock().Now())
	head1 := r.store.Head(1)
	before := r.store.Entries(1, 0, head1.NextSeq)

	// Attacker acts (and even triggers more offload).
	(&attack.Encryptor{Key: [32]byte{9}}).Run(r.fs, rng)
	r.dev.OffloadNow(r.fs.Clock().Now())

	after := r.store.Entries(1, 0, head1.NextSeq)
	if len(before) != len(after) {
		t.Fatalf("remote prefix changed length: %d -> %d", len(before), len(after))
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("remote prefix entry %d changed", i)
		}
	}
}

// hostile is a server that announces head and answers a FetchEntries request
// as the protocol has it — the range cut into frames of remote.FrameEntries
// entries, then MsgFetchEnd — but each frame with whatever entries returns for
// its range. Every frame is an honest marshal in the codec codec gives for
// it, so each arrives as a verified chain; a deflated frame is deflated
// whatever that saves. extra frames follow the range, and with cut > 0 the
// connection is closed after that many frames, before MsgFetchEnd. Over a
// net.Pipe a frame is served only once the client has read it all.
type hostile struct {
	head    uint64
	entries func(from, to uint64) []oplog.Entry
	codec   func(frame int) nvmeoe.Codec
	extra   int
	cut     int
	fetches atomic.Int32 // FetchEntries requests received
	served  atomic.Int32 // frames the client has read
}

// client dials a session with h.
func (h *hostile) client(t *testing.T) *remote.Client {
	t.Helper()
	dc, sc := net.Pipe()
	go func() {
		conn, dev, err := nvmeoe.ServerHandshake(sc, func(uint64) ([]byte, bool) { return psk, true })
		if err != nil {
			sc.Close()
			return
		}
		defer conn.Close()
		for {
			_, body, err := conn.ReadMsg()
			if err != nil {
				return
			}
			req, err := nvmeoe.UnmarshalFetchReq(body)
			if err != nil {
				return
			}
			if req.Kind != nvmeoe.FetchEntries {
				if conn.WriteMsg(nvmeoe.MsgFetchResp, (&nvmeoe.Head{NextSeq: h.head}).Marshal()) != nil {
					return
				}
				continue
			}
			h.fetches.Add(1)
			k := 0
			serve := func(from, to uint64) bool {
				if k == h.cut && h.cut > 0 {
					return false
				}
				raw := (&oplog.Segment{DeviceID: dev, Entries: h.entries(from, to)}).Marshal()
				blob := nvmeoe.AppendStoredHeader(nil, len(raw))
				if codec := h.codec(k); codec == nvmeoe.CodecStored {
					blob = append(blob, raw...)
				} else {
					d := bufpool.GetDeflater()
					blob, _ = d.Append(blob, raw) // the error is always nil
					d.Release()
					blob[4] = byte(codec) // the header's codec byte
				}
				k++
				if conn.WriteMsg(nvmeoe.MsgFetchResp, blob) != nil {
					return false
				}
				h.served.Add(1)
				return true
			}
			for from := req.From; from < req.To; from += remote.FrameEntries {
				if !serve(from, min(from+remote.FrameEntries, req.To)) {
					return
				}
			}
			for i := range uint64(h.extra) {
				if from := req.To + i*remote.FrameEntries; !serve(from, from+remote.FrameEntries) {
					return
				}
			}
			if conn.WriteMsg(nvmeoe.MsgFetchEnd, nil) != nil {
				return
			}
		}
	}()
	cl, err := remote.Dial(dc, psk, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// TestTimelineLocatesTheBreak: a fetched frame is a verified chain in itself,
// so what Timeline can say of a hostile server's prefix is where a frame
// fails to extend the one before it; the local suffix, sealed by the device,
// is verified entry by entry and anchors the whole. Either way BrokenAt is an
// index into the merged timeline and the evidence gathered so far comes back.
// A stream out of the bounds of its request, a cut connection and a head past
// what the device issued are refused with an error and no evidence, never a
// hang or an allocation sized by the server's claim.
func TestTimelineLocatesTheBreak(t *testing.T) {
	r := newRig(t)
	rng := rand.New(rand.NewSource(11))
	attack.Seed(r.fs, rng, 10, 2)
	const batch = remote.FrameEntries
	for r.dev.Log().NextSeq() < 5*batch+batch/2 {
		if err := attack.RunBenign(r.fs, rng, 200, simclock.Second); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.dev.OffloadNow(r.fs.Clock().Now()); err != nil {
		t.Fatal(err)
	}
	attack.RunBenign(r.fs, rng, 30, simclock.Second)
	head := r.store.Head(1)
	honest := func(from, to uint64) []oplog.Entry { return r.store.Entries(1, from, to) }
	held := r.dev.Log().Entries(0, r.dev.Log().NextSeq())
	if local := r.dev.Log().NextSeq() - head.NextSeq; head.NextSeq <= 5*batch || local == 0 || len(held) == 0 || held[0].Seq != head.NextSeq {
		t.Fatalf("want six remote frames and a local suffix behind them: head %d, %d local, %d held", head.NextSeq, local, len(held))
	}

	// A forged prefix: entry 7 rewritten and everything after it resealed,
	// a valid chain from genesis all the way to the head it announces.
	forged := honest(0, head.NextSeq)
	forged[7].LPN ^= 1
	for i := 7; i < len(forged); i++ {
		forged[i].PrevHash = forged[i-1].Hash
		forged[i].Hash = forged[i].ComputeHash(forged[i].PrevHash)
	}

	// A refusal is an error without evidence, not a broken chain: refusedBy
	// is what it wraps, or errAny.
	const refused = -2
	errAny := errors.New("any error")
	for _, tc := range []struct {
		name      string
		head      uint64
		entries   func(from, to uint64) []oplog.Entry
		extra     int
		cut       int
		brokenAt  int
		refusedBy error
	}{
		{"honest", head.NextSeq, honest, 0, 0, -1, nil},
		// The first frame served again where the second belongs: a valid
		// frame out of place breaks at the frame boundary.
		{"replayed batch", head.NextSeq, func(from, to uint64) []oplog.Entry { return honest(0, to-from) }, 0, 0, batch, nil},
		// The second frame first: nothing chains onto genesis.
		{"batches out of order", head.NextSeq, func(from, to uint64) []oplog.Entry {
			switch from {
			case 0:
				return honest(batch, 2*batch)
			case batch:
				return honest(0, batch)
			}
			return honest(from, to)
		}, 0, 0, 0, nil},
		// A frame that starts one entry late chains onto the entry it skipped.
		{"entry withheld at the boundary", head.NextSeq, func(from, to uint64) []oplog.Entry {
			if from == batch {
				from++
			}
			return honest(from, to)
		}, 0, 0, batch, nil},
		// A head short of what the device knows it shipped: the local suffix
		// does not chain onto the truncated prefix.
		{"remote tail withheld", head.NextSeq - 5, honest, 0, 0, int(head.NextSeq) - 5, nil},
		// The forged prefix passes every check a server can be held to; the
		// device's own seal on the first local entry does not.
		{"forged prefix", head.NextSeq, func(from, to uint64) []oplog.Entry { return forged[from:to] }, 0, 0, int(head.NextSeq), nil},
		// A head the device never issued: refused before anything is fetched
		// or sized by it.
		{"head past the device", 1 << 40, honest, 0, 0, refused, errAny},
		// One entry more in a frame than a frame holds.
		{"frame of more entries than asked", head.NextSeq, func(from, to uint64) []oplog.Entry {
			if from == batch {
				to++
			}
			return honest(from, to)
		}, 0, 0, refused, remote.ErrEntriesStream},
		// Frames past the range without end: refused at the first, neither
		// buffered nor read on.
		{"stream longer than asked", head.NextSeq, func(from, to uint64) []oplog.Entry {
			return honest(from%head.NextSeq, min(from%head.NextSeq+to-from, head.NextSeq))
		}, 1 << 30, 0, refused, remote.ErrEntriesStream},
		// The connection cut after two frames, before MsgFetchEnd.
		{"cut before the end", head.NextSeq, honest, 0, 2, refused, io.EOF},
	} {
		codecs := map[string]func(int) nvmeoe.Codec{
			"stored":  func(int) nvmeoe.Codec { return nvmeoe.CodecStored },
			"deflate": func(int) nvmeoe.Codec { return nvmeoe.CodecDeflate },
			// A deflated frame in a stored stream is still a frame.
			"one deflated": func(k int) nvmeoe.Codec {
				if k == 2 {
					return nvmeoe.CodecDeflate
				}
				return nvmeoe.CodecStored
			},
		}
		for cname, codec := range codecs {
			h := &hostile{head: tc.head, entries: tc.entries, codec: codec, extra: tc.extra, cut: tc.cut}
			ev, err := NewAnalyzer(r.dev, h.client(t)).Timeline()
			switch tc.brokenAt {
			case -1:
				if err != nil || !ev.ChainIntact || uint64(len(ev.Entries)) != r.dev.Log().NextSeq() {
					t.Fatalf("%s, %s: %v", tc.name, cname, err)
				}
				continue
			case refused:
				if err == nil || errors.Is(err, ErrChainBroken) || ev != nil || tc.refusedBy != errAny && !errors.Is(err, tc.refusedBy) {
					t.Fatalf("%s, %s: err=%v, evidence %v, want a refusal by %v and no evidence", tc.name, cname, err, ev != nil, tc.refusedBy)
				}
				if tc.head > head.NextSeq && h.fetches.Load() != 0 {
					t.Fatalf("%s, %s: %d entries fetches for a head past the device", tc.name, cname, h.fetches.Load())
				}
				if frames := (head.NextSeq + batch - 1) / batch; tc.extra > 0 && uint64(h.served.Load()) > frames+1 {
					t.Fatalf("%s, %s: the client read %d frames of a %d-frame range", tc.name, cname, h.served.Load(), frames)
				}
				continue
			}
			if !errors.Is(err, ErrChainBroken) || ev == nil || ev.ChainIntact || ev.BrokenAt != tc.brokenAt {
				t.Fatalf("%s, %s: err=%v, evidence %+v, want ErrChainBroken at %d", tc.name, cname, err, ev != nil && ev.ChainIntact, tc.brokenAt)
			}
			if len(ev.Entries) <= ev.BrokenAt || ev.RemoteEntries+ev.LocalEntries != len(ev.Entries) {
				t.Fatalf("%s, %s: partial evidence of %d entries (%d remote, %d local) does not reach the break at %d",
					tc.name, cname, len(ev.Entries), ev.RemoteEntries, ev.LocalEntries, ev.BrokenAt)
			}
		}
	}
}

// TestTimelineAllocsDoNotGrowWithFrames: Timeline makes as many allocations
// over a remote prefix of one frame as over one of six, none of them per
// frame: the frames are read into pool buffers, derived in place in the
// timeline's one slice and given back.
func TestTimelineAllocsDoNotGrowWithFrames(t *testing.T) {
	if bufpool.RaceEnabled {
		t.Skip("race instrumentation allocates; alloc assertions run in the non-race job")
	}
	r := newRig(t)
	rng := rand.New(rand.NewSource(5))
	attack.Seed(r.fs, rng, 4, 1)
	a := NewAnalyzer(r.dev, r.client)
	// Collections mid-measurement would empty the pools: a refill is the
	// collector's allocation, not Timeline's.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	measure := func(frames uint64) float64 {
		t.Helper()
		for r.dev.Log().NextSeq() < (frames-1)*remote.FrameEntries+remote.FrameEntries/2 {
			if err := attack.RunBenign(r.fs, rng, 50, simclock.Second); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := r.dev.OffloadNow(r.fs.Clock().Now()); err != nil {
			t.Fatal(err)
		}
		attack.RunBenign(r.fs, rng, 10, simclock.Second)
		held := len(r.dev.Log().Entries(0, r.dev.Log().NextSeq()))
		if head := r.store.Head(1).NextSeq; (head+remote.FrameEntries-1)/remote.FrameEntries != frames || held == 0 {
			t.Fatalf("a remote prefix of %d entries and %d local, want %d frames and a local suffix", head, held, frames)
		}
		return testing.AllocsPerRun(10, func() {
			if ev, err := a.Timeline(); err != nil || !ev.ChainIntact {
				t.Fatal(err)
			}
		})
	}
	one, six := measure(1), measure(6)
	if one != six {
		t.Fatalf("Timeline: %v allocs over one frame, %v over six", one, six)
	}
}
