package remote

import (
	"math/rand"
	"net"
	"sort"
	"sync/atomic"
	"testing"

	"repro/internal/oplog"
)

// countingConn counts the bytes a client reads off its session.
type countingConn struct {
	net.Conn
	read atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.read.Add(int64(n))
	return n, err
}

// bulkySegments is buildSegments with page-sized incompressible payloads, so
// a listing that dragged payloads along would show in its size.
func bulkySegments(deviceID uint64, n, k int) []*oplog.Segment {
	rng := rand.New(rand.NewSource(int64(deviceID)))
	segs := buildSegments(deviceID, n, k)
	for _, seg := range segs {
		for i := range seg.Pages {
			p := &seg.Pages[i]
			p.Data = make([]byte, 4096)
			rng.Read(p.Data)
			p.Hash = oplog.HashData(p.Data)
			p.Cause = uint8(i % 2)
		}
	}
	return segs
}

// bruteHeld is the reference listing: every page record of the given
// segments, payload dropped, in (LPN, WriteSeq) order.
func bruteHeld(segs []*oplog.Segment) []oplog.PageRecord {
	var out []oplog.PageRecord
	for _, seg := range segs {
		for _, p := range seg.Pages {
			p.Data = nil
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].LPN != out[j].LPN {
			return out[i].LPN < out[j].LPN
		}
		return out[i].WriteSeq < out[j].WriteSeq
	})
	return out
}

func sameListing(t *testing.T, what string, got, want []oplog.PageRecord) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d versions listed, want %d", what, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if len(g.Data) != 0 {
			t.Fatalf("%s: version %d carries %d payload bytes", what, i, len(g.Data))
		}
		if g.LPN != w.LPN || g.WriteSeq != w.WriteSeq || g.StaleSeq != w.StaleSeq || g.Cause != w.Cause || g.Hash != w.Hash {
			t.Fatalf("%s: version %d = %+v, want %+v", what, i, g, w)
		}
	}
}

// TestHeldVersionsListing: the payload-free listing a reopening device
// fetches equals a brute-force walk of what the device's sessions ingested —
// while a second device ingests into the same store — costs O(versions) on
// the wire whatever the page size, follows retention expiry, and is empty,
// not an error, for a device the store has never seen.
func TestHeldVersionsListing(t *testing.T) {
	st := NewStore(NewMemStore())
	srv := NewServer(st, psk)

	segs1 := bulkySegments(1, 12, 8)
	dc, sc := net.Pipe()
	go srv.HandleConn(sc)
	cc := &countingConn{Conn: dc}
	cl1, err := Dial(cc, psk, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cl1.Close()
	blobs1, seqs1 := blobsFor(segs1)
	if err := cl1.PushSegmentBlobs(blobs1, seqs1, 4); err != nil {
		t.Fatal(err)
	}
	want1 := bruteHeld(segs1)

	// A second device ingests concurrently with every listing below.
	segs2 := bulkySegments(2, 48, 8)
	done := make(chan error, 1)
	go func() {
		cl2, err := Loopback(srv, psk, 2)
		if err != nil {
			done <- err
			return
		}
		defer cl2.Close()
		blobs2, seqs2 := blobsFor(segs2)
		done <- cl2.PushSegmentBlobs(blobs2, seqs2, 4)
	}()

	for i := 0; i < 8; i++ {
		before := cc.read.Load()
		got, err := cl1.FetchHeld()
		if err != nil {
			t.Fatal(err)
		}
		sameListing(t, "device 1 under concurrent ingest", got, want1)
		// 61 bytes of identity per version plus the frame around the reply;
		// one 4 KiB payload per version would be two orders more.
		if perVersion := float64(cc.read.Load()-before) / float64(len(got)); perVersion > 80 {
			t.Fatalf("listing reply costs %.1f wire bytes per version, want <= 80", perVersion)
		}
	}

	// Expiry leaves the listing: the dropped segment's versions are gone,
	// everything else stays.
	if err := st.DropSegmentPages(1, 3); err != nil {
		t.Fatal(err)
	}
	got, err := cl1.FetchHeld()
	if err != nil {
		t.Fatal(err)
	}
	sameListing(t, "device 1 after expiry", got, bruteHeld(append(append([]*oplog.Segment{}, segs1[:3]...), segs1[4:]...)))

	if err := <-done; err != nil {
		t.Fatalf("device 2 ingest: %v", err)
	}
	sameListing(t, "device 2", st.HeldVersions(2), bruteHeld(segs2))

	// Never seen: nothing held, and that is not an error.
	cl3, err := Loopback(srv, psk, 777)
	if err != nil {
		t.Fatal(err)
	}
	defer cl3.Close()
	if got, err := cl3.FetchHeld(); err != nil || len(got) != 0 {
		t.Fatalf("unknown device listing = %d versions, %v; want empty, nil", len(got), err)
	}
}
