package remote

import (
	"fmt"
	"net"
	"testing"

	"repro/internal/nvmeoe"
	"repro/internal/oplog"
	"repro/internal/simclock"
)

// entriesOnly is l's next n entries as one segment without pages: what a
// read-mostly device offloads and what forensics fetches back.
func entriesOnly(l *oplog.Log, deviceID uint64, n int) *oplog.Segment {
	seg := &oplog.Segment{DeviceID: deviceID, FirstSeq: l.NextSeq(), Entries: make([]oplog.Entry, 0, n)}
	for range n {
		seq := l.NextSeq()
		kind := oplog.KindRead
		if seq%8 == 0 {
			kind = oplog.KindWrite
		}
		seg.Entries = append(seg.Entries, l.Append(kind, simclock.Time(seq*1500), seq*7%4096, seq*13%65536, seq%65536,
			float32(seq%80)/10, oplog.HashData([]byte{byte(seq), byte(seq >> 8)})))
	}
	seg.LastSeq = l.NextSeq()
	return seg
}

// The sweep: history lengths from 48 k to 480 k entries, delivered as
// entries-only segments of runEntries each, so a FrameEntries-entry frame of
// a fetch crosses run boundaries.
var historySweep = []int{48_000, 120_000, 240_000, 480_000}

const runEntries = 1000

// history is the longest history of the sweep as the marshals of its
// segments and their codec blobs; a shorter one is a prefix of it.
func history() (raws, blobs [][]byte) {
	l := oplog.New()
	for range historySweep[len(historySweep)-1] / runEntries {
		raw := entriesOnly(l, 1, runEntries).Marshal()
		raws, blobs = append(raws, raw), append(blobs, nvmeoe.EncodeSegmentBlob(raw))
		l.Prune(l.NextSeq())
	}
	return raws, blobs
}

// ingest decodes each marshal and appends it to st, as the server's lane does
// once a blob is inflated.
func ingest(b *testing.B, st *Store, raws, blobs [][]byte) {
	for i, raw := range raws {
		seg, err := oplog.UnmarshalSegment(raw)
		if err == nil {
			err = st.AppendSegmentBlob(seg, blobs[i])
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFetchEntries is forensic.Timeline's work for a whole history: the
// server's store read back in one streamed fetch, through the codec and the
// frame layer over a net.Pipe, each frame derived on -cpu workers into one
// destination reused from pass to pass.
//
//	go test -run xxx -bench 'FetchEntries|IngestEntries' -cpu 1,2 ./internal/remote
func BenchmarkFetchEntries(b *testing.B) {
	raws, blobs := history()
	for _, n := range historySweep {
		b.Run(fmt.Sprintf("entries=%d", n), func(b *testing.B) {
			st := NewStore(NewMemStore())
			segs := n / runEntries
			ingest(b, st, raws[:segs], blobs[:segs])
			srv := NewServer(st, psk)
			defer srv.Close()
			dc, sc := net.Pipe()
			go srv.HandleConn(sc)
			wire := &countingConn{Conn: dc}
			cl, err := Dial(wire, psk, 1)
			if err != nil {
				b.Fatal(err)
			}
			defer cl.Close()
			dst := make([]oplog.Entry, 0, n)
			b.ReportAllocs()
			b.ResetTimer()
			wire.read.Store(0)
			for i := 0; i < b.N; i++ {
				if dst, err = cl.AppendEntries(dst[:0], 0, uint64(n)); err != nil {
					b.Fatal(err)
				}
				if len(dst) != n {
					b.Fatalf("%d entries of %d", len(dst), n)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/entry")
			b.ReportMetric(float64(wire.read.Load())/float64(b.N*n), "wire-B/entry")
		})
	}
}

// BenchmarkIngestEntries is the server's work for a read-mostly history once
// each blob is inflated: decode every segment's marshal and append it to the
// device's chain in one store that grows to the whole history, as the lane's
// store does. One SHA-256 per entry: deriving the chain is verifying it.
func BenchmarkIngestEntries(b *testing.B) {
	raws, blobs := history()
	for _, n := range historySweep {
		b.Run(fmt.Sprintf("entries=%d", n), func(b *testing.B) {
			segs := n / runEntries
			wire := 0
			for _, blob := range blobs[:segs] {
				wire += len(blob)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ingest(b, NewStore(NewMemStore()), raws[:segs], blobs[:segs])
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/entry")
			b.ReportMetric(float64(wire)/float64(n), "wire-B/entry")
		})
	}
}
