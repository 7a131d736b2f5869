package remote

import (
	"net"
	"testing"

	"repro/internal/nvmeoe"
	"repro/internal/oplog"
	"repro/internal/simclock"
)

// entriesOnly is a device's first n entries as one segment without pages:
// what a read-mostly device offloads and what forensics fetches back.
func entriesOnly(deviceID uint64, n int) *oplog.Segment {
	l := oplog.New()
	seg := &oplog.Segment{DeviceID: deviceID}
	for seq := uint64(0); seq < uint64(n); seq++ {
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

// BenchmarkFetchEntries is forensic.Timeline's unit of work: one batch of
// 4096 entries from the server's store, through the codec and the frame
// layer over a net.Pipe, to entries the client has verified as a chain.
//
//	go test -run xxx -bench 'FetchEntries|IngestEntries' -cpu 1 ./internal/remote
func BenchmarkFetchEntries(b *testing.B) {
	const n = 4096
	st := NewStore(NewMemStore())
	if err := st.AppendSegment(entriesOnly(1, n)); err != nil {
		b.Fatal(err)
	}
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
	b.ReportAllocs()
	b.ResetTimer()
	wire.read.Store(0)
	for i := 0; i < b.N; i++ {
		got, err := cl.FetchEntries(0, n)
		if err != nil || len(got) != n {
			b.Fatalf("%d entries, err=%v", len(got), err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/entry")
	b.ReportMetric(float64(wire.read.Load())/float64(b.N*n), "wire-B/entry")
}

// BenchmarkIngestEntries is the server's work for an entries-only segment
// once its blob is inflated: decode the marshal and append it to the
// device's chain. One SHA-256 per entry: deriving the chain is verifying it.
func BenchmarkIngestEntries(b *testing.B) {
	const n = 1024
	raw := entriesOnly(1, n).Marshal()
	blob := nvmeoe.EncodeSegmentBlob(raw)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := oplog.UnmarshalSegment(raw)
		if err != nil {
			b.Fatal(err)
		}
		if err := NewStore(NewMemStore()).AppendSegmentBlob(got, blob); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/entry")
	b.ReportMetric(float64(len(blob))/n, "wire-B/entry")
}
