package remote

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/bufpool"
	"repro/internal/nvmeoe"
	"repro/internal/oplog"
)

// blobsFor codec-frames a device's segments the way the wire carries them,
// returning the blobs alongside each segment's LastSeq for ack matching.
func blobsFor(segs []*oplog.Segment) (blobs [][]byte, lastSeqs []uint64) {
	for _, seg := range segs {
		blobs = append(blobs, nvmeoe.EncodeSegmentBlob(seg.Marshal()))
		lastSeqs = append(lastSeqs, seg.LastSeq)
	}
	return blobs, lastSeqs
}

// TestDecodeLaneOrderingUnderConcurrentIngest is the decode-lane contract
// test: a fleet of pipelined clients pushes over net.Pipe sessions into a
// server whose lane has fewer workers than there are devices, so queues are
// shared and genuinely concurrent. Per-device ordering must survive — every
// chain verifies from genesis, and the streaming subscriber sees each
// device's segments in ingest order — and a checkpoint sent after the burst
// must observe all of it (the waitIdle barrier).
func TestDecodeLaneOrderingUnderConcurrentIngest(t *testing.T) {
	const devices = 8
	const segsPerDevice = 16
	const window = 8

	st := NewStore(NewMemStore())
	srv := NewServer(st, psk)
	srv.Config = ServerConfig{DecodeWorkers: 3, DecodeQueueDepth: 64}

	var subMu sync.Mutex
	delivered := map[uint64][]uint64{}
	st.Subscribe(func(deviceID uint64, seg *oplog.Segment) {
		subMu.Lock()
		delivered[deviceID] = append(delivered[deviceID], seg.FirstSeq)
		subMu.Unlock()
	})

	errc := make(chan error, devices)
	var wg sync.WaitGroup
	for d := 0; d < devices; d++ {
		deviceID := uint64(200 + d)
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl, err := Loopback(srv, psk, deviceID)
			if err != nil {
				errc <- err
				return
			}
			defer cl.Close()
			blobs, lastSeqs := blobsFor(buildSegments(deviceID, segsPerDevice, 8))
			if err := cl.PushSegmentBlobs(blobs, lastSeqs, window); err != nil {
				errc <- fmt.Errorf("device %d: %w", deviceID, err)
				return
			}
			// Ordered after the pipelined burst on the same wire: the
			// barrier must make every pushed segment visible first.
			if err := cl.PushCheckpoint(&nvmeoe.Checkpoint{Seq: 1, WriteSeqs: []uint64{deviceID}}); err != nil {
				errc <- fmt.Errorf("device %d checkpoint: %w", deviceID, err)
				return
			}
			h, err := cl.Head()
			if err != nil {
				errc <- fmt.Errorf("device %d head: %w", deviceID, err)
				return
			}
			if want := uint64(segsPerDevice * 8); h.NextSeq != want {
				errc <- fmt.Errorf("device %d head after burst = %d, want %d", deviceID, h.NextSeq, want)
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	want := uint64(segsPerDevice * 8)
	for d := 0; d < devices; d++ {
		deviceID := uint64(200 + d)
		if h := st.Head(deviceID); h.NextSeq != want {
			t.Fatalf("device %d head %d, want %d", deviceID, h.NextSeq, want)
		}
		if err := oplog.VerifyChain(st.Entries(deviceID, 0, want), [oplog.HashSize]byte{}); err != nil {
			t.Fatalf("device %d chain: %v", deviceID, err)
		}
		subMu.Lock()
		seqs := delivered[deviceID]
		subMu.Unlock()
		if len(seqs) != segsPerDevice {
			t.Fatalf("device %d: subscriber saw %d segments, want %d", deviceID, len(seqs), segsPerDevice)
		}
		for i := 1; i < len(seqs); i++ {
			if seqs[i] <= seqs[i-1] {
				t.Fatalf("device %d: out-of-order delivery %v", deviceID, seqs)
			}
		}
		ist := srv.IngestStats(deviceID)
		if ist.Segments != segsPerDevice || ist.Errors != 0 {
			t.Fatalf("device %d ingest stats %+v", deviceID, ist)
		}
		if ist.BytesWire == 0 || ist.BytesLogical == 0 {
			t.Fatalf("device %d wire/logical bytes %d/%d", deviceID, ist.BytesWire, ist.BytesLogical)
		}
		if ist.DecodeTime <= 0 {
			t.Fatalf("device %d decode time not ledgered", deviceID)
		}
	}
	// Every session released its lane reference: an idle server keeps no
	// lane (and therefore no worker goroutines). HandleConn releases in a
	// defer after the client's Close lands; Server.Close returns once every
	// session has run its defers and deregistered.
	srv.Close()
	srv.mu.Lock()
	lane := srv.lane
	srv.mu.Unlock()
	if lane != nil {
		t.Fatal("lane still referenced after all sessions closed")
	}
}

// TestDecodeLaneErrorKeepsSession: a rejected segment (chain gap) ledgered
// as an error must not kill the session — the device resyncs and pushes the
// missing prefix on the same connection.
func TestDecodeLaneErrorKeepsSession(t *testing.T) {
	st := NewStore(NewMemStore())
	srv := NewServer(st, psk)
	srv.Config = ServerConfig{DecodeWorkers: 2}
	cl, err := Loopback(srv, psk, 13)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	blobs, lastSeqs := blobsFor(buildSegments(13, 3, 5))
	// Gap: segment 2 before segments 0 and 1.
	var re *RemoteError
	if err := cl.PushSegmentBlobs(blobs[2:], lastSeqs[2:], 1); !errors.As(err, &re) || re.Code != CodeBadData {
		t.Fatalf("gap push err = %v", err)
	}
	// Same session recovers with the full ordered chain.
	if err := cl.PushSegmentBlobs(blobs, lastSeqs, 2); err != nil {
		t.Fatalf("resync push: %v", err)
	}
	ist := srv.IngestStats(13)
	if ist.Errors != 1 || ist.Segments != 3 {
		t.Fatalf("ingest stats after resync %+v", ist)
	}
}

// TestServerDecodeSteadyStateAllocs pins the tentpole's server half: the
// lane's codec step — wire blob to logical segment bytes in a pooled buffer
// — runs at zero allocations per operation once warm, for both deflated and
// stored frames. The ingest mirror of the device lane's encodeStaged gate.
func TestServerDecodeSteadyStateAllocs(t *testing.T) {
	if bufpool.RaceEnabled {
		t.Skip("race instrumentation allocates; alloc assertions run in the non-race job")
	}
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"deflate", compressiblePage(16 << 10)},
		{"stored", incompressiblePage(16<<10, 0)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			seg := buildSegments(1, 1, 1)[0]
			seg.Pages[0].Data = tc.data
			seg.Pages[0].Hash = oplog.HashData(tc.data)
			blob := nvmeoe.EncodeSegmentBlob(seg.Marshal())
			buf := bufpool.Get(nvmeoe.SegmentBlobLogicalSize(blob))
			defer buf.Release()
			if n := testing.AllocsPerRun(50, func() {
				if _, err := decodeBlob(buf, blob); err != nil {
					t.Fatal(err)
				}
			}); n != 0 {
				t.Errorf("decodeBlob(%s): %v allocs/op, want 0", tc.name, n)
			}
		})
	}
}

func compressiblePage(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + i%17)
	}
	return b
}

// incompressiblePage is n bytes of xorshift noise, distinct per seed:
// content no code shrinks and no other seed repeats.
func incompressiblePage(n int, seed uint64) []byte {
	b := make([]byte, n)
	x := (seed + 1) * 0x9e3779b97f4a7c15
	for i := range b {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		b[i] = byte(x)
	}
	return b
}
