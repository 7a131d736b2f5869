package remote

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/nvmeoe"
	"repro/internal/oplog"
	"repro/internal/simclock"
)

// strongS3 returns an S3 model with strongly-consistent LIST so the
// generic CRUD contract applies unchanged.
func strongS3() *S3Sim {
	cfg := DefaultS3Config()
	cfg.ListLagOps = 0
	return NewS3Sim(cfg)
}

func TestS3SimCRUD(t *testing.T) {
	testObjectStore(t, strongS3())
}

func TestBackendRegistry(t *testing.T) {
	for _, name := range []string{"mem", "dir", "s3sim"} {
		os, err := OpenBackend(name, BackendOptions{Dir: t.TempDir()})
		if err != nil {
			t.Fatalf("open %s: %v", name, err)
		}
		if err := os.Put("k", []byte("v")); err != nil {
			t.Fatalf("%s put: %v", name, err)
		}
		got, err := os.Get("k")
		if err != nil || !bytes.Equal(got, []byte("v")) {
			t.Fatalf("%s get = %q, %v", name, got, err)
		}
	}
	if _, err := OpenBackend("dir", BackendOptions{}); err == nil {
		t.Fatal("dir backend without a root directory accepted")
	}
	if _, err := OpenBackend("gopher-cloud", BackendOptions{}); err == nil {
		t.Fatal("unknown backend accepted")
	}
}

// Regression: DirStore must map every flavour of missing path to
// ErrNotFound exactly as MemStore does — including a key whose path
// crosses an existing regular file (ENOTDIR, not ErrNotExist, from the
// OS) — and Delete of any missing key must be idempotent.
func TestDirStoreNotFoundConsistency(t *testing.T) {
	ds, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Put("dev/1", []byte("blob")); err != nil {
		t.Fatal(err)
	}
	if _, err := ds.Get("dev/1/seg/000"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get across file = %v, want ErrNotFound", err)
	}
	if _, err := ds.Get("dev/missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get missing = %v, want ErrNotFound", err)
	}
	if err := ds.Delete("dev/1/seg/000"); err != nil {
		t.Fatalf("Delete across file = %v, want nil", err)
	}
	if err := ds.Delete("dev/missing"); err != nil {
		t.Fatalf("Delete missing = %v, want nil", err)
	}
}

func TestS3SimMultipart(t *testing.T) {
	cfg := DefaultS3Config()
	cfg.PartSize = 1024
	cfg.PartLanes = 2
	cfg.ListLagOps = 0
	s := NewS3Sim(cfg)

	small := make([]byte, 512)
	if err := s.Put("small", small); err != nil {
		t.Fatal(err)
	}
	st := s.TierStats()
	if st.MultipartUploads != 0 || st.Parts != 0 {
		t.Fatalf("small put went multipart: %+v", st)
	}
	wantUSD := cfg.PutUSD
	wantLat := cfg.FirstByte + simclock.Duration(float64(len(small))/(cfg.MBps*1e6)*float64(simclock.Second))
	if math.Abs(st.RequestUSD-wantUSD) > 1e-12 || st.PutLatency != wantLat {
		t.Fatalf("small put cost/latency = %v/%v, want %v/%v", st.RequestUSD, st.PutLatency, wantUSD, wantLat)
	}

	big := make([]byte, 4*1024+512) // 5 parts at 1 KiB
	if err := s.Put("big", big); err != nil {
		t.Fatal(err)
	}
	st = s.TierStats()
	if st.MultipartUploads != 1 || st.Parts != 5 {
		t.Fatalf("multipart = %d uploads / %d parts, want 1/5", st.MultipartUploads, st.Parts)
	}
	// 5 parts + initiate + complete, and 3 lane-rounds of first-byte.
	wantUSD += float64(5+2) * cfg.PutUSD
	wantLat += cfg.FirstByte*simclock.Duration(2+3) + simclock.Duration(float64(len(big))/(cfg.MBps*1e6)*float64(simclock.Second))
	if math.Abs(st.RequestUSD-wantUSD) > 1e-12 || st.PutLatency != wantLat {
		t.Fatalf("multipart cost/latency = %v/%v, want %v/%v", st.RequestUSD, st.PutLatency, wantUSD, wantLat)
	}
	if got, err := s.Get("big"); err != nil || !bytes.Equal(got, big) {
		t.Fatalf("multipart readback: %v", err)
	}
	if st.BytesStored != int64(len(small)+len(big)) || s.Size() != st.BytesStored {
		t.Fatalf("stored bytes = %d", st.BytesStored)
	}
	if usd := s.MonthlyStorageUSD(); usd <= 0 {
		t.Fatalf("monthly storage cost = %v, want > 0", usd)
	}
}

func TestS3SimEventualList(t *testing.T) {
	cfg := DefaultS3Config()
	cfg.ListLagOps = 2
	s := NewS3Sim(cfg)

	if err := s.Put("a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	// Read-after-write holds even while LIST lags.
	if _, err := s.Get("a"); err != nil {
		t.Fatalf("fresh key unreadable: %v", err)
	}
	if keys, _ := s.List(""); len(keys) != 0 {
		t.Fatalf("fresh key already listed: %v", keys)
	}
	if n := s.PendingListKeys(); n != 1 {
		t.Fatalf("pending = %d, want 1", n)
	}
	// Two more mutating ops age "a" into visibility; "b" and "c" still lag.
	s.Put("b", []byte("2"))
	s.Put("c", []byte("3"))
	keys, _ := s.List("")
	if len(keys) != 1 || keys[0] != "a" {
		t.Fatalf("aged listing = %v, want [a]", keys)
	}
	s.Settle()
	if keys, _ := s.List(""); len(keys) != 3 {
		t.Fatalf("settled listing = %v, want 3 keys", keys)
	}
	if n := s.PendingListKeys(); n != 0 {
		t.Fatalf("pending after settle = %d", n)
	}
	// Overwriting an already-listed key must not un-list it: the lag
	// window only governs keys LIST has never shown.
	if err := s.Put("a", []byte("1v2")); err != nil {
		t.Fatal(err)
	}
	if keys, _ := s.List(""); len(keys) != 3 {
		t.Fatalf("overwrite un-listed a visible key: %v", keys)
	}
}

// TestReloadMixedBlobs rebuilds a store whose object store holds a mix of
// stored and deflated segment blobs: the chain must verify end to end across
// the codec boundary. A blob without the codec header fails the reload.
func TestReloadMixedBlobs(t *testing.T) {
	segs := buildSegments(1, 4, 10)
	blobs := NewMemStore()
	var wantLogical, wantStored int64
	codecs := map[nvmeoe.Codec]int{}
	rng := rand.New(rand.NewSource(11))
	for i, seg := range segs {
		if i%2 == 0 {
			// Random page bodies: deflate saves nothing, the blob is stored.
			for j := range seg.Pages {
				data := make([]byte, 2048)
				rng.Read(data)
				seg.Pages[j].Data, seg.Pages[j].Hash = data, oplog.HashData(data)
			}
		}
		raw := seg.Marshal()
		blob := nvmeoe.EncodeSegmentBlob(raw)
		codecs[nvmeoe.Codec(blob[4])]++
		blobs.Put(fmt.Sprintf("dev/1/seg/%020d", seg.FirstSeq), blob)
		wantLogical += int64(len(raw))
		wantStored += int64(len(blob))
	}
	if codecs[nvmeoe.CodecDeflate] != 2 || codecs[nvmeoe.CodecStored] != 2 {
		t.Fatalf("blobs by codec = %v, want two of each", codecs)
	}
	bare := NewMemStore()
	bare.Put("dev/1/seg/00000000000000000000", segs[0].Marshal())
	if err := NewStore(bare).Reload(); !errors.Is(err, nvmeoe.ErrBadBlob) {
		t.Fatalf("reload of a blob without the codec header: err=%v, want ErrBadBlob", err)
	}
	st := NewStore(blobs)
	if err := st.Reload(); err != nil {
		t.Fatal(err)
	}
	if got := st.Head(1).NextSeq; got != 40 {
		t.Fatalf("head = %d, want 40", got)
	}
	ds := st.DeviceStats(1)
	if ds.Segments != 4 || ds.BytesLogical != wantLogical || ds.BytesStored != wantStored {
		t.Fatalf("stats = %+v, want logical %d stored %d", ds, wantLogical, wantStored)
	}
	// Both codecs fetch and decode.
	for i := range segs {
		got, err := st.FetchSegment(1, i)
		if err != nil {
			t.Fatalf("fetch %d: %v", i, err)
		}
		if !bytes.Equal(got.Marshal(), segs[i].Marshal()) {
			t.Fatalf("fetch %d: segment mismatch", i)
		}
	}
	if _, err := st.FetchSegment(1, len(segs)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("fetch past end = %v", err)
	}
	if _, err := st.FetchSegment(9, 0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("fetch unknown device = %v", err)
	}
}

// TestAppendCompressesAtRest: segments ingested through the normal path
// land codec-framed, smaller than their logical size.
func TestAppendCompressesAtRest(t *testing.T) {
	segs := buildSegments(1, 2, 10)
	for i := range segs {
		for j := range segs[i].Pages {
			// Compressible page bodies (the builder's short strings stay
			// under the deflate floor).
			data := bytes.Repeat([]byte("ransom"), 512)
			segs[i].Pages[j].Data = data
			segs[i].Pages[j].Hash = oplog.HashData(data)
		}
	}
	blobs := NewMemStore()
	st := NewStore(blobs)
	for _, seg := range segs {
		if err := appendDecoded(st, seg); err != nil {
			t.Fatal(err)
		}
	}
	ds := st.DeviceStats(1)
	if ds.BytesStored >= ds.BytesLogical {
		t.Fatalf("stored %d >= logical %d: wire compression missing", ds.BytesStored, ds.BytesLogical)
	}
	keys, _ := blobs.List("dev/1/seg/")
	for _, k := range keys {
		b, _ := blobs.Get(k)
		if !nvmeoe.IsSegmentBlob(b) {
			t.Fatalf("%s stored without codec frame", k)
		}
	}
}

// TestReloadSettledOnS3Sim: on an eventually-consistent tier a plain
// Reload sees a stale listing and rebuilds short of the chain head;
// ReloadSettled waits out the window and recovers everything.
func TestReloadSettledOnS3Sim(t *testing.T) {
	cfg := DefaultS3Config()
	cfg.ListLagOps = 3
	s3 := NewS3Sim(cfg)
	st := NewStore(s3)
	segs := buildSegments(1, 4, 10)
	for _, seg := range segs {
		if err := appendDecoded(st, seg); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Reload(); err != nil {
		t.Fatalf("stale reload: %v", err)
	}
	if got := st.Head(1).NextSeq; got >= 40 {
		t.Fatalf("stale listing rebuilt full head %d; consistency lag not modeled", got)
	}
	if err := st.ReloadSettled(); err != nil {
		t.Fatal(err)
	}
	if got := st.Head(1).NextSeq; got != 40 {
		t.Fatalf("settled head = %d, want 40", got)
	}
}

func TestTierProfilesAndPutServiceTime(t *testing.T) {
	memP, s3P := Profile("mem"), Profile("s3sim")
	if s3P.OffloadQueueDepth <= memP.OffloadQueueDepth {
		t.Fatalf("cloud tier queue %d not deeper than local %d", s3P.OffloadQueueDepth, memP.OffloadQueueDepth)
	}
	if s3P.OffloadHighWater >= memP.OffloadHighWater {
		t.Fatalf("cloud tier high water %v not earlier than local %v", s3P.OffloadHighWater, memP.OffloadHighWater)
	}
	if p := Profile("no-such-tier"); p.OffloadQueueDepth <= 0 {
		t.Fatalf("unknown tier got empty profile %+v", p)
	}

	s3 := NewS3Sim(DefaultS3Config())
	small := s3.PutServiceTime(1 << 10)
	if small < DefaultS3Config().FirstByte {
		t.Fatalf("small put service %v below first-byte floor", small)
	}
	big := s3.PutServiceTime(64 << 20) // multipart territory
	if big <= small {
		t.Fatalf("multipart put %v not above small put %v", big, small)
	}
	// Store surfaces the model; free tiers report zero.
	if d := NewStore(s3).PutServiceTime(1 << 10); d != small {
		t.Fatalf("store-surfaced service time %v != tier's %v", d, small)
	}
	if d := NewStore(NewMemStore()).PutServiceTime(1 << 10); d != 0 {
		t.Fatalf("mem tier service time = %v, want 0", d)
	}
}
