// Package rssd holds the top-level benchmark harness: one benchmark per
// table/figure/claim of the paper (backed by internal/experiment, the same
// engine cmd/rssdbench uses) plus microbenchmarks of the hot paths.
//
// Run everything:
//
//	go test -bench=. -benchmem
package rssd

import (
	"math/rand"
	"net"
	"testing"

	"repro/internal/core"
	"repro/internal/entropy"
	"repro/internal/experiment"
	"repro/internal/ftl"
	"repro/internal/nand"
	"repro/internal/nvmeoe"
	"repro/internal/oplog"
	"repro/internal/remote"
	"repro/internal/simclock"
	"repro/internal/workload"
)

// benchScale keeps per-iteration work bounded so -bench completes quickly;
// cmd/rssdbench at full scale produces the headline numbers.
func benchScale() experiment.Scale {
	s := experiment.SmallScale()
	s.TraceOps = 2000
	return s
}

// --- Experiment benchmarks: one per table/figure ---------------------------

// BenchmarkFig2RetentionTime regenerates Figure 2 (data retention time for
// 12 workloads under LocalSSD / +Compression / RSSD).
func BenchmarkFig2RetentionTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiment.Fig2Retention(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 12 {
			b.Fatal("missing workloads")
		}
	}
}

// BenchmarkTable1DefenseMatrix regenerates Table 1 (defense + recovery +
// forensics across four systems and four attacks).
func BenchmarkTable1DefenseMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells, err := experiment.DefenseMatrix(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		if len(cells) != 16 {
			b.Fatal("missing cells")
		}
	}
}

// BenchmarkPerfOverhead regenerates claims P1 and P2 (<1% storage
// performance overhead and minimal write amplification under trace-paced
// replay).
func BenchmarkPerfOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.PerfOverhead(benchScale(), []string{"hm"}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDetectionLatency measures the offloaded detection pipeline's
// coverage/latency across all six attack variants.
func BenchmarkDetectionLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiment.DetectionLatency(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if !r.Detected {
				b.Fatalf("%s undetected", r.Attack)
			}
		}
	}
}

// BenchmarkReopen measures mount-time recovery: OOB scan + remote log
// replay + retention-index reconstruction after a power cycle.
func BenchmarkReopen(b *testing.B) {
	store := remote.NewStore(remote.NewMemStore())
	srv := remote.NewServer(store, experiment.PSK)
	client, err := remote.Loopback(srv, experiment.PSK, 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.FTL = smallFTLConfig()
	dev := core.New(cfg, client)
	page := make([]byte, 4096)
	at := simclock.Time(0)
	for i := 0; i < 4000; i++ {
		if at, err = dev.Write(uint64(i)%dev.LogicalPages(), page, at); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := dev.OffloadNow(at); err != nil {
		b.Fatal(err)
	}
	client.Close()
	nandDev := dev.FTL().Device()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := remote.Loopback(srv, experiment.PSK, 1)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := core.Reopen(cfg, nandDev, c); err != nil {
			b.Fatal(err)
		}
		c.Close()
	}
}

// --- Ablation benchmarks (design choices called out in DESIGN.md) ----------

// BenchmarkAblationDetectors runs the detector-ablation matrix.
func BenchmarkAblationDetectors(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.DetectionAblation(benchScale()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Microbenchmarks of the hot paths ---------------------------------------

func smallFTLConfig() ftl.Config {
	return ftl.Config{
		NAND: nand.Config{
			Geometry: nand.Geometry{
				Channels: 4, ChipsPerChannel: 2, DiesPerChip: 1, PlanesPerDie: 1,
				BlocksPerPlane: 64, PagesPerBlock: 16, PageSize: 4096,
			},
			Timing: nand.DefaultTiming(),
		},
		OverProvision: 0.125,
	}
}

// BenchmarkFTLWrite measures the raw FTL write path (no retention).
func BenchmarkFTLWrite(b *testing.B) {
	f := ftl.New(smallFTLConfig(), nil)
	page := make([]byte, 4096)
	at := simclock.Time(0)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		at, err = f.Write(uint64(i)%f.LogicalPages(), page, at)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRSSDWrite measures the full RSSD write path: logging, entropy
// stamping, retention bookkeeping, and live offload.
func BenchmarkRSSDWrite(b *testing.B) {
	store := remote.NewStore(remote.NewMemStore())
	srv := remote.NewServer(store, experiment.PSK)
	client, err := remote.Loopback(srv, experiment.PSK, 1)
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()
	cfg := core.DefaultConfig()
	cfg.FTL = smallFTLConfig()
	dev := core.New(cfg, client)
	page := make([]byte, 4096)
	at := simclock.Time(0)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		at, err = dev.Write(uint64(i)%dev.LogicalPages(), page, at)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOplogAppend measures hash-chained log appends.
func BenchmarkOplogAppend(b *testing.B) {
	l := oplog.New()
	h := oplog.HashData([]byte("x"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Append(oplog.KindWrite, simclock.Time(i), uint64(i), 0, uint64(i), 7.5, h)
	}
}

// BenchmarkChainVerify measures evidence-chain verification throughput.
func BenchmarkChainVerify(b *testing.B) {
	l := oplog.New()
	for i := 0; i < 10000; i++ {
		l.Append(oplog.KindWrite, simclock.Time(i), uint64(i), 0, uint64(i), 0, [32]byte{})
	}
	entries := l.All()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := oplog.VerifyChain(entries, [32]byte{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(entries)), "entries/op")
}

// BenchmarkSegmentMarshal measures offload segment encoding.
func BenchmarkSegmentMarshal(b *testing.B) {
	seg := &oplog.Segment{DeviceID: 1}
	data := make([]byte, 4096)
	for i := 0; i < 128; i++ {
		seg.Pages = append(seg.Pages, oplog.PageRecord{
			LPN: uint64(i), WriteSeq: uint64(i), StaleSeq: uint64(i + 1),
			Hash: oplog.HashData(data), Data: data,
		})
	}
	b.SetBytes(int64(128 * 4096))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := seg.Marshal()
		if _, err := oplog.UnmarshalSegment(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNVMeoEThroughput measures the secure transport end to end
// (compress + encrypt + MAC + frame + verify + decrypt).
func BenchmarkNVMeoEThroughput(b *testing.B) {
	dc, sc := net.Pipe()
	psk := experiment.PSK
	srvCh := make(chan *nvmeoe.Conn, 1)
	go func() {
		conn, _, err := nvmeoe.ServerHandshake(sc, func(uint64) ([]byte, bool) { return psk, true })
		if err != nil {
			srvCh <- nil
			return
		}
		srvCh <- conn
	}()
	dev, err := nvmeoe.DeviceHandshake(dc, psk, 1)
	if err != nil {
		b.Fatal(err)
	}
	srv := <-srvCh
	if srv == nil {
		b.Fatal("handshake failed")
	}
	payload := make([]byte, 256<<10)
	rand.New(rand.NewSource(1)).Read(payload)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		errCh := make(chan error, 1)
		go func() { errCh <- dev.WriteMsg(nvmeoe.MsgSegment, payload) }()
		if _, _, err := srv.ReadMsg(); err != nil {
			b.Fatal(err)
		}
		if err := <-errCh; err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEntropyEstimate measures the device-side entropy stamp.
func BenchmarkEntropyEstimate(b *testing.B) {
	data := make([]byte, 4096)
	rand.New(rand.NewSource(2)).Read(data)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		entropy.Sampled(data, 512)
	}
}

// BenchmarkTraceGenerator measures synthetic workload generation.
func BenchmarkTraceGenerator(b *testing.B) {
	prof, _ := workload.ProfileByName("hm")
	g := workload.NewGenerator(prof, 4096, 1<<20, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Next()
	}
}
