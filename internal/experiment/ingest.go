package experiment

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/detect"
	"repro/internal/metrics"
	"repro/internal/nvmeoe"
	"repro/internal/oplog"
	"repro/internal/remote"
	"repro/internal/simclock"
)

// The ingest experiment is the server half of the wire-speed story: the
// datapath experiment grades the device's encode lane, this one grades the
// server's decode lane. A fleet of pipelined sessions saturates one server
// — decode-worker lane on, detection subscribers attached — and the run
// reports three things:
//
//  1. Measured: wall-clock server-side segs/s and wire MB/s, plus the
//     per-stage ledger (decode time, detection time, queue peaks) the
//     IngestStats API exposes.
//  2. Modeled: the same blob trace pushed through a deterministic event
//     model — a NIC serializing arrivals at NICMBps, feeding DecodeLanes
//     modeled inflate lanes at LaneMBps of logical output each, with the
//     implementation's device-to-lane affinity. The model's delivered wire
//     throughput against the NIC's is the saturation figure the wire-speed
//     claim is graded on: >= 0.9 means the decode lane is not the
//     bottleneck and the NIC is.
//  3. The decode hot loop's allocs/op, the number the pooled inflater is
//     graded on (0 in steady state).
//
// Measured wall numbers depend on host cores; the model is deterministic,
// which is what makes the saturation gate CI-stable.

// Modeled hardware for the saturation gate. The NIC is a 25 GbE offload
// port (~3000 MB/s of payload); a decode lane is modeled at 400 MB/s of
// logical (decompressed) output. One lane of the in-house inflater, measured
// wall clock on a 2.1 GHz Xeon core, does ≈ 340 MB/s on this experiment's
// page mix (a pseudo-random byte every fourth position: one literal and one
// three-byte match per four bytes, the decoder's worst case per byte) and
// 780–1860 MB/s on segments of 35 %- to 10 %-random pages
// (BenchmarkInflate); every run reports its own figure as DecodeLaneMBps
// next to this constant.
const (
	IngestNICMBps  = 3000.0
	IngestLaneMBps = 400.0
)

// IngestMeasuredRow is the wall-clock side of the ingest run.
type IngestMeasuredRow struct {
	Devices       int
	SegsPerDevice int
	DecodeWorkers int
	Window        int // client pipeline depth
	Segments      uint64
	Errors        uint64
	WireMB        float64
	LogicalMB     float64
	WallMs        float64
	SegsPerSec    float64
	WireMBps      float64
	DecodeMs      float64 // summed per-device lane decode wall time
	DetectMs      float64 // summed per-device detection subscriber wall time
	QueuePeak     int     // deepest per-session decode backlog observed
	Alerts        int     // detection alerts raised by the benign trace (want 0)
}

// IngestModelRow is the deterministic NIC-vs-decode-lane event model over
// the same blob trace the measured run pushed.
type IngestModelRow struct {
	NICMBps       float64
	DecodeLanes   int
	LaneMBps      float64
	WireMB        float64
	LogicalMB     float64
	MakespanMs    float64
	ModelWireMBps float64 // wire bytes over model makespan
	Saturation    float64 // ModelWireMBps / NICMBps; >= 0.9 is the gate
	QueuePeak     int     // deepest modeled per-lane backlog
}

// IngestResult is the full ingest report.
type IngestResult struct {
	Measured          IngestMeasuredRow
	Model             IngestModelRow
	DecodeAllocsPerOp float64
	DecodeBytesPerOp  float64
	// DecodeLaneMBps is what one decode lane measured on this host, logical
	// MB/s wall clock over the same hot loop — next to Model.LaneMBps, the
	// constant the model assumes.
	DecodeLaneMBps float64
}

// ingestPage builds page content with the fleet profile's mixed
// compressibility: mostly text-like bytes with a pseudo-random byte every
// fourth position. It deflates (~1.5x), so the wire carries CodecDeflate
// frames and the decode lane does real inflate work, but it does not
// compress so well that the modeled NIC's logical-side demand outruns any
// plausible lane pool.
func ingestPage(n int, salt uint64) []byte {
	b := make([]byte, n)
	for i := range b {
		if i%4 == 0 {
			b[i] = byte((uint64(i) + salt) * 2654435761 >> 16)
		} else {
			b[i] = byte('a' + (i+int(salt))%29)
		}
	}
	return b
}

// ingestBlobMeta is one wire blob's footprint, in push order, for the model.
type ingestBlobMeta struct {
	device  int
	wire    int
	logical int
}

// ingestSegments builds one device's chained segment trace and its
// codec-framed wire blobs.
func ingestSegments(s Scale, deviceID uint64, segs, pagesPerSeg int) (blobs [][]byte, lastSeqs []uint64, logical []int) {
	l := oplog.New()
	for sg := 0; sg < segs; sg++ {
		seg := &oplog.Segment{DeviceID: deviceID, FirstSeq: l.NextSeq()}
		for i := 0; i < pagesPerSeg; i++ {
			data := ingestPage(s.PageSize, uint64(sg*pagesPerSeg+i))
			lpn := uint64(sg*pagesPerSeg+i) % 64
			e := l.Append(oplog.KindWrite, simclock.Time(sg*pagesPerSeg+i), lpn, 0,
				uint64(sg*pagesPerSeg+i), 1, oplog.HashData(data))
			seg.Entries = append(seg.Entries, e)
			seg.Pages = append(seg.Pages, oplog.PageRecord{
				LPN: lpn, WriteSeq: e.Seq, StaleSeq: e.Seq + 64,
				Hash: oplog.HashData(data), Data: data,
			})
		}
		seg.LastSeq = l.NextSeq()
		raw := seg.Marshal()
		blobs = append(blobs, nvmeoe.EncodeSegmentBlob(raw))
		lastSeqs = append(lastSeqs, seg.LastSeq)
		logical = append(logical, len(raw))
	}
	return blobs, lastSeqs, logical
}

// ingestModel replays the blob trace through the deterministic event
// model: the NIC serializes arrivals in wire order; each blob then queues
// on its device's decode lane (the implementation's device%lanes affinity)
// and decodes at LaneMBps of logical output. FIFO per lane, so a two-index
// sweep per lane finds the backlog peak.
func ingestModel(metas []ingestBlobMeta, lanes int, nicMBps, laneMBps float64) IngestModelRow {
	row := IngestModelRow{NICMBps: nicMBps, DecodeLanes: lanes, LaneMBps: laneMBps}
	type ev struct{ arr, fin float64 }
	laneFree := make([]float64, lanes)
	perLane := make([][]ev, lanes)
	var wire, logical float64
	t, makespan := 0.0, 0.0
	for _, m := range metas {
		wire += float64(m.wire)
		logical += float64(m.logical)
		t += float64(m.wire) / (nicMBps * 1e6) // NIC delivery completes
		lane := m.device % lanes
		start := t
		if laneFree[lane] > start {
			start = laneFree[lane]
		}
		fin := start + float64(m.logical)/(laneMBps*1e6)
		laneFree[lane] = fin
		perLane[lane] = append(perLane[lane], ev{arr: t, fin: fin})
		if fin > makespan {
			makespan = fin
		}
	}
	for _, evs := range perLane {
		done := 0
		for j, e := range evs {
			for done < j && evs[done].fin <= e.arr {
				done++
			}
			if d := j - done + 1; d > row.QueuePeak {
				row.QueuePeak = d
			}
		}
	}
	row.WireMB = wire / 1e6
	row.LogicalMB = logical / 1e6
	row.MakespanMs = makespan * 1000
	if makespan > 0 {
		row.ModelWireMBps = row.WireMB / makespan
		row.Saturation = row.ModelWireMBps / nicMBps
	}
	return row
}

// Ingest runs the saturated-ingest benchmark: `devices` pipelined sessions
// into one lane-enabled server with detection attached, then the
// deterministic model over the same trace, then the decode-loop alloc
// measurement.
func Ingest(s Scale, devices int) (*IngestResult, error) {
	if devices <= 0 {
		devices = 64
	}
	segsPerDevice, pagesPerSeg := 24, 16
	if s.PageSize < 4096 { // small scale: CI smoke size
		segsPerDevice = 8
	}
	const workers = 32
	const window = 8

	st := remote.NewStore(remote.NewMemStore())
	srv := remote.NewServer(st, PSK)
	srv.Config = remote.ServerConfig{DecodeWorkers: workers}
	engine := detect.NewEngine(detectConfig(s))
	engine.Attach(st)

	// Build every device's trace up front so the measured window is pure
	// ingest, and collect blob metadata in round-robin wire order for the
	// model (sessions interleave; round-robin is the fair approximation).
	type deviceTrace struct {
		blobs    [][]byte
		lastSeqs []uint64
		logical  []int
	}
	traces := make([]deviceTrace, devices)
	for d := range traces {
		blobs, lastSeqs, logical := ingestSegments(s, uint64(d+1), segsPerDevice, pagesPerSeg)
		traces[d] = deviceTrace{blobs: blobs, lastSeqs: lastSeqs, logical: logical}
	}
	var metas []ingestBlobMeta
	for i := 0; i < segsPerDevice; i++ {
		for d := range traces {
			metas = append(metas, ingestBlobMeta{
				device: d + 1, wire: len(traces[d].blobs[i]), logical: traces[d].logical[i]})
		}
	}

	errs := make([]error, devices)
	var wg sync.WaitGroup
	start := time.Now()
	for d := range traces {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			cl, err := remote.Loopback(srv, PSK, uint64(d+1))
			if err != nil {
				errs[d] = err
				return
			}
			defer cl.Close()
			errs[d] = cl.PushSegmentBlobs(traces[d].blobs, traces[d].lastSeqs, window)
		}(d)
	}
	wg.Wait()
	wall := time.Since(start)
	for d, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("ingest device %d: %w", d+1, err)
		}
	}

	res := &IngestResult{}
	m := &res.Measured
	m.Devices, m.SegsPerDevice = devices, segsPerDevice
	m.DecodeWorkers, m.Window = workers, window
	m.WallMs = float64(wall.Microseconds()) / 1000
	for d := 0; d < devices; d++ {
		ist := srv.IngestStats(uint64(d + 1))
		m.Segments += ist.Segments
		m.Errors += ist.Errors
		m.WireMB += float64(ist.BytesWire) / 1e6
		m.LogicalMB += float64(ist.BytesLogical) / 1e6
		m.DecodeMs += float64(ist.DecodeTime.Microseconds()) / 1000
		m.DetectMs += float64(ist.DetectTime.Microseconds()) / 1000
		if ist.DecodeQueuePeak > m.QueuePeak {
			m.QueuePeak = ist.DecodeQueuePeak
		}
	}
	m.Alerts = len(engine.Alerts())
	if secs := wall.Seconds(); secs > 0 {
		m.SegsPerSec = float64(m.Segments) / secs
		m.WireMBps = m.WireMB / secs
	}

	res.Model = ingestModel(metas, workers, IngestNICMBps, IngestLaneMBps)

	// Decode hot loop: the lane's codec step on a representative blob.
	res.DecodeAllocsPerOp, res.DecodeBytesPerOp, res.DecodeLaneMBps = measureDecode(traces[0].blobs[0])
	return res, nil
}

// RenderIngest renders the measured run, the model, and the alloc gate.
func RenderIngest(res *IngestResult) string {
	mt := metrics.NewTable("measured", "devices", "segs", "errors", "wall ms",
		"segs/s", "wire MB/s", "decode ms", "detect ms", "q peak", "alerts")
	m := res.Measured
	mt.AddRow("lane x"+fmt.Sprint(m.DecodeWorkers), m.Devices, m.Segments, m.Errors,
		m.WallMs, m.SegsPerSec, m.WireMBps, m.DecodeMs, m.DetectMs, m.QueuePeak, m.Alerts)
	md := res.Model
	vt := metrics.NewTable("model", "NIC MB/s", "lanes", "lane MB/s", "wire MB",
		"logical MB", "makespan ms", "wire MB/s", "saturation", "q peak")
	vt.AddRow("nic vs lanes", md.NICMBps, md.DecodeLanes, md.LaneMBps, md.WireMB,
		md.LogicalMB, md.MakespanMs, md.ModelWireMBps, md.Saturation, md.QueuePeak)
	out := mt.String() + vt.String()
	out += fmt.Sprintf("decode hot loop: %.0f allocs/op, %.0f B/op (want 0 steady-state); one lane measured %.0f logical MB/s wall clock, the model assumes %.0f\n",
		res.DecodeAllocsPerOp, res.DecodeBytesPerOp, res.DecodeLaneMBps, md.LaneMBps)
	out += fmt.Sprintf("model saturation %.3f of NIC line rate (gate: >= 0.9 — decode lane must not be the bottleneck)\n",
		md.Saturation)
	return out
}
