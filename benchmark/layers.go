package main

import (
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/batch"
	"repro/internal/bufpool"
	"repro/internal/entropy"
	"repro/internal/ftl"
	"repro/internal/nand"
	"repro/internal/netsim"
	"repro/internal/nvmeoe"
	"repro/internal/oplog"
	"repro/internal/remote"
	"repro/internal/simclock"
)

// The per-layer metrics of the traced run. Three kinds:
//
//   - seam: timed in place by a wrapper around an interface the program
//     already takes (rig.go);
//   - replay: the round's recorded inputs pushed through one layer's public
//     functions alone, for layers that have no seam;
//   - count: read from the public Stats() views.
//
// doc names the end-to-end metrics each one should move.
var perLayer = []metricDef{
	{"host.self_ns_per_page", "ns", "lower", wall, 0, "replay: time in host.FlatFS and the internal/attack models while set-up records their requests, the recording device's time taken out / pages they move -> setup_s (attack_recover)"},
	{"nvme.self_ns_per_cmd", "ns", "lower", wall, 0, "seam: time in MultiQueue Submit+Process+Reap minus the device calls under them / commands -> host_pages_per_s (write_offload, read_mostly)"},
	{"core.submit_ns_per_page", "ns", "lower", wall, 0, "seam: time in core.SubmitBatch, inclusive / pages submitted -> host_pages_per_s, cpu_us_per_page"},
	{"core.drain_ns_per_page", "ns", "lower", wall, 0, "seam: time in OffloadNow and CheckpointNow on the host goroutine / host pages -> host_pages_per_s"},
	{"core.self_ns_per_page", "ns", "lower", wall, 0, "core.submit minus the oplog hash, entropy, oplog append and plain-FTL replays, weighted by the round's mix -> host_pages_per_s"},
	{"core.offload_stalls_per_kpage", "count", "lower", count, 0, "count: Stats.OffloadStalls per 1000 host pages -> host_sim_us_p99"},
	{"core.offload_stall_sim_us_per_op", "us", "lower", modeled, 0, "count: Stats.OffloadStallTime / host requests -> host_sim_us_per_op"},
	{"core.pressure_events", "count", "lower", count, 0, "count: Stats.PressureEvents (synchronous drains forced by GC) -> host_sim_us_p99 (attack_recover)"},
	{"core.offload_queue_peak", "count", "lower", count, 0, "count: Stats.OffloadQueuePeak -> offload_ack_sim_us"},
	{"core.encode_queue_peak", "count", "lower", count, 0, "count: Stats.EncodeQueuePeak -> offload_ack_sim_us"},
	{"core.reopen_ms", "ms", "lower", wall, 0, "seam: wall of dial + core.Reopen per restored device -> restore_pages_per_s"},
	{"core.restore_apply_ns_per_page", "ns", "lower", wall, 0, "seam: RestoreImage wall minus the time blocked reading the restore session / pages rolled back -> restore_pages_per_s (attack_recover)"},
	{"oplog.hash_ns_per_page", "ns", "lower", wall, 0, "replay: oplog.HashData over host-written pages -> host_pages_per_s, cpu_us_per_page (write_offload)"},
	{"oplog.append_ns_per_entry", "ns", "lower", wall, 0, "replay: Log.AppendBatch of the round's entries -> host_pages_per_s (read_mostly)"},
	{"entropy.sampled_ns_per_page", "ns", "lower", wall, 0, "replay: entropy.Sampled(page, 512) over host-written pages -> host_pages_per_s (write_offload)"},
	{"oplog.verify_pages_ns_per_page", "ns", "lower", wall, 0, "replay: Segment.VerifyPages over the round's segments -> ingest_pages_per_s, cpu_us_per_page"},
	{"oplog.marshal_ns_per_page", "ns", "lower", wall, 0, "replay: Segment.AppendMarshal over the round's segments -> cpu_us_per_page"},
	{"oplog.verify_chain_ns_per_entry", "ns", "lower", wall, 0, "replay: oplog.VerifyChain over the round's entries -> forensic_entries_per_s, ingest_pages_per_s"},
	{"ftl.write_ns_per_page", "ns", "lower", wall, 0, "replay: the round's host writes on a plain FTL -> host_pages_per_s"},
	{"ftl.read_ns_per_page", "ns", "lower", wall, 0, "replay: the round's host reads on a plain FTL -> host_pages_per_s (read_mostly)"},
	{"ftl.sim_us_per_op", "us", "lower", modeled, 0, "replay: mean modeled latency of the same requests on a plain FTL, the base of the paper's overhead ratio -> host_sim_us_per_op"},
	{"ftl.gc_migrations_per_kwrite", "count", "lower", count, 0, "count: (GCMigrates + PinMigrates) per 1000 host page writes -> waf, host_sim_us_p99"},
	{"nand.program_ns_per_page", "ns", "lower", wall, 0, "replay: nand.Device.Program of sampled pages on a fresh array -> host_pages_per_s"},
	{"nand.read_ns_per_page", "ns", "lower", wall, 0, "replay: nand.Device.Read of the same -> host_pages_per_s (read_mostly)"},
	{"nand.erases_per_kwrite", "count", "lower", count, 0, "count: erases per 1000 host page writes -> waf, host_sim_us_p99"},
	{"nand.background_reads_per_offload_page", "ratio", "lower", count, 0, "count: NAND reads not owed to host reads or GC / offloaded pages (1 = each page sealed once) -> offload_ack_sim_us"},
	{"nvmeoe.encode_ns_per_page", "ns", "lower", wall, 0, "replay: AppendSegmentBlob over the round's marshals -> cpu_us_per_page, host_pages_per_s (write_offload)"},
	{"nvmeoe.decode_ns_per_page", "ns", "lower", wall, 0, "replay: AppendDecodeSegmentBlob over the round's blobs -> ingest_pages_per_s"},
	{"nvmeoe.frame_ns_per_kb", "ns", "lower", wall, 0, "replay: Conn.WriteMsg + ReadMsg of the round's blobs over a memory loop -> ingest_pages_per_s, cpu_us_per_page"},
	{"nvmeoe.conn_write_ns_per_kb", "ns", "lower", wall, 0, "seam: time devices spend in conn.Write / KiB written (offload + ingest sessions) -> ingest_pages_per_s"},
	{"nvmeoe.codec_ratio", "B/B", "lower", count, 0, "count: blob bytes / marshal bytes over the round's segments -> wire_bytes_per_user_byte"},
	{"nvmeoe.stored_share", "ratio", "lower", count, 0, "count: share of segment blobs that took the stored codec -> cpu_us_per_page"},
	{"nvmeoe.wire_bytes_per_page", "B", "lower", count, 0, "seam: bytes devices wrote on offload sessions in phase A / host pages -> wire_bytes_per_user_byte, offload_ack_sim_us"},
	{"nvmeoe.frames_per_segment", "count", "lower", count, 0, "seam: frames devices wrote on offload sessions in phase A / segments acked -> offload_ack_sim_us"},
	{"nvmeoe.refchunk_ns_per_page", "ns", "lower", wall, 0, "replay: AppendRefChunk + WalkRefChunk over the round's pages -> restore_pages_per_s"},
	{"netsim.offload_wait_sim_us_p99", "us", "lower", modeled, 0, "count: offload-class grant wait p99 on the shared arbiter -> offload_ack_sim_us (ingest_fanin)"},
	{"netsim.restore_wait_sim_us_p99", "us", "lower", modeled, 0, "count: restore-class grant wait p99 -> restore_rto_sim_ms"},
	{"netsim.grant_ns", "ns", "lower", wall, 0, "replay: wall cost of one Flow.Grant on a fresh arbiter -> host_pages_per_s (ingest_fanin)"},
	{"remote.append_ns_per_page", "ns", "lower", wall, 0, "replay: Store.AppendSegmentBlob into a fresh store with no subscriber -> ingest_pages_per_s"},
	{"remote.put_ns_per_segment", "ns", "lower", wall, 0, "seam: ObjectStore.Put (phases A and B) -> ingest_pages_per_s"},
	{"remote.tier_bytes_per_user_byte", "B/B", "lower", count, 0, "seam: bytes Put into the storage tier in phase A / host bytes written -> wire_bytes_per_user_byte"},
	{"remote.dedup_hit_rate", "ratio", "higher", count, 0, "count: Store.Dedup().HitRate() -> live_heap_mb, restore_wire_bytes_per_page (ingest_fanin)"},
	{"remote.decode_queue_peak", "count", "lower", wall, 0, "count: Server.QueuePeak(); depends on goroutine scheduling -> ingest_pages_per_s"},
	{"remote.image_range_ns_per_page", "ns", "lower", wall, 0, "replay: Store.ImageRange in restore-sized chunks over the replayed store -> restore_pages_per_s"},
	{"remote.fetch_entries_ns_per_entry", "ns", "lower", wall, 0, "replay: Client.FetchEntries in 4096-entry batches over a loopback session -> forensic_entries_per_s, restore_pages_per_s"},
	{"remote.restore_serve_ns_per_page", "ns", "lower", wall, 0, "seam: time the restoring device is blocked reading its restore session / pages rolled back -> restore_pages_per_s"},
	{"remote.redials", "count", "lower", count, 0, "count: Stats.Redials; 0 unless a session died -> host_sim_us_p99"},
	{"detect.observe_ns_per_entry", "ns", "lower", wall, 0, "seam: the Store.Subscribe closure around Engine.Observe (phases A and B) -> ingest_pages_per_s (read_mostly)"},
	{"detect.alerts_true", "count", "higher", count, 0, "count: alerts at or after the cut on attacked devices -> detect_lag_entries"},
	{"detect.alerts_false", "count", "lower", count, 0, "count: alerts before the cut or on devices not attacked"},
	{"forensic.timeline_ns_per_entry", "ns", "lower", wall, 0, "seam: Timeline + VerifyChain wall / entries -> forensic_entries_per_s"},
	{"forensic.window_ns", "ns", "lower", wall, 0, "seam: AttackWindow wall per analysed device -> forensic_entries_per_s"},
	{"recovery.restore_window_ns_per_page", "ns", "lower", wall, 0, "seam: recovery.Engine.RestoreImage wall / pages rolled back -> restore_pages_per_s"},
	{"bufpool.sha256_ns_per_page", "ns", "lower", wall, 0, "replay: bufpool.Hasher.Sum256 over host-written pages -> cpu_us_per_page"},
	{"bufpool.deflate_ns_per_kb", "ns", "lower", wall, 0, "replay: Deflater.Append over the round's marshals -> cpu_us_per_page, host_pages_per_s (write_offload)"},
	{"bufpool.inflate_ns_per_kb", "ns", "lower", wall, 0, "replay: Inflater.Append over the deflated marshals -> ingest_pages_per_s"},
	{"bufpool.outstanding_delta", "count", "lower", count, 0, "count: pooled buffers outstanding after the round, net of NAND residency; must be 0"},
	{"runtime.mutex_wait_us_per_kpage", "us", "lower", wall, 0, "count: time goroutines spent blocked on sync.Mutex, sync.RWMutex and runtime locks over phases A-D (runtime/metrics) per 1000 host pages -> host_pages_per_s, ingest_pages_per_s (ingest_fanin; near 0 on one P)"},
	{"budget.host_sum_share", "ratio", "higher", wall, 0, "(nvme.self + core.submit + core.drain) / wall the host goroutines spent in phase A; within 5 % of 1"},
	{"budget.unattributed_cpu_share", "ratio", "lower", wall, 0, "1 - (sum of the replayed layers' cost per host page over phases A-D) / cpu_us_per_page of this traced run: what the replays do not explain"},
	{"budget.trace_overhead_share", "ratio", "lower", wall, 0, "1 - traced host_pages_per_s / the same run's untraced rounds"},
}

// layerInputs is what the replays need from a round: the host-side inputs
// (kept alive past phase A in a traced run) and the segments the server
// stored, decoded once while phase B is prepared.
type layerInputs struct {
	inputs []*deviceInputs
	blobs  [][]byte
	raws   [][]byte
	segs   []*oplog.Segment
}

func (lt *layerInputs) addSegment(blob, raw []byte, seg *oplog.Segment) {
	lt.blobs = append(lt.blobs, blob)
	lt.raws = append(lt.raws, raw)
	lt.segs = append(lt.segs, seg)
}

// layerTimes carries the in-place timings runRound took itself.
type layerTimes struct {
	timelineNs, windowNs, reopenNs, restoreNs int64
	restoreReadNs                             int64 // restore sessions, blocked in Read
	poolDrift                                 int64
	driverWallNs                              int64 // summed over phase A's host goroutines
	accA                                      accSnapshot
}

// accSnapshot is the seam sums at the end of phase A.
type accSnapshot struct {
	devPages, devNanos          int64
	putBytes                    int64
	offloadWrites, offloadBytes int64
}

func (s *seams) snapshot() accSnapshot {
	a := &s.acc
	return accSnapshot{
		devPages: a.devPages.Load(), devNanos: a.devNanos.Load(), putBytes: a.putBytes.Load(),
		offloadWrites: a.conn[roleOffload].writes.Load(), offloadBytes: a.conn[roleOffload].writeBytes.Load(),
	}
}

// The replays run over samples, so that a traced round costs about a third
// more than an untraced one and not twice as much.
const (
	samplePages    = 2048 // host-written pages, for the per-page replays
	sampleSegments = 16   // page-bearing segments, evenly spaced, for the codec replays
	storeSegments  = 48   // segments per device, from genesis, for the store replays
)

// hostWrittenPages returns up to samplePages of the pages the host wrote in
// phase A, in submission order.
func (lt *layerInputs) hostWrittenPages() [][]byte {
	var out [][]byte
	add := func(data []byte) bool {
		for off := 0; off+pageSize <= len(data); off += pageSize {
			if len(out) == samplePages {
				return false
			}
			out = append(out, data[off:off+pageSize])
		}
		return true
	}
	for _, in := range lt.inputs {
		for i := range in.trace {
			if !add(in.trace[i].cmd.Data) {
				return out
			}
		}
		for _, batches := range [][]hostBatch{in.cover, in.attack} {
			for _, b := range batches {
				for _, op := range b.ops {
					if op.Kind == batch.OpWrite && !add(op.Data) {
						return out
					}
				}
			}
		}
	}
	return out
}

func perUnit(ns int64, n int) float64 { return ratio(float64(ns), float64(n)) }

// replaySink takes a byte of every replayed result, so the compiler keeps
// the calls.
var replaySink byte

// timeIt runs fn and returns its wall time in ns.
func timeIt(fn func()) int64 {
	t0 := time.Now()
	fn()
	return int64(time.Since(t0))
}

// layerMetrics computes every per-layer metric of one traced round.
func layerMetrics(sp *spec, s *seams, r *rig, res *roundResult, lt *layerInputs, t layerTimes) (map[string]float64, error) {
	m := map[string]float64{}
	hostPages := float64(res.hostPages)

	// Host goroutine spans.
	var cmd, drain layerTime
	var fileHostNs, filePages int64
	for _, d := range r.devs {
		for name, dst := range map[string]*layerTime{"nvme.cmd": &cmd, "core.drain": &drain} {
			l := d.ht.layer(name)
			dst.calls += l.calls
			dst.incl += l.incl
			dst.selfT += l.selfT
		}
		fileHostNs += d.in.fileHostNs
		filePages += int64(d.in.filePages)
	}
	m["host.self_ns_per_page"] = ratio(float64(fileHostNs), float64(filePages))
	m["nvme.self_ns_per_cmd"] = ratio(float64(cmd.selfT), float64(cmd.calls))
	m["core.submit_ns_per_page"] = ratio(float64(t.accA.devNanos), float64(t.accA.devPages))
	m["core.drain_ns_per_page"] = ratio(float64(drain.incl), hostPages)
	m["budget.host_sum_share"] = ratio(float64(cmd.selfT+t.accA.devNanos+drain.incl), float64(t.driverWallNs))

	// Counters from the public Stats() views, over phase A.
	var stalls, pressure, offPages, redials, gcMoves, erases, nandReads, hostReadPages uint64
	var stallTime simclock.Duration
	qPeak, encPeak := 0, 0
	for _, d := range r.devs {
		stalls += d.statsA.OffloadStalls - d.statsBase.OffloadStalls
		stallTime += d.statsA.OffloadStallTime - d.statsBase.OffloadStallTime
		pressure += d.statsA.PressureEvents - d.statsBase.PressureEvents
		offPages += d.statsA.OffloadPages - d.statsBase.OffloadPages
		redials += d.statsA.Redials
		qPeak = max(qPeak, d.statsA.OffloadQueuePeak)
		encPeak = max(encPeak, d.statsA.EncodeQueuePeak)
		gcMoves += (d.ftlA.GCMigrates + d.ftlA.PinMigrates) - (d.ftlBase.GCMigrates + d.ftlBase.PinMigrates)
		erases += d.nandA.Erases - d.nandBase.Erases
		nandReads += d.nandA.Reads - d.nandBase.Reads
		hostReadPages += uint64(d.in.readPages)
	}
	m["core.offload_stalls_per_kpage"] = ratio(float64(stalls)*1000, hostPages)
	m["core.offload_stall_sim_us_per_op"] = ratio(float64(stallTime)/1e3, float64(res.hostReqs))
	m["core.pressure_events"] = float64(pressure)
	m["core.offload_queue_peak"] = float64(qPeak)
	m["core.encode_queue_peak"] = float64(encPeak)
	m["remote.redials"] = float64(redials)
	m["ftl.gc_migrations_per_kwrite"] = ratio(float64(gcMoves)*1000, float64(res.hostWrites))
	m["nand.erases_per_kwrite"] = ratio(float64(erases)*1000, float64(res.hostWrites))
	m["nand.background_reads_per_offload_page"] = ratio(float64(nandReads)-float64(hostReadPages)-float64(gcMoves), float64(offPages))
	m["remote.dedup_hit_rate"] = r.store.Dedup().HitRate()
	m["remote.decode_queue_peak"] = float64(r.srv.QueuePeak())
	m["netsim.offload_wait_sim_us_p99"] = r.nic.ClassStats(netsim.ClassOffload).WaitP99Ms * 1e3
	m["netsim.restore_wait_sim_us_p99"] = r.nic.ClassStats(netsim.ClassRestore).WaitP99Ms * 1e3
	m["detect.alerts_true"] = float64(res.attacks - res.missed)
	m["detect.alerts_false"] = float64(res.falseAlerts)
	m["bufpool.outstanding_delta"] = float64(t.poolDrift)
	m["runtime.mutex_wait_us_per_kpage"] = ratio(res.mutexWait*1e9, hostPages)

	// Seam sums over the whole round.
	a := &s.acc
	m["remote.put_ns_per_segment"] = ratio(float64(a.putNanos.Load()), float64(a.putCalls.Load()))
	m["remote.tier_bytes_per_user_byte"] = ratio(float64(t.accA.putBytes), float64(res.userBytes))
	m["detect.observe_ns_per_entry"] = ratio(float64(a.obsNanos.Load()), float64(a.obsEntries.Load()))
	devWriteNs := a.conn[roleOffload].writeNanos.Load() + a.conn[roleIngest].writeNanos.Load()
	devWriteBytes := a.conn[roleOffload].writeBytes.Load() + a.conn[roleIngest].writeBytes.Load()
	m["nvmeoe.conn_write_ns_per_kb"] = ratio(float64(devWriteNs), float64(devWriteBytes)/1024)
	m["nvmeoe.wire_bytes_per_page"] = ratio(float64(t.accA.offloadBytes), hostPages)
	// A frame is three writes: header, ciphertext, tag.
	m["nvmeoe.frames_per_segment"] = ratio(float64(t.accA.offloadWrites)/3, float64(res.ackSegments))
	m["forensic.timeline_ns_per_entry"] = ratio(float64(t.timelineNs), float64(res.entries))
	m["forensic.window_ns"] = ratio(float64(t.windowNs), float64(res.analysed))
	m["core.reopen_ms"] = ratio(float64(t.reopenNs)/1e6, float64(res.attacks))
	m["recovery.restore_window_ns_per_page"] = ratio(float64(t.restoreNs), float64(res.rolledBack))
	m["remote.restore_serve_ns_per_page"] = ratio(float64(t.restoreReadNs), float64(res.rolledBack))
	m["core.restore_apply_ns_per_page"] = ratio(float64(t.restoreNs-t.restoreReadNs), float64(res.rolledBack))

	if err := pageReplays(sp, lt.hostWrittenPages(), m); err != nil {
		return nil, err
	}
	seg, err := segmentReplays(lt, m)
	if err != nil {
		return nil, err
	}

	// The plain FTL under the same host requests.
	plain, err := replayPlainFTL(sp, lt.inputs)
	if err != nil {
		return nil, err
	}
	m["ftl.write_ns_per_page"] = ratio(float64(plain.writeNs), float64(plain.writePages))
	m["ftl.read_ns_per_page"] = ratio(float64(plain.readNs), float64(plain.readPages))
	m["ftl.sim_us_per_op"] = ratio(float64(plain.latSum)/1e3, float64(plain.requests))
	res.plainUtil = plain.utilisation

	// What core.SubmitBatch costs beyond the layers it calls, per page.
	writeShare := ratio(float64(res.hostWrites), hostPages)
	readShare := ratio(float64(hostReadPages), hostPages)
	below := writeShare*(m["oplog.hash_ns_per_page"]+m["entropy.sampled_ns_per_page"]+m["ftl.write_ns_per_page"]) +
		readShare*m["ftl.read_ns_per_page"] + m["oplog.append_ns_per_entry"]
	m["core.self_ns_per_page"] = m["core.submit_ns_per_page"] - below

	// The CPU budget: what the replayed layers alone say one host page costs
	// over phases A to D, against what the process was charged. Only replay
	// metrics enter (they are pure CPU; the seam timings include waits), each
	// scaled by how often a host page reaches that layer.
	entriesPerPage := ratio(float64(seg.entries), hostPages)
	offShare := ratio(float64(offPages), hostPages)
	kbPerOffPage := ratio(float64(seg.blobBytes)/1024, float64(seg.pages))
	ingest := offShare*(kbPerOffPage*m["nvmeoe.frame_ns_per_kb"]+m["nvmeoe.decode_ns_per_page"]+
		m["oplog.verify_pages_ns_per_page"]+m["remote.append_ns_per_page"]) +
		entriesPerPage*m["oplog.verify_chain_ns_per_entry"]
	attributed := below + // phase A, host path
		offShare*(m["bufpool.sha256_ns_per_page"]+m["oplog.marshal_ns_per_page"]+m["nvmeoe.encode_ns_per_page"]) + // seal, encode
		2*ingest + // the server's half of the lane, in phase A and again in phase B
		entriesPerPage*((forensicPasses+1)*m["remote.fetch_entries_ns_per_entry"]+2*forensicPasses*m["oplog.verify_chain_ns_per_entry"]) + // per pass Timeline and two chain checks; Reopen
		ratio(float64(res.rolledBack), hostPages)*(m["remote.image_range_ns_per_page"]+m["nvmeoe.refchunk_ns_per_page"]+m["bufpool.sha256_ns_per_page"])
	m["budget.unattributed_cpu_share"] = 1 - ratio(attributed, ratio(float64(res.cpuNs), hostPages))
	return m, nil
}

// pageReplays times the per-page layers over host-written pages.
func pageReplays(sp *spec, pages [][]byte, m map[string]float64) error {
	m["oplog.hash_ns_per_page"] = perUnit(timeIt(func() {
		for _, p := range pages {
			h := oplog.HashData(p)
			replaySink ^= h[0]
		}
	}), len(pages))
	m["entropy.sampled_ns_per_page"] = perUnit(timeIt(func() {
		for _, p := range pages {
			replaySink ^= byte(entropy.Sampled(p, 512))
		}
	}), len(pages))
	hasher := bufpool.GetHasher()
	m["bufpool.sha256_ns_per_page"] = perUnit(timeIt(func() {
		for _, p := range pages {
			h := hasher.Sum256(p)
			replaySink ^= h[0]
		}
	}), len(pages))
	hasher.Release()
	var err error
	m["nand.program_ns_per_page"], m["nand.read_ns_per_page"], err = replayNAND(sp, pages)
	return err
}

// segTotals are the counts over all of a round's segments.
type segTotals struct {
	pages, entries, blobBytes int
}

// segmentReplays counts over all of the round's segments and times the
// codec, frame, chain and store layers over samples of them.
func segmentReplays(all *layerInputs, m map[string]float64) (segTotals, error) {
	var tot segTotals
	allRaw, stored := 0, 0
	var recs []oplog.Rec
	entriesByDev := map[uint64][]oplog.Entry{}
	var paged []int
	for i, seg := range all.segs {
		tot.pages += len(seg.Pages)
		tot.entries += len(seg.Entries)
		allRaw += len(all.raws[i])
		tot.blobBytes += len(all.blobs[i])
		if nvmeoe.Codec(all.blobs[i][4]) == nvmeoe.CodecStored {
			stored++
		}
		if len(seg.Pages) > 0 {
			paged = append(paged, i)
		}
		entriesByDev[seg.DeviceID] = append(entriesByDev[seg.DeviceID], seg.Entries...)
		for _, e := range seg.Entries {
			recs = append(recs, oplog.Rec{Kind: e.Kind, At: e.At, LPN: e.LPN, OldPPN: e.OldPPN, NewPPN: e.NewPPN, Entropy: e.Entropy, DataHash: e.DataHash})
		}
	}
	m["nvmeoe.codec_ratio"] = ratio(float64(tot.blobBytes), float64(allRaw))
	m["nvmeoe.stored_share"] = ratio(float64(stored), float64(len(all.segs)))
	lt := &layerInputs{} // the sample
	nPages, rawBytes := 0, 0
	for k := 0; k < min(sampleSegments, len(paged)); k++ {
		i := paged[k*len(paged)/min(sampleSegments, len(paged))]
		lt.addSegment(all.blobs[i], all.raws[i], all.segs[i])
		nPages += len(all.segs[i].Pages)
		rawBytes += len(all.raws[i])
	}
	m["oplog.append_ns_per_entry"] = perUnit(timeIt(func() {
		log := oplog.New()
		for off := 0; off < len(recs); off += 2 {
			log.AppendBatch(recs[off:min(off+2, len(recs))])
		}
	}), len(recs))
	var chainErr error
	m["oplog.verify_chain_ns_per_entry"] = perUnit(timeIt(func() {
		for _, entries := range entriesByDev {
			if err := oplog.VerifyChain(entries, [oplog.HashSize]byte{}); err != nil {
				chainErr = err
			}
		}
	}), tot.entries)
	if chainErr != nil {
		return tot, fmt.Errorf("replay chain: %w", chainErr)
	}
	m["oplog.verify_pages_ns_per_page"] = perUnit(timeIt(func() {
		for _, seg := range lt.segs {
			if err := seg.VerifyPages(); err != nil {
				chainErr = err
			}
		}
	}), nPages)
	if chainErr != nil {
		return tot, fmt.Errorf("replay verify pages: %w", chainErr)
	}
	var err error
	buf := make([]byte, 0, 1<<20)
	m["oplog.marshal_ns_per_page"] = perUnit(timeIt(func() {
		for _, seg := range lt.segs {
			buf = seg.AppendMarshal(buf[:0])
		}
	}), nPages)
	m["nvmeoe.encode_ns_per_page"] = perUnit(timeIt(func() {
		for _, raw := range lt.raws {
			buf = nvmeoe.AppendSegmentBlob(buf[:0], raw)
		}
	}), nPages)
	m["nvmeoe.decode_ns_per_page"] = perUnit(timeIt(func() {
		for _, blob := range lt.blobs {
			if buf, err = nvmeoe.AppendDecodeSegmentBlob(buf[:0], blob); err != nil {
				return
			}
		}
	}), nPages)
	if err != nil {
		return tot, fmt.Errorf("replay decode: %w", err)
	}
	deflated := make([][]byte, len(lt.raws))
	df := bufpool.GetDeflater()
	m["bufpool.deflate_ns_per_kb"] = ratio(float64(timeIt(func() {
		for i, raw := range lt.raws {
			if deflated[i], err = df.Append(make([]byte, 0, len(raw)/2), raw); err != nil {
				return
			}
		}
	})), float64(rawBytes)/1024)
	df.Release()
	if err != nil {
		return tot, fmt.Errorf("replay deflate: %w", err)
	}
	inf := bufpool.GetInflater()
	m["bufpool.inflate_ns_per_kb"] = ratio(float64(timeIt(func() {
		for _, d := range deflated {
			if buf, err = inf.Append(buf[:0], d); err != nil {
				return
			}
		}
	})), float64(rawBytes)/1024)
	inf.Release()
	if err != nil {
		return tot, fmt.Errorf("replay inflate: %w", err)
	}
	if m["nvmeoe.frame_ns_per_kb"], err = replayFrames(lt.blobs); err != nil {
		return tot, err
	}
	m["nvmeoe.refchunk_ns_per_page"] = replayRefChunks(lt.segs, nPages)
	arb := netsim.New(netsim.Config{})
	flow := arb.Open(netsim.ClassOffload, 1)
	const grants = 20000
	m["netsim.grant_ns"] = perUnit(timeIt(func() {
		var at simclock.Time
		for i := 0; i < grants; i++ {
			at = flow.Grant(300<<10, at)
		}
	}), grants)
	flow.Close()
	return tot, replayStore(all, m)
}

// replayNAND programs the sampled pages into a fresh array, block after
// block, and reads them back.
func replayNAND(sp *spec, pages [][]byte) (programNs, readNs float64, err error) {
	dev := nand.New(sp.ftlConfig().NAND)
	perBlock := uint64(dev.Geometry().PagesPerBlock)
	ppn := func(i int) uint64 { return uint64(i)/perBlock*perBlock + uint64(i)%perBlock }
	var at simclock.Time
	p := timeIt(func() {
		for i, data := range pages {
			if at, err = dev.Program(ppn(i), data, nand.OOB{LPN: uint64(i)}, at); err != nil {
				return
			}
		}
	})
	if err != nil {
		return 0, 0, fmt.Errorf("replay nand program: %w", err)
	}
	rd := timeIt(func() {
		for i := range pages {
			if _, _, at, err = dev.Read(ppn(i), at); err != nil {
				return
			}
		}
	})
	if err != nil {
		return 0, 0, fmt.Errorf("replay nand read: %w", err)
	}
	return perUnit(p, len(pages)), perUnit(rd, len(pages)), nil
}

// loopConn is a net.Conn whose two ends can be re-pointed at one in-memory
// buffer after the handshake, so that a frame written is read back on the
// same goroutine: the frame layer alone, no pipe hand-off, no scheduler.
type loopConn struct {
	net.Conn
	loop *[]byte // nil: still the pipe
}

func (c *loopConn) Write(p []byte) (int, error) {
	if c.loop == nil {
		return c.Conn.Write(p)
	}
	*c.loop = append(*c.loop, p...)
	return len(p), nil
}

func (c *loopConn) Read(p []byte) (int, error) {
	if c.loop == nil {
		return c.Conn.Read(p)
	}
	if len(*c.loop) == 0 {
		return 0, io.EOF
	}
	n := copy(p, *c.loop)
	*c.loop = (*c.loop)[n:]
	return n, nil
}

// replayFrames seals and opens every blob through an authenticated session
// pair, returning ns per KiB of blob.
func replayFrames(blobs [][]byte) (float64, error) {
	dc, sc := net.Pipe()
	defer dc.Close()
	defer sc.Close()
	devEnd, srvEnd := &loopConn{Conn: dc}, &loopConn{Conn: sc}
	var srvConn *nvmeoe.Conn
	var srvErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		srvConn, _, srvErr = nvmeoe.ServerHandshake(srvEnd, func(uint64) ([]byte, bool) { return psk, true })
	}()
	devConn, err := nvmeoe.DeviceHandshake(devEnd, psk, 1)
	wg.Wait()
	if err != nil || srvErr != nil {
		return 0, fmt.Errorf("replay frames handshake: %v / %v", err, srvErr)
	}
	wire := make([]byte, 0, 1<<20)
	devEnd.loop, srvEnd.loop = &wire, &wire
	total := 0
	ns := timeIt(func() {
		for _, blob := range blobs {
			wire = wire[:0]
			if err = devConn.WriteMsg(nvmeoe.MsgSegment, blob); err != nil {
				return
			}
			if _, _, err = srvConn.ReadMsg(); err != nil {
				return
			}
			total += len(blob)
		}
	})
	if err != nil {
		return 0, fmt.Errorf("replay frames: %w", err)
	}
	return ratio(float64(ns), float64(total)/1024), nil
}

// replayRefChunks encodes and walks the round's pages as restore-sized
// hash-reference chunks of literals.
func replayRefChunks(segs []*oplog.Segment, nPages int) float64 {
	chunk := int(nvmeoe.ChunkPagesForQuantum(pageSize))
	refs := make([]nvmeoe.RefPage, 0, chunk)
	buf := make([]byte, 0, chunk*(pageSize+64))
	var walked int
	flush := func() {
		buf = nvmeoe.AppendRefChunk(buf[:0], 1, refs)
		nvmeoe.WalkRefChunk(buf, func(p nvmeoe.RefPage) error { walked += len(p.Data); return nil })
		refs = refs[:0]
	}
	ns := timeIt(func() {
		for _, seg := range segs {
			for i := range seg.Pages {
				p := &seg.Pages[i]
				refs = append(refs, nvmeoe.RefPage{LPN: p.LPN, WriteSeq: p.WriteSeq, StaleSeq: p.StaleSeq, Cause: p.Cause, Hash: p.Hash, Data: p.Data})
				if len(refs) == chunk {
					flush()
				}
			}
		}
		if len(refs) > 0 {
			flush()
		}
	})
	return perUnit(ns, nPages)
}

// replayStore ingests each device's first storeSegments segments into a
// fresh store with no subscriber, then reads them back the way a restore and
// an analysis do.
func replayStore(lt *layerInputs, m map[string]float64) error {
	store := remote.NewStore(remote.NewMemStore())
	taken := map[uint64]int{}
	var segs []*oplog.Segment
	var blobs [][]byte
	nPages, nEntries := 0, 0
	for i, seg := range lt.segs {
		if taken[seg.DeviceID] == storeSegments {
			continue
		}
		taken[seg.DeviceID]++
		segs, blobs = append(segs, seg), append(blobs, lt.blobs[i])
		nPages += len(seg.Pages)
		nEntries += len(seg.Entries)
	}
	var err error
	m["remote.append_ns_per_page"] = perUnit(timeIt(func() {
		for i, seg := range segs {
			if err = store.AppendSegmentBlob(seg, blobs[i]); err != nil {
				return
			}
		}
	}), nPages)
	if err != nil {
		return fmt.Errorf("replay store append: %w", err)
	}
	chunk := int(nvmeoe.ChunkPagesForQuantum(pageSize))
	served := 0
	m["remote.image_range_ns_per_page"] = ratio(float64(timeIt(func() {
		for _, id := range store.Devices() {
			for from := uint64(0); ; {
				pages, next, more := store.ImageRange(id, from, ^uint64(0), ^uint64(0), chunk, nil)
				served += len(pages)
				if !more || len(pages) == 0 {
					break
				}
				from = next
			}
		}
	})), float64(served))

	srv := remote.NewServer(store, psk)
	defer srv.Close()
	fetched := 0
	var ns int64
	for _, id := range store.Devices() {
		client, err := remote.Loopback(srv, psk, id)
		if err != nil {
			return fmt.Errorf("replay fetch dial: %w", err)
		}
		head := store.Head(id).NextSeq
		ns += timeIt(func() {
			for from := uint64(0); from < head; from += 4096 {
				var got []oplog.Entry
				if got, err = client.FetchEntries(from, min(from+4096, head)); err != nil {
					return
				}
				fetched += len(got)
			}
		})
		client.Close()
		if err != nil {
			return fmt.Errorf("replay fetch entries: %w", err)
		}
	}
	if fetched != nEntries {
		return fmt.Errorf("replay fetch entries: got %d of %d", fetched, nEntries)
	}
	m["remote.fetch_entries_ns_per_entry"] = perUnit(ns, fetched)
	return nil
}

// plainResult is the plain-FTL replay of a round's host requests.
type plainResult struct {
	writeNs, readNs       int64
	writePages, readPages int64
	latSum                int64 // modeled ns over requests
	requests              int64
	utilisation           float64
}

// timedFTL times calls into a bare FTL by request kind. Every batch the
// host stack builds is of one kind.
type timedFTL struct {
	*ftl.FTL
	res *plainResult
	on  bool
}

func (t *timedFTL) SubmitBatch(ops []batch.Op, at simclock.Time) ([]batch.Result, simclock.Time, error) {
	if !t.on || len(ops) == 0 {
		return t.FTL.SubmitBatch(ops, at)
	}
	t0 := time.Now()
	res, done, err := t.FTL.SubmitBatch(ops, at)
	ns := int64(time.Since(t0))
	switch ops[0].Kind {
	case batch.OpWrite:
		t.res.writeNs += ns
		t.res.writePages += int64(len(ops))
	case batch.OpRead:
		t.res.readNs += ns
		t.res.readPages += int64(len(ops))
	}
	return res, done, err
}

// replayPlainFTL runs every device's set-up and phase-A host requests, at
// the same due times, against an FTL with no retainer: what the same flash
// costs without RSSD on top. Its modeled latency is the base of the paper's
// overhead ratio, and its busy share of the arrival span is the utilisation
// the arrival gaps were set for.
func replayPlainFTL(sp *spec, inputs []*deviceInputs) (*plainResult, error) {
	res := &plainResult{}
	var busy, span simclock.Duration
	for _, in := range inputs {
		f := &timedFTL{FTL: ftl.New(sp.ftlConfig(), nil), res: res}
		var at simclock.Time
		for off := 0; off < len(in.precond); off += 64 {
			_, done, err := f.SubmitBatch(in.precond[off:min(off+64, len(in.precond))], at)
			if err != nil {
				return nil, fmt.Errorf("plain ftl precondition: %w", err)
			}
			at = done
		}
		clock := simclock.NewClock()
		clock.AdvanceTo(at)
		var lat []int64
		replay := func(batches []hostBatch) error {
			for i := range batches {
				due := clock.Advance(batches[i].wait)
				_, done, err := f.SubmitBatch(batches[i].ops, due)
				if err != nil {
					return err
				}
				lat = append(lat, int64(simclock.Max(done, due).Sub(due)))
				clock.AdvanceTo(done)
			}
			return nil
		}
		if err := replay(in.corpus); err != nil {
			return nil, fmt.Errorf("plain ftl corpus: %w", err)
		}
		lat = lat[:0]
		f.on = true
		start, startStats := clock.Now(), f.Device().Stats()
		for i := range in.trace {
			rec := &in.trace[i]
			due := start + rec.at
			_, done, err := f.SubmitBatch(rec.ops, due)
			if err != nil {
				return nil, fmt.Errorf("plain ftl record %d: %w", i, err)
			}
			lat = append(lat, int64(simclock.Max(done, due).Sub(due)))
			clock.AdvanceTo(done)
		}
		if len(in.trace) > 0 {
			st := f.Device().Stats()
			tm := sp.ftlConfig().NAND.Timing
			busy += simclock.Duration(st.Programs-startStats.Programs)*(tm.ProgramLatency+tm.Transfer) +
				simclock.Duration(st.Erases-startStats.Erases)*tm.EraseLatency
			span += clock.Now().Sub(start)
		}
		for _, batches := range [][]hostBatch{in.cover, in.attack} {
			if err := replay(batches); err != nil {
				return nil, fmt.Errorf("plain ftl file traffic: %w", err)
			}
		}
		for _, l := range lat {
			res.latSum += l
		}
		res.requests += int64(len(lat))
	}
	res.utilisation = ratio(float64(busy), float64(span))
	return res, nil
}

// printBudget prints the traced run's budget: the host-goroutine sum check,
// the CPU share the layers do not explain, what tracing cost, and the
// paper's overhead ratio with its base.
func printBudget(w io.Writer, sp *spec, rounds []*roundResult, untraced float64) {
	get := func(name string) float64 {
		var v []float64
		for _, r := range rounds {
			v = append(v, r.layers[name])
		}
		return median(v)
	}
	var sim, util []float64
	for _, r := range rounds {
		var sum int64
		for _, l := range r.lat {
			sum += l
		}
		sim = append(sim, ratio(float64(sum)/1e3, float64(len(r.lat))))
		util = append(util, r.plainUtil)
	}
	fmt.Fprintf(w, "budget %s:\n", sp.name)
	fmt.Fprintf(w, "  host goroutine: nvme.self + core.submit + core.drain = %.3f of its phase-A wall (must be within 0.05 of 1)\n", get("budget.host_sum_share"))
	fmt.Fprintf(w, "  cpu: %.3f of cpu_us_per_page is not explained by the layer costs\n", get("budget.unattributed_cpu_share"))
	fmt.Fprintf(w, "  tracing: host_pages_per_s is %.3f lower than in this run's untraced rounds (%.0f/s)\n", get("budget.trace_overhead_share"), untraced)
	fmt.Fprintf(w, "  overhead ratio: host_sim_us_per_op %.2f / ftl.sim_us_per_op %.2f = %.4f (base: plain FTL, same requests, same due times)\n",
		median(sim), get("ftl.sim_us_per_op"), ratio(median(sim), get("ftl.sim_us_per_op")))
	if u := median(util); u > 0 {
		fmt.Fprintf(w, "  plain-FTL utilisation of the open block's chip at gap %d us: %.2f\n", sp.gapUs, u)
	}
}
