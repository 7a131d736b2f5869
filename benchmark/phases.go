package main

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"repro/internal/batch"
	"repro/internal/bufpool"
	"repro/internal/core"
	"repro/internal/forensic"
	"repro/internal/nvme"
	"repro/internal/nvmeoe"
	"repro/internal/oplog"
	"repro/internal/recovery"
	"repro/internal/remote"
	"repro/internal/simclock"
)

// roundResult is what one round measured. Rates are derived from it in
// report.go; nothing here is divided yet, so a reader can check every
// metric against its counts.
type roundResult struct {
	setup                      time.Duration
	wallA, wallB, wallC, wallD time.Duration
	cpuNs                      int64   // user+sys over phases A-D
	mallocs                    uint64  // over phases A-D
	mutexWait                  float64 // seconds goroutines spent blocked on locks, over phases A-D
	liveHeap                   uint64  // bytes, after phase A

	hostPages   int64
	hostReqs    int64
	ingestPages int64
	entries     int64 // timeline entries analysed
	rolledBack  int64 // pages restored + zeroed

	lat []int64 // modeled latency per host request, ns, all devices

	ackTime      simclock.Duration
	ackSegments  uint64
	rto          simclock.Duration
	wireBytes    uint64
	userBytes    int64
	restoreWire  uint64
	programs     uint64
	hostWrites   uint64
	detectLag    int64
	analysed     int // devices phase C analysed
	attacks      int
	missed       int // attacks the detector did not flag
	falseAlerts  int
	verifiedLPNs int64
	chains       int

	failed   int
	failures []string

	layers    map[string]float64 // traced run only
	plainUtil float64            // traced run only: see replayPlainFTL
}

func (r *roundResult) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// attempted counts every operation whose outcome the round checks.
func (r *roundResult) attempted() int64 {
	return r.hostReqs + r.verifiedLPNs + int64(r.chains) + int64(r.attacks) + int64(r.analysed)
}

func cpuNow() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

func mallocsNow() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// mutexWaitNow is the time goroutines have spent blocked on a sync.Mutex,
// sync.RWMutex or runtime lock so far. One P hides a contended lock from
// every wall metric; this counter still sees it wherever goroutines run on
// several.
func mutexWaitNow() float64 {
	s := []metrics.Sample{{Name: "/sync/mutex/wait/total:seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// timed runs fn as one timed phase: spans and plants on, CPU and allocation
// counters sampled outside the clock.
func (r *roundResult) timed(s *seams, fn func()) time.Duration {
	runtime.GC()
	m0, c0, w0 := mallocsNow(), cpuNow(), mutexWaitNow()
	s.on.Store(true)
	t0 := time.Now()
	fn()
	wall := time.Since(t0)
	s.on.Store(false)
	r.cpuNs += cpuNow() - c0
	r.mallocs += mallocsNow() - m0
	r.mutexWait += mutexWaitNow() - w0
	return wall
}

var zeroPageHash = sha256.Sum256(make([]byte, pageSize))

// runRound builds a fresh system from the seed and takes it through the
// whole story once.
func runRound(sp *spec, seed uint64, s *seams, keep bool) (*roundResult, error) {
	res := &roundResult{}
	runtime.GC()

	// Set-up: inputs, expected image, rig, preconditioning.
	t0 := time.Now()
	pool := sharedPool(seed, sp.poolPages, pageSize, sp.randomFrac)
	inputs := make([]*deviceInputs, sp.devices)
	for i := range inputs {
		var err error
		if inputs[i], err = genDevice(sp, seed, i, pool); err != nil {
			return nil, err
		}
	}
	r, err := buildRig(sp, s, inputs)
	if err != nil {
		return nil, err
	}
	res.setup = time.Since(t0)

	poolBase := bufpool.Outstanding()
	heldBase := r.heldPages()
	for _, d := range r.devs {
		d.statsBase, d.ftlBase, d.nandBase = d.dev.Stats(), d.dev.FTL().Stats(), d.dev.FTL().Device().Stats()
	}
	s.acc = seamAcc{} // nothing is in flight: set-up ended with a drain

	// Phase A: host traffic, attack, drain to durable.
	var errA error
	res.wallA = res.timed(s, func() { errA = r.phaseA() })
	if errA != nil {
		return nil, fmt.Errorf("phase A: %w", errA)
	}
	for _, d := range r.devs {
		d.statsA, d.ftlA, d.nandA = d.dev.Stats(), d.dev.FTL().Stats(), d.dev.FTL().Device().Stats()
		res.hostPages += int64(d.in.pages)
		res.hostReqs += int64(d.in.requests)
		res.userBytes += int64(d.in.writePages) * pageSize
		res.lat = append(res.lat, d.lat...)
		res.ackTime += d.statsA.OffloadAckTime - d.statsBase.OffloadAckTime
		res.ackSegments += d.statsA.OffloadSegments - d.statsBase.OffloadSegments
		res.wireBytes += d.statsA.OffloadBytesWire - d.statsBase.OffloadBytesWire
		res.programs += d.nandA.Programs - d.nandBase.Programs
		res.hostWrites += d.ftlA.HostWrites - d.ftlBase.HostWrites
		res.falseAlerts += d.falseAlerts
		if err := d.dev.LastOffloadError(); err != nil {
			res.fail("device %d: offload error after phase A: %v", d.id, err)
		}
	}
	accA := s.snapshot()
	var lt *layerInputs
	if keep {
		lt = &layerInputs{inputs: inputs} // the replays need the payloads
	} else {
		for _, in := range inputs {
			in.release()
		}
	}
	pool = nil
	// Twice: the first collection only moves sync.Pool contents to the
	// victim cache, the second frees them.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	// The store seam holds a second copy of every blob for phase B; that is
	// the harness's memory, not the program's.
	res.liveHeap = ms.HeapAlloc - r.blobs.bytes()

	// Phase B: the round's own segment blobs, re-pushed into a second,
	// fresh server.
	backlogs, err := r.backlogs(lt)
	if err != nil {
		return nil, err
	}
	_, _, srv2, _ := s.newServer()
	clients := make([]*remote.Client, len(r.devs))
	for i, d := range r.devs {
		if clients[i], err = s.dial(srv2, d.idx, d.id, roleIngest); err != nil {
			return nil, fmt.Errorf("phase B dial: %w", err)
		}
		res.ingestPages += backlogs[i].pages
	}
	var errB error
	res.wallB = res.timed(s, func() {
		errB = r.eachDriver(func(d *device) error {
			b := backlogs[d.idx]
			return clients[d.idx].PushSegmentBlobs(b.blobs, b.lastSeqs, 8)
		})
	})
	if errB != nil {
		return nil, fmt.Errorf("phase B: %w", errB)
	}
	for _, c := range clients {
		c.Close()
	}
	srv2.Close()
	backlogs = nil

	// Phase C: post-attack analysis, a sweep over the whole fleet. An attacked
	// device must yield its window; a clean one must yield none.
	attacked := r.attackedDevices()
	forensicClients := make([]*remote.Client, len(r.devs))
	for i, d := range r.devs {
		if forensicClients[i], err = s.dial(r.srv, d.idx, d.id, roleForensic); err != nil {
			return nil, fmt.Errorf("phase C dial: %w", err)
		}
	}
	var errC error
	var timelineNs, windowNs int64
	res.wallC = res.timed(s, func() {
		for pass := 0; pass < forensicPasses; pass++ {
			for i, d := range r.devs {
				an := forensic.NewAnalyzer(d.dev, forensicClients[i])
				t0 := time.Now()
				ev, err := an.Timeline()
				if err != nil {
					errC = fmt.Errorf("device %d timeline: %w", d.id, err)
					return
				}
				if err := oplog.VerifyChain(ev.Entries, [oplog.HashSize]byte{}); err != nil {
					errC = fmt.Errorf("device %d chain: %w", d.id, err)
					return
				}
				t1 := time.Now()
				win, err := an.AttackWindow(ev, d.alertSeq)
				windowNs += int64(time.Since(t1))
				timelineNs += int64(t1.Sub(t0))
				res.entries += int64(len(ev.Entries))
				res.analysed++
				switch {
				case d.attacked && (err != nil || win.StartSeq < d.cut || len(win.Victims) == 0):
					res.fail("device %d: attack window not reconstructed (start %d, cut %d, %d victims, err %v)",
						d.id, win.StartSeq, d.cut, len(win.Victims), err)
				case !d.attacked && !errors.Is(err, forensic.ErrNoAttack):
					res.fail("device %d: analysis found an attack window on a clean device (%d victims, err %v)",
						d.id, len(win.Victims), err)
				}
			}
		}
	})
	if errC != nil {
		return nil, fmt.Errorf("phase C: %w", errC)
	}
	for _, c := range forensicClients {
		c.Close()
	}

	// Phase D: power-cycle each attacked device and roll it back to the cut,
	// one device at a time so the arbiter's grants stay deterministic.
	restored := make([]*restoredDev, len(attacked))
	for _, d := range attacked {
		d.dev.Close()
		d.client.Close()
		d.dev, d.client = nil, nil
	}
	var errD error
	var reopenNs, restoreNs int64
	res.wallD = res.timed(s, func() {
		for i, d := range attacked {
			rd, err := r.restore(d)
			if err != nil {
				errD = fmt.Errorf("device %d: %w", d.id, err)
				return
			}
			restored[i] = rd
			reopenNs += rd.reopenNs
			restoreNs += rd.restoreNs
			res.rolledBack += int64(rd.rep.PagesRestored + rd.rep.PagesZeroed)
			res.rto += rd.rep.RTO
			res.restoreWire += rd.rep.BytesWire
		}
	})
	if errD != nil {
		return nil, fmt.Errorf("phase D: %w", errD)
	}

	// Phase E: verification, untimed.
	for i, d := range attacked {
		r.verifyImage(res, d, restored[i])
		res.attacks++
		switch {
		case d.alertSeq == 0:
			// A missed attack counts its whole length and one failed op.
			res.fail("device %d: %s not detected", d.id, sp.attack)
			res.missed++
			res.detectLag += int64(d.attackEnd - d.cut)
		default:
			res.detectLag += int64(d.alertSeq-d.cut) + 1
		}
	}
	for _, d := range r.devs {
		if !d.attacked {
			res.falseAlerts += len(r.engine.AlertsFor(d.id))
		}
	}
	for _, rd := range restored {
		rd.dev.Close()
		rd.client.Close()
	}
	r.close()
	for _, d := range r.devs {
		entries := r.store.Entries(d.id, 0, r.store.Head(d.id).NextSeq)
		res.chains++
		if err := oplog.VerifyChain(entries, [oplog.HashSize]byte{}); err != nil {
			res.fail("device %d: evidence chain broken from genesis: %v", d.id, err)
		}
	}
	drift := bufpool.Outstanding().Sub(poolBase).Total() - (r.heldPages() - heldBase)
	if drift != 0 {
		res.fail("bufpool: %+d buffers outstanding beyond NAND residency", drift)
	}

	if keep {
		res.layers, err = layerMetrics(sp, s, r, res, lt, layerTimes{
			timelineNs: timelineNs, windowNs: windowNs, reopenNs: reopenNs, restoreNs: restoreNs,
			restoreReadNs: s.acc.conn[roleRestore].readNanos.Load(),
			poolDrift:     drift, driverWallNs: r.driverWallNs, accA: accA,
		})
		if err != nil {
			return nil, fmt.Errorf("layer replays: %w", err)
		}
	}
	return res, nil
}

func (r *rig) heldPages() int64 {
	var n int64
	for _, d := range r.devs {
		n += d.nandDev.HeldPageBufs()
	}
	return n
}

func (r *rig) attackedDevices() []*device {
	var out []*device
	for _, d := range r.devs {
		if d.attacked {
			out = append(out, d)
		}
	}
	return out
}

// phaseA runs the host goroutines and returns when the last device is
// durable at the server. Everything they touch was opened in set-up.
func (r *rig) phaseA() error {
	walls := make([]int64, r.sp.drivers())
	err := r.perDriver(func(w int, devs []*device) error {
		t0 := time.Now()
		defer func() { walls[w] = int64(time.Since(t0)) }()
		return r.drive(devs)
	})
	for _, ns := range walls {
		r.driverWallNs += ns
	}
	return err
}

// drive is one host goroutine: it replays its devices' traces in lockstep,
// one request outstanding per device, then runs each device's file traffic,
// attack and final drain.
func (r *rig) drive(devs []*device) error {
	base := make([]simclock.Time, len(devs))
	for k, d := range devs {
		base[k] = d.clock.Now()
		d.lat = make([]int64, 0, d.in.requests)
	}
	for i := 0; i < r.sp.records; i++ {
		for k, d := range devs {
			rec := &d.in.trace[i]
			at := base[k] + rec.at
			var done simclock.Time
			var err error
			if d.mq != nil {
				done, err = d.submitNVMe(rec, i, at)
			} else {
				done, err = d.submitBatch(rec.ops, at)
			}
			if err != nil {
				return fmt.Errorf("device %d record %d: %w", d.id, i, err)
			}
			d.lat = append(d.lat, int64(done.Sub(at)))
			d.clock.AdvanceTo(done)
		}
	}
	for _, d := range devs {
		if err := r.finish(d); err != nil {
			return fmt.Errorf("device %d: %w", d.id, err)
		}
	}
	return nil
}

func (d *device) submitBatch(ops []batch.Op, at simclock.Time) (simclock.Time, error) {
	res, done, err := d.front.SubmitBatch(ops, at)
	if err != nil {
		return at, err
	}
	for i := range res {
		if res[i].Err != nil {
			return at, res[i].Err
		}
	}
	return simclock.Max(at, done), nil
}

func (d *device) submitNVMe(rec *traceRec, i int, at simclock.Time) (simclock.Time, error) {
	d.ht.begin("nvme.cmd")
	q := d.mq.Queue(i % nvmeQueues)
	err := q.Submit(rec.cmd)
	var comp nvme.Completion
	if err == nil {
		d.mq.Process(0, at)
		comp, err = q.Reap()
	}
	d.ht.end(int64(len(rec.ops)))
	if err != nil {
		return at, err
	}
	if comp.Status != nvme.StatusSuccess {
		return at, fmt.Errorf("nvme status %#x", uint16(comp.Status))
	}
	return simclock.Max(at, comp.At), nil
}

// replay submits recorded file-level requests, each due the moment the
// previous one finished plus whatever the host waited, and notes the modeled
// latency of each.
func (d *device) replay(batches []hostBatch) error {
	for i := range batches {
		b := &batches[i]
		due := d.clock.Advance(b.wait)
		done, err := d.submitBatch(b.ops, due)
		if err != nil {
			return fmt.Errorf("file request %d: %w", i, err)
		}
		d.lat = append(d.lat, int64(done.Sub(due)))
		d.clock.AdvanceTo(done)
	}
	return nil
}

// finish runs a device's file-level part of phase A. An attacked device is
// first brought to a quiesced cut: everything durable, a checkpoint for the
// delta restore to anchor on, and the detector's latch cleared if benign
// traffic had tripped it, as an operator closing a false alarm would.
func (r *rig) finish(d *device) error {
	clock := d.clock
	if err := d.replay(d.in.cover); err != nil {
		return err
	}
	if d.attacked {
		d.ht.begin("core.drain")
		at, err := d.dev.OffloadNow(clock.Now())
		if err == nil {
			at, err = d.dev.CheckpointNow(at)
		}
		d.ht.end(0)
		if err != nil {
			return fmt.Errorf("cut: %w", err)
		}
		clock.AdvanceTo(at)
		if n := len(r.engine.AlertsFor(d.id)); n > 0 {
			d.falseAlerts = n
			r.engine.Reset(d.id)
		}
		d.cut = d.dev.Log().NextSeq()
		if err := d.replay(d.in.attack); err != nil {
			return err
		}
		d.attackEnd = d.dev.Log().NextSeq()
	}
	d.ht.begin("core.drain")
	at, err := d.dev.OffloadNow(clock.Now())
	d.ht.end(0)
	if err != nil {
		return fmt.Errorf("final drain: %w", err)
	}
	clock.AdvanceTo(at)
	d.endSim = at
	for _, a := range r.engine.AlertsFor(d.id) {
		if d.attacked && a.AtSeq >= d.cut {
			d.alertSeq = a.AtSeq
			break
		}
	}
	return nil
}

// backlog is one device's phase-A offload traffic as the server stored it.
type backlog struct {
	blobs    [][]byte
	lastSeqs []uint64
	pages    int64
}

// backlogs sorts the segment blobs the first server persisted by device, in
// the order it accepted them.
func (r *rig) backlogs(lt *layerInputs) ([]backlog, error) {
	out := make([]backlog, len(r.devs))
	for _, put := range r.blobs.puts {
		var id, seq uint64
		if n, _ := fmt.Sscanf(put.key, "dev/%d/seg/%d", &id, &seq); n != 2 {
			continue // a checkpoint
		}
		raw, err := nvmeoe.DecodeSegmentBlob(put.data)
		if err != nil {
			return nil, fmt.Errorf("backlog %s: %w", put.key, err)
		}
		seg, err := oplog.UnmarshalSegment(raw)
		if err != nil {
			return nil, fmt.Errorf("backlog %s: %w", put.key, err)
		}
		b := &out[id-1]
		b.blobs = append(b.blobs, put.data)
		b.lastSeqs = append(b.lastSeqs, seg.LastSeq)
		b.pages += int64(len(seg.Pages))
		if lt != nil {
			lt.addSegment(put.data, raw, seg)
		}
	}
	return out, nil
}

type restoredDev struct {
	dev       *core.RSSD
	client    *remote.Client
	at        simclock.Time
	rep       core.RestoreReport
	reopenNs  int64
	restoreNs int64
}

// restore is the power-on path of one device: a new session, Reopen over
// the surviving flash, then the streamed dedup + delta rollback to the cut.
func (r *rig) restore(d *device) (*restoredDev, error) {
	t0 := time.Now()
	client, err := d.cfg.Dial()
	if err != nil {
		return nil, fmt.Errorf("dial: %w", err)
	}
	dev, err := core.Reopen(d.cfg, d.nandDev, client)
	if err != nil {
		client.Close()
		return nil, fmt.Errorf("reopen: %w", err)
	}
	// Reopen pins every stale page still on flash again, shipped or not.
	// Draining them first keeps the rollback off the Pressure cliff: without
	// it, whether the first block the restore opens finds anything to
	// collect depends on the free list at power-off, and the RTO of
	// otherwise equal seeds differs by half (README, leads).
	endSim, err := dev.OffloadNow(d.endSim)
	if err != nil {
		dev.Close()
		client.Close()
		return nil, fmt.Errorf("post-reopen drain: %w", err)
	}
	t1 := time.Now()
	eng := recovery.NewEngine(dev, client, recovery.Options{})
	at, rep, err := eng.RestoreImage(d.cut, core.RestoreOptions{
		Dial:       func() (*remote.Client, error) { return r.s.dial(r.srv, d.idx, d.id, roleRestore) },
		Link:       r.link,
		ChunkPages: int(nvmeoe.ChunkPagesForQuantum(pageSize)),
		Dedup:      true,
		Delta:      true,
	}, endSim)
	if err != nil {
		dev.Close()
		client.Close()
		return nil, fmt.Errorf("restore: %w", err)
	}
	return &restoredDev{
		dev: dev, client: client, at: at, rep: rep,
		reopenNs: int64(t1.Sub(t0)), restoreNs: int64(time.Since(t1)),
	}, nil
}

// verifyImage drains the restore's own churn, then reads every logical page
// back and compares it with the expected image at the cut.
func (r *rig) verifyImage(res *roundResult, d *device, rd *restoredDev) {
	at, err := rd.dev.OffloadNow(rd.at)
	if err != nil {
		res.fail("device %d: post-restore drain: %v", d.id, err)
	}
	if err := rd.dev.LastOffloadError(); err != nil {
		res.fail("device %d: offload error after restore: %v", d.id, err)
	}
	logical := rd.dev.LogicalPages()
	ops := make([]batch.Op, 0, 64)
	for lpn := uint64(0); lpn < logical; {
		ops = ops[:0]
		for ; lpn < logical && len(ops) < cap(ops); lpn++ {
			ops = append(ops, batch.Op{Kind: batch.OpRead, LPN: lpn})
		}
		got, _, err := rd.dev.SubmitBatch(ops, at)
		if err != nil {
			res.fail("device %d: verify read at lpn %d: %v", d.id, ops[0].LPN, err)
			return
		}
		for i := range got {
			want, ok := d.in.shadow[ops[i].LPN]
			if !ok {
				want = zeroPageHash
			}
			res.verifiedLPNs++
			if got[i].Err != nil || sha256.Sum256(got[i].Data) != want {
				res.fail("device %d: lpn %d differs from the image at the cut", d.id, ops[i].LPN)
			}
		}
	}
}
