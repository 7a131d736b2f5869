package experiment

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/batch"
	"repro/internal/bufpool"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/host"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/oplog"
	"repro/internal/remote"
	"repro/internal/simclock"
	"repro/internal/workload"
)

// The soak experiment: a simulated multi-day horizon of continuous
// operation under deterministic fault injection, proving the paper's
// durability and recovery claims hold not just across one staged failure
// but across an arbitrary interleaving of them.
//
// Each wave of the soak runs concurrently on a device fleet dialed
// through a remote.Cluster:
//
//   - benign replay on most devices (the fleet workload profiles);
//   - an attack wave (the seed trio, rotating) landing on one device
//     mid-wave, with streaming detection following ownership;
//   - one device power-cycled and stream-restored THROUGH the cluster —
//     so the chaos injector's conn faults land mid-restore and the
//     restorer must resume, not restart;
//   - a retention tick expiring fully-superseded segment pages
//     (Store.DropSegmentPages) while all of the above is in flight;
//   - a seed-drawn server kill at wave start, revived at wave end, with
//     Cluster rebalancing driven by the live per-server ingest-skew
//     window (RebalanceOnIngest), not a synthetic tick.
//
// The chaos.Invariants checker runs DURING the soak, at every wave
// boundary: hash-chain contiguity per device, dedup refcount balance,
// bufpool outstanding-buffer gauge at baseline, NIC QoS conservation and
// floor guarantees, and a durability probe (no acked entry missing)
// after every injected kill. Every fault draws from chaos.Schedule, so
// any failure reproduces from the seed printed in the error.

// SoakOptions parameterizes one soak run.
type SoakOptions struct {
	Devices int
	Servers int
	Waves   int
	Seed    int64
	// Short compresses the horizon for CI: fewer opportunities at
	// higher fault rates, so the run still injects a meaningful storm.
	Short bool
}

// soakRates picks the fault-rate preset. Both horizons run hot — the
// point of the soak is fault density, and every fault class is transient
// by construction (first-touch tier faults, budgeted conn cuts), so high
// rates stress recovery without creating unreachable state.
func soakRates(short bool) chaos.Rates {
	if short {
		return chaos.Rates{ConnCut: 0.45, WireMutate: 0.30, TierErr: 0.30, TierSlow: 0.40}
	}
	return chaos.Rates{ConnCut: 0.30, WireMutate: 0.20, TierErr: 0.25, TierSlow: 0.35}
}

// SoakWave is one wave's row in the soak report.
type SoakWave struct {
	Wave          int
	KilledServer  int // -1: no kill drawn this wave
	AttackDevice  int // fleet index
	AttackName    string
	RestoreDevice int // fleet index; -1 on the first wave
	Resumes       int // mid-restore session deaths the restorer resumed over
	Moves         int // rebalance moves driven by the live ingest-skew window
	Drops         int // retention-tick segment-page drops
	Faults        int // cumulative injected faults at wave end
}

// SoakResult is the committed soak report.
type SoakResult struct {
	Seed    int64
	Devices int
	Servers int
	Waves   int
	Short   bool
	SimDays float64
	WallMs  float64
	Records int
	PageOps int

	Faults         []chaos.ClassLedger
	FaultsInjected int
	FaultClasses   int
	WedgedFaults   int
	HealP99MsMax   float64

	Kills           int
	Revives         int
	RebalanceMoves  int
	Handoffs        int
	Redials         uint64
	RedialExhausted uint64
	ResumeGap       uint64

	Restores         int
	RestoreResumes   int
	RestoresVerified int
	AttacksLaunched  int
	AttackedDevices  int
	AttacksCaught    int
	FalseAlerts      int
	RetentionDrops   int

	EntriesLost     uint64
	SegmentsLost    int
	ChainsVerified  int
	InvariantChecks int
	Violations      []string

	BufpoolDelta  int64
	HeapDeltaMB   float64
	StoreGrowthMB float64

	WaveRows     []SoakWave
	GateFailures []string
}

// soakDevice is one device's soak state across waves.
type soakDevice struct {
	id     uint64
	idx    int
	dev    *core.RSSD
	client *remote.Client
	fs     *host.FlatFS
	gen    *workload.Generator

	end simclock.Time     // device sim time high-water mark
	off simclock.Duration // wave-gap offset added to generator timestamps

	records    int
	attackedAt uint64 // first attack's start seq; ^0 when never attacked
	restores   int
	resumes    int
	nextDrop   int // retention cursor: next segment index to consider
	err        error
}

const (
	soakOutage      = simclock.Hour     // downtime before a mid-soak restore
	soakWaveGap     = 6 * simclock.Hour // sim-time between waves (full horizon)
	soakShortGap    = 2 * simclock.Hour
	soakFlushTries  = 400
	soakFlushStep   = 25 * simclock.Millisecond
	soakMinFaults   = 200
	soakShortFaults = 12
)

// Soak runs the chaos soak and evaluates its hard gates. On gate failure
// the result is still returned (for the committed report) along with an
// error naming every failed gate and the reproducing seed.
func Soak(s Scale, o SoakOptions) (*SoakResult, error) {
	s = fleetScale(s)
	if o.Devices < 2 {
		o.Devices = 2
	}
	if o.Servers < 2 {
		o.Servers = 2
	}
	if o.Waves < 3 {
		o.Waves = 3
	}
	waveGap := soakWaveGap
	minFaults := soakMinFaults
	if o.Short {
		waveGap = soakShortGap
		minFaults = soakShortFaults
	}
	sched := chaos.Schedule{Seed: o.Seed, Rates: soakRates(o.Short), MTBF: 3}
	inj := chaos.NewInjector(sched)
	iv := &chaos.Invariants{}

	// The whole stack assembles around the injector: the object store is
	// wrapped (tier faults), every dialed conn is wrapped (conn/wire
	// faults), and the wave loop draws kills.
	store := remote.NewStore(inj.WrapStore(remote.NewMemStore()))
	cluster := remote.NewCluster(store, remote.ClusterConfig{
		Servers:  o.Servers,
		PSK:      PSK,
		Server:   remote.ServerConfig{DecodeWorkers: 2},
		WrapConn: inj.WrapConn,
		// Live ingest-skew rebalancing thresholds: sensitive enough that
		// the soak's uneven per-wave ingest actually drives moves.
		SkewFactor: 1.25, SkewTicks: 1, SkewMinPeak: 2, SkewMinBytes: 4 << 10,
	})
	defer cluster.Close()

	engines := make([]*detect.Engine, o.Servers)
	for i := range engines {
		engines[i] = detect.NewEngine(detectConfig(s))
	}
	var handoffs int
	var handoffMu sync.Mutex
	cluster.OnMove = func(dev uint64, from, to int) {
		if from >= 0 && from < o.Servers && to >= 0 && to < o.Servers {
			engines[from].Handoff(dev, engines[to])
			handoffMu.Lock()
			handoffs++
			handoffMu.Unlock()
		}
	}
	store.Subscribe(func(dev uint64, seg *oplog.Segment) {
		owner, ok := cluster.Owner(dev)
		if !ok || owner < 0 || owner >= o.Servers {
			owner = 0
		}
		engines[owner].Observe(dev, seg.Entries)
	})

	devs := make([]*soakDevice, o.Devices)
	for i := range devs {
		sd, err := newSoakDevice(s, cluster, i)
		if err != nil {
			return nil, fmt.Errorf("soak setup device %d: %w", i+1, err)
		}
		devs[i] = sd
	}
	defer func() {
		for _, sd := range devs {
			if sd != nil && sd.dev != nil {
				sd.dev.Close()
			}
			if sd != nil && sd.client != nil {
				sd.client.Close()
			}
		}
	}()
	ids := make([]uint64, o.Devices)
	for i := range ids {
		ids[i] = uint64(i + 1)
	}

	opsPerWave := s.TraceOps / (o.Devices * o.Waves)
	if opsPerWave < 60 {
		opsPerWave = 60
	}

	res := &SoakResult{Seed: o.Seed, Devices: o.Devices, Servers: o.Servers,
		Waves: o.Waves, Short: o.Short, Violations: []string{}, GateFailures: []string{}}
	var poolBase bufpool.Gauge
	var poolBaseHeld int64
	var heapBase uint64
	var storeBase int64
	start := time.Now()

	for w := 0; w < o.Waves; w++ {
		wave := SoakWave{Wave: w, KilledServer: -1, RestoreDevice: -1}

		// Restamp every device's chaos clock past the inter-wave gap, so
		// heal latencies measure recovery work, not idle horizon.
		for _, sd := range devs {
			inj.Observe(sd.id, sd.end, sd.dev.LastOffloadError() == nil)
		}

		// Seed-drawn rolling server kill: crash at wave start, revive at
		// wave end. The victim's devices heal through the placement-aware
		// redial path while the wave's full load is running.
		if victim, ok := inj.DrawKill(uint64(w), o.Servers); ok {
			if _, err := cluster.Kill(victim); err == nil {
				inj.KillStarted(victim, fleetNow(devs))
				wave.KilledServer = victim
				res.Kills++
			}
		}

		attackIdx := w % o.Devices
		restoreIdx := (w + o.Devices/2) % o.Devices
		if restoreIdx == attackIdx {
			restoreIdx = (restoreIdx + 1) % o.Devices
		}
		atkName := fleetAttacks[w%len(fleetAttacks)]
		wave.AttackDevice = attackIdx
		wave.AttackName = string(atkName)
		doRestore := w > 0 // wave 0 has no content or checkpoint to restore yet
		if doRestore {
			wave.RestoreDevice = restoreIdx
		}

		// The wave itself: replay, attack, restore, and the retention
		// tick all genuinely concurrent — attacks land mid-restore and
		// mid-expiry because nothing serializes them.
		var wg sync.WaitGroup
		for i, sd := range devs {
			wg.Add(1)
			go func(i int, sd *soakDevice) {
				defer wg.Done()
				switch {
				case doRestore && i == restoreIdx:
					sd.err = sd.powerCycleRestore(s, cluster, inj)
				case i == attackIdx:
					sd.err = sd.attackWave(s, inj, atkName, opsPerWave, w)
				default:
					sd.err = sd.replay(inj, opsPerWave)
				}
			}(i, sd)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			wave.Drops = soakRetentionTick(store, devs)
		}()
		wg.Wait()
		for _, sd := range devs {
			if sd.err != nil {
				return res, fmt.Errorf("soak wave %d device %d (reproduce with -exp soak -seed %d): %w",
					w, sd.id, o.Seed, sd.err)
			}
		}
		if doRestore {
			wave.Resumes = devs[restoreIdx].resumes
		}

		// Quiesce: every device drains its offload pipeline healthy —
		// this is where most pending faults heal (and the proof none
		// wedged the pipeline).
		var qg sync.WaitGroup
		for _, sd := range devs {
			qg.Add(1)
			go func(sd *soakDevice) {
				defer qg.Done()
				sd.err = sd.flushHealthy(inj)
			}(sd)
		}
		qg.Wait()
		for _, sd := range devs {
			if sd.err != nil {
				return res, fmt.Errorf("soak wave %d quiesce device %d (reproduce with -exp soak -seed %d): %w",
					w, sd.id, o.Seed, sd.err)
			}
		}

		if wave.KilledServer >= 0 {
			if err := cluster.Revive(wave.KilledServer); err != nil {
				return res, fmt.Errorf("revive server %d: %w", wave.KilledServer, err)
			}
			inj.KillHealed(wave.KilledServer, fleetNow(devs))
			res.Revives++
			// Durability probe right after the kill window closes: no
			// device may have lost an acked entry to the crash.
			for _, sd := range devs {
				iv.Durability(store, sd.id, sd.dev.OffloadedUpTo())
			}
		}
		wave.Moves = len(cluster.RebalanceOnIngest())
		res.RebalanceMoves += wave.Moves

		// Wave-boundary invariant sweep, while faults keep arming next
		// wave: the properties must hold at every quiesce point, not
		// just at the end.
		for _, sd := range devs {
			if iv.Chain(store, sd.id) {
				res.ChainsVerified++
			}
			iv.Durability(store, sd.id, sd.dev.OffloadedUpTo())
		}
		iv.DedupBalance(store, ids)
		for i := 0; i < o.Servers; i++ {
			name := fmt.Sprintf("server %d NIC", i)
			iv.Conservation(name, cluster.Server(i).NIC)
			iv.Floors(name, cluster.Server(i).NIC)
		}
		if w == 0 {
			// Steady-state baselines land after the first wave: sessions
			// at rest legitimately hold staged buffers, so wave 0's
			// quiesce — not process start — is the honest anchor.
			poolBase = bufpool.Outstanding()
			poolBaseHeld = nandResidency(devs)
			runtime.GC()
			var m runtime.MemStats
			runtime.ReadMemStats(&m)
			heapBase = m.HeapAlloc
			storeBase = storeFootprint(store, ids)
		} else {
			iv.PoolSteady(poolBase, nandResidency(devs)-poolBaseHeld)
		}

		wave.Faults = inj.TotalInjected()
		res.WaveRows = append(res.WaveRows, wave)

		// Advance the horizon: the gap is what makes twelve waves a
		// multi-day run in simulated time.
		for _, sd := range devs {
			sd.off += waveGap
			sd.end += simclock.Time(waveGap)
			sd.fs.Clock().AdvanceTo(sd.end)
		}
	}

	res.WallMs = float64(time.Since(start).Microseconds()) / 1000
	res.SimDays = simclock.Duration(fleetNow(devs)).Days()

	// Final audit: the zero-loss ledger, per device, exactly as the fleet
	// failover pass states it.
	for _, sd := range devs {
		st := sd.dev.Stats()
		res.Records += sd.records
		res.PageOps += int(st.HostWrites + st.HostReads + st.HostTrims)
		res.Redials += st.Redials
		res.RedialExhausted += st.RedialExhausted
		res.ResumeGap += st.ResumeGap
		res.Restores += sd.restores
		res.RestoreResumes += sd.resumes
		want := sd.dev.Log().NextSeq()
		head := store.Head(sd.id).NextSeq
		if head < want {
			res.EntriesLost += want - head
		}
		if acked, stored := st.OffloadSegments, uint64(store.DeviceStats(sd.id).Segments); acked > stored {
			res.SegmentsLost += int(acked - stored)
		}
		if sd.attackedAt != ^uint64(0) {
			res.AttackedDevices++
			hit := false
			for _, e := range engines {
				for _, a := range e.AlertsFor(sd.id) {
					if a.AtSeq >= sd.attackedAt {
						hit = true
					} else {
						res.FalseAlerts++
					}
				}
			}
			if hit {
				res.AttacksCaught++
			}
		} else {
			for _, e := range engines {
				res.FalseAlerts += len(e.AlertsFor(sd.id))
			}
		}
	}
	res.RestoresVerified = res.Restores // a failed verify errors the wave
	res.AttacksLaunched = o.Waves
	for _, sd := range devs {
		res.RetentionDrops += sd.nextDrop
	}
	handoffMu.Lock()
	res.Handoffs = handoffs
	handoffMu.Unlock()

	inj.Finish()
	led := inj.Ledger()
	res.Faults = led[:]
	res.FaultsInjected = inj.TotalInjected()
	res.FaultClasses = inj.ActiveClasses()
	for _, l := range led {
		res.WedgedFaults += l.Wedged
		if l.Healed > 0 && l.HealP99Ms > res.HealP99MsMax {
			res.HealP99MsMax = l.HealP99Ms
		}
	}

	res.BufpoolDelta = bufpool.Outstanding().Sub(poolBase).Total() - (nandResidency(devs) - poolBaseHeld)
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	res.HeapDeltaMB = (float64(m.HeapAlloc) - float64(heapBase)) / 1e6
	res.StoreGrowthMB = float64(storeFootprint(store, ids)-storeBase) / 1e6
	res.InvariantChecks, res.Violations = iv.Snapshot()

	// The hard gates. Heal latency is bounded by the simulated horizon:
	// restore-session faults heal only when the hour-long outage ends,
	// and faults armed across a low-and-slow attack wave heal on that
	// attack's own multi-day timeline — so the bound scales with the
	// horizon, and the wedge gate is what proves every fault healed.
	horizonMs := res.SimDays * 24 * 3600 * 1000
	gate := func(ok bool, format string, args ...any) {
		if !ok {
			res.GateFailures = append(res.GateFailures, fmt.Sprintf(format, args...))
		}
	}
	gate(res.FaultsInjected >= minFaults, "only %d faults injected, want >= %d", res.FaultsInjected, minFaults)
	gate(res.FaultClasses >= 3, "only %d fault classes fired, want >= 3", res.FaultClasses)
	gate(res.EntriesLost == 0, "%d acked entries lost", res.EntriesLost)
	gate(res.SegmentsLost == 0, "%d acked segments lost", res.SegmentsLost)
	gate(res.WedgedFaults == 0, "%d faults wedged (never healed)", res.WedgedFaults)
	gate(len(res.Violations) == 0, "%d invariant violations: %s", len(res.Violations), strings.Join(res.Violations, "; "))
	gate(res.HealP99MsMax <= horizonMs, "heal-latency p99 %.1f ms exceeds the %.0f ms simulated horizon", res.HealP99MsMax, horizonMs)
	gate(res.BufpoolDelta == 0, "bufpool outstanding-buffer gauge drifted %+d off baseline", res.BufpoolDelta)
	gate(res.HeapDeltaMB <= 3*res.StoreGrowthMB+64,
		"heap grew %.1f MB against %.1f MB of store growth", res.HeapDeltaMB, res.StoreGrowthMB)
	gate(res.ChainsVerified > 0, "no chains verified")
	if len(res.GateFailures) > 0 {
		return res, fmt.Errorf("soak gates failed (reproduce with -exp soak -seed %d):\n  %s",
			o.Seed, strings.Join(res.GateFailures, "\n  "))
	}
	return res, nil
}

// newSoakDevice builds one fleet device dialed through the cluster, its
// offload NIC charged to its initial owner's arbiter.
func newSoakDevice(s Scale, cluster *remote.Cluster, idx int) (*soakDevice, error) {
	id := uint64(idx + 1)
	client, err := cluster.Dial(id)
	if err != nil {
		return nil, err
	}
	cfg := soakDeviceConfig(s, cluster, id)
	dev := core.New(cfg, client)
	fs := host.NewFlatFS(dev, simclock.NewClock())
	profName := fleetProfiles[idx%len(fleetProfiles)]
	prof, ok := workload.ProfileByName(profName)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", profName)
	}
	return &soakDevice{
		id: id, idx: idx, dev: dev, fs: fs,
		gen:        workload.NewGenerator(prof, s.PageSize, dev.LogicalPages(), int64(4000+idx)),
		attackedAt: ^uint64(0),
	}, nil
}

func soakDeviceConfig(s Scale, cluster *remote.Cluster, id uint64) core.Config {
	cfg := core.DefaultConfig()
	cfg.FTL = s.ftlConfig()
	cfg.DeviceID = id
	cfg.Dial = cluster.DialFunc(id)
	tune := remote.Profile("mem")
	cfg.OffloadHighWater = tune.OffloadHighWater
	cfg.OffloadLowWater = tune.OffloadLowWater
	cfg.OffloadQueueDepth = tune.OffloadQueueDepth
	if owner, ok := cluster.Owner(id); ok {
		if srv := cluster.Server(owner); srv != nil {
			cfg.NIC = srv.NIC
		}
	}
	return cfg
}

// fleetNow is the fleet's sim-time high-water mark — the clock kill/revive
// heal latencies are stamped in.
func fleetNow(devs []*soakDevice) simclock.Time {
	var now simclock.Time
	for _, sd := range devs {
		now = simclock.Max(now, sd.end)
	}
	return now
}

// replay drives ops benign records through the device, observing health
// at record boundaries so the injector can stamp heals in sim time.
func (sd *soakDevice) replay(inj *chaos.Injector, ops int) error {
	var batchOps []batch.Op
	for j := 0; j < ops; j++ {
		rec := sd.gen.Next()
		batchOps = recordBatch(sd.gen, rec, sd.dev.LogicalPages(), batchOps[:0])
		if len(batchOps) == 0 {
			continue
		}
		done, err := submitRecord(sd.dev, batchOps, rec.At+simclock.Time(sd.off))
		if err != nil {
			return err
		}
		sd.end = simclock.Max(sd.end, done)
		sd.records++
		if sd.records%8 == 0 {
			inj.Observe(sd.id, sd.end, sd.dev.LastOffloadError() == nil)
		}
	}
	return nil
}

// attackWave is replay with an attack landing mid-wave: half the cover
// traffic, then a fresh victim corpus and one of the seed-trio attacks,
// then the rest of the cover.
func (sd *soakDevice) attackWave(s Scale, inj *chaos.Injector, name AttackName, ops, wave int) error {
	if err := sd.replay(inj, ops/2); err != nil {
		return err
	}
	sd.fs.Clock().AdvanceTo(sd.end)
	rng := rand.New(rand.NewSource(int64(7700 + wave)))
	if _, _, err := seedAndSnapshot(sd.fs, rng, s); err != nil {
		return err
	}
	if err := sd.flushHealthy(inj); err != nil {
		return err
	}
	start := sd.dev.Log().NextSeq()
	if sd.attackedAt == ^uint64(0) {
		sd.attackedAt = start
	}
	if _, err := makeAttack(name).Run(sd.fs, rng); err != nil {
		return err
	}
	sd.end = simclock.Max(sd.end, sd.fs.Clock().Now())
	return sd.replay(inj, ops-ops/2)
}

// flushHealthy drains the offload pipeline until the device reports no
// pending error and everything logged is acked durable — retrying through
// whatever faults the schedule armed, advancing sim time so redial
// backoff can expire. A device that cannot get healthy is wedged, which
// is a soak failure by definition.
func (sd *soakDevice) flushHealthy(inj *chaos.Injector) error {
	at := sd.end
	for attempt := 0; attempt < soakFlushTries; attempt++ {
		at += simclock.Time(soakFlushStep)
		done, err := sd.dev.OffloadNow(at)
		at = simclock.Max(at, done)
		// A nil OffloadNow means fully drained: zero retained pages and the
		// durable frontier at the log head. LastOffloadError is deliberately
		// NOT consulted — it is SMART-style sticky until the next durable
		// ack, and a link cut landing after the final ack would otherwise
		// wedge a perfectly healthy, fully-drained device here forever.
		if err == nil && sd.dev.OffloadedUpTo() == sd.dev.Log().NextSeq() {
			sd.end = simclock.Max(sd.end, at)
			inj.Observe(sd.id, sd.end, true)
			return nil
		}
		inj.Observe(sd.id, at, false)
	}
	return fmt.Errorf("offload pipeline never drained healthy in %d attempts (wedged): lastErr=%v acked=%d logged=%d",
		soakFlushTries, sd.dev.LastOffloadError(), sd.dev.OffloadedUpTo(), sd.dev.Log().NextSeq())
}

// powerCycleRestore quiesces the device, cuts its power, and stream-
// restores the image at the head THROUGH the cluster — so the restore
// session is subject to the same conn faults as everything else and must
// resume across injected mid-restore disconnects. Content is verified
// against pages sampled before the cycle.
func (sd *soakDevice) powerCycleRestore(s Scale, cluster *remote.Cluster, inj *chaos.Injector) error {
	if err := sd.flushHealthy(inj); err != nil {
		return err
	}
	// Checkpoint anchor for the delta stream. Transient tier faults on
	// the upload are first-touch-per-key, so a retry of the same anchor
	// always lands; the flush between attempts re-heals the session.
	cpErr := fmt.Errorf("checkpoint never attempted")
	for attempt := 0; attempt < 5 && cpErr != nil; attempt++ {
		if _, cpErr = sd.dev.CheckpointNow(sd.end); cpErr != nil {
			if err := sd.flushHealthy(inj); err != nil {
				return err
			}
		}
	}
	if cpErr != nil {
		return fmt.Errorf("checkpoint before cycle: %w", cpErr)
	}
	if err := sd.flushHealthy(inj); err != nil {
		return err
	}
	cut := sd.dev.Log().NextSeq()

	// Sample the live image: the restored device must reproduce it.
	want := map[uint64][]byte{}
	rng := rand.New(rand.NewSource(int64(sd.id)*7919 + int64(cut)))
	logical := sd.dev.LogicalPages()
	at := sd.end
	for k := 0; k < 24; k++ {
		lpn := rng.Uint64() % logical
		b, done, err := sd.dev.Read(lpn, at)
		if err != nil {
			continue // never-written page; nothing to verify
		}
		at = simclock.Max(at, done)
		want[lpn] = append([]byte(nil), b...)
	}
	sd.end = simclock.Max(sd.end, at)

	// Power cycle: flash survives, device state does not.
	nand := sd.dev.FTL().Device()
	sd.dev.Close()
	if sd.client != nil {
		sd.client.Close()
		sd.client = nil
	}

	// The restore stream resumes over injected cuts by itself, but the
	// reopen's log fetch is a single session with no resume cursor — when
	// chaos cuts THAT session, power-on retries on a fresh dial, exactly
	// like firmware would.
	var rd *restoredDevice
	var err error
	for attempt := 0; attempt < 6; attempt++ {
		rd, err = restoreRun{
			Dial:  cluster.DialFunc(sd.id),
			Link:  soakRestoreLink(cluster, sd.id),
			Dedup: true,
			Delta: true,
		}.run(soakDeviceConfig(s, cluster, sd.id), nand, sd.id, cut, want, sd.end+simclock.Time(soakOutage))
		if err == nil {
			break
		}
	}
	if err != nil {
		return fmt.Errorf("mid-soak restore: %w", err)
	}
	sd.dev, sd.client = rd.dev, rd.client
	sd.end = simclock.Max(sd.end, rd.at)
	sd.restores++
	sd.resumes += rd.rep.Resumes
	if !rd.verified {
		return fmt.Errorf("restored image diverged from the pre-cycle content")
	}
	// Fresh host view over the restored device; the clock resumes where
	// the device's timeline is.
	clk := simclock.NewClock()
	clk.AdvanceTo(sd.end)
	sd.fs = host.NewFlatFS(sd.dev, clk)
	inj.Observe(sd.id, sd.end, sd.dev.LastOffloadError() == nil)
	return nil
}

// soakRestoreLink charges the restore stream to the current owner's NIC,
// where it contends with the fleet's offload flows.
func soakRestoreLink(cluster *remote.Cluster, id uint64) *remote.RecoveryLink {
	if owner, ok := cluster.Owner(id); ok {
		if srv := cluster.Server(owner); srv != nil && srv.NIC != nil {
			return remote.NewRecoveryLinkOn(srv.NIC)
		}
	}
	return remote.NewRecoveryLinkOn(netsim.New(netsim.Config{}))
}

// soakRetentionTick is the minimal retention pass: for each device,
// consider the oldest undropped segment; when every retained page in it
// has a newer version in the store (fully superseded), expire its pages
// via DropSegmentPages. The evidence chain is never touched, and the
// newest version of every page always survives — which is why expiry is
// safe to run concurrently with a restore at the head.
func soakRetentionTick(store *remote.Store, devs []*soakDevice) int {
	drops := 0
	for _, sd := range devs {
		i := sd.nextDrop
		if i >= store.DeviceStats(sd.id).Segments {
			continue
		}
		seg, err := store.FetchSegment(sd.id, i)
		if err != nil {
			// A chaos tier fault on the segment read: retry once — the
			// first-touch fault has been consumed, the retry heals.
			if seg, err = store.FetchSegment(sd.id, i); err != nil {
				continue
			}
		}
		if len(seg.Pages) == 0 {
			sd.nextDrop++ // nothing retained; nothing to expire
			continue
		}
		superseded := true
		for p := range seg.Pages {
			v, ok := store.Version(sd.id, seg.Pages[p].LPN, ^uint64(0))
			if !ok || v.WriteSeq <= seg.Pages[p].WriteSeq {
				superseded = false
				break
			}
		}
		if !superseded {
			continue // not expired yet; reconsider next wave
		}
		if err := store.DropSegmentPages(sd.id, i); err != nil {
			continue
		}
		sd.nextDrop++
		drops++
	}
	return drops
}

// nandResidency sums the pooled page buffers the fleet's NAND arrays hold
// for live flash content — the one legitimate long-lived pool consumer the
// leak gate must net out.
func nandResidency(devs []*soakDevice) int64 {
	var n int64
	for _, sd := range devs {
		n += sd.dev.FTL().Device().HeldPageBufs()
	}
	return n
}

// storeFootprint approximates the durable store's in-memory weight for
// the heap-stability gate: the heap may grow as fast as the store's
// legitimate accumulation, and no faster.
func storeFootprint(store *remote.Store, ids []uint64) int64 {
	var n int64
	for _, id := range ids {
		st := store.DeviceStats(id)
		n += st.PageBytes + st.BytesStored + int64(st.Entries)*128
	}
	return n
}

// RenderSoak renders the soak report for the console.
func RenderSoak(r *SoakResult) string {
	ft := metrics.NewTable("class", "injected", "healed", "wedged",
		"heal_p50_ms", "heal_p99_ms", "heal_max_ms")
	for _, l := range r.Faults {
		ft.AddRow(l.Class, l.Injected, l.Healed, l.Wedged,
			fmt.Sprintf("%.1f", l.HealP50Ms), fmt.Sprintf("%.1f", l.HealP99Ms),
			fmt.Sprintf("%.1f", l.HealMaxMs))
	}
	wt := metrics.NewTable("wave", "kill", "attack", "restore", "resumes",
		"moves", "drops", "faults")
	for _, w := range r.WaveRows {
		kill, restore := "-", "-"
		if w.KilledServer >= 0 {
			kill = fmt.Sprintf("s%d", w.KilledServer)
		}
		if w.RestoreDevice >= 0 {
			restore = fmt.Sprintf("d%d", w.RestoreDevice+1)
		}
		wt.AddRow(w.Wave, kill, fmt.Sprintf("d%d:%s", w.AttackDevice+1, w.AttackName),
			restore, w.Resumes, w.Moves, w.Drops, w.Faults)
	}
	out := fmt.Sprintf("chaos soak: seed %d, %d devices / %d servers / %d waves, %.2f simulated days (%.0f ms wall)\n",
		r.Seed, r.Devices, r.Servers, r.Waves, r.SimDays, r.WallMs)
	out += ft.String()
	out += wt.String()
	out += fmt.Sprintf(
		"faults: %d injected across %d classes, %d wedged (gate: 0); heal p99 max %.1f ms\n"+
			"control plane: %d kills / %d revives, %d rebalance moves, %d detection handoffs, %d redials (%d exhausted)\n"+
			"restores: %d mid-soak, %d resumed over injected disconnects, all verified; %d retention drops\n"+
			"attacks: %d waves on %d devices, %d caught, %d false alerts\n"+
			"durability: %d entries / %d segments lost (gate: 0/0); %d chains verified; %d invariant checks, %d violations\n"+
			"memory: bufpool gauge delta %+d (gate: 0); heap %+.1f MB vs %.1f MB store growth\n",
		r.FaultsInjected, r.FaultClasses, r.WedgedFaults, r.HealP99MsMax,
		r.Kills, r.Revives, r.RebalanceMoves, r.Handoffs, r.Redials, r.RedialExhausted,
		r.Restores, r.RestoreResumes, r.RetentionDrops,
		r.AttacksLaunched, r.AttackedDevices, r.AttacksCaught, r.FalseAlerts,
		r.EntriesLost, r.SegmentsLost, r.ChainsVerified, r.InvariantChecks, len(r.Violations),
		r.BufpoolDelta, r.HeapDeltaMB, r.StoreGrowthMB)
	for _, v := range r.Violations {
		out += "  VIOLATION: " + v + "\n"
	}
	for _, g := range r.GateFailures {
		out += "  GATE FAILED: " + g + "\n"
	}
	return out
}
