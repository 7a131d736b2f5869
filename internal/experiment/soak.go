package experiment

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"repro/internal/chaos"
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

	Restores        int
	RestoreResumes  int
	AttacksLaunched int
	AttackedDevices int
	AttacksCaught   int
	FalseAlerts     int
	RetentionDrops  int

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
	*rigDevice
	gen *workload.Generator

	end simclock.Time     // device sim time high-water mark
	off simclock.Duration // wave-gap offset added to generator timestamps

	records    int
	attackedAt uint64 // first attack's start seq; ^0 when never attacked
	restores   int
	resumes    int
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
	if o.Devices < 2 || o.Servers < 2 || o.Waves < 1 {
		return nil, fmt.Errorf("soak needs at least 2 devices, 2 servers and 1 wave, got %d, %d and %d", o.Devices, o.Servers, o.Waves)
	}
	s = fleetScale(s)
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
	r := newFleetRig(s, rigSpec{
		store: remote.NewStore(inj.WrapStore(remote.NewMemStore())),
		tune:  remote.Profile("mem"),
		cluster: remote.ClusterConfig{
			Servers:  o.Servers,
			WrapConn: inj.WrapConn,
		},
		detect: true,
	})
	defer r.close()
	store, cluster := r.store, r.cluster

	devs := make([]*soakDevice, o.Devices)
	for i := range devs {
		d, err := r.device(uint64(i+1), true)
		if err != nil {
			return nil, fmt.Errorf("soak setup device %d: %w", i+1, err)
		}
		gen, _ := r.generator(d, i, int64(4000+i))
		devs[i] = &soakDevice{rigDevice: d, gen: gen, attackedAt: ^uint64(0)}
	}
	ids := make([]uint64, o.Devices)
	for i := range ids {
		ids[i] = uint64(i + 1)
	}
	// nextDrop is the retention cursor per device: the next segment index
	// the tick considers. Only the tick moves it.
	nextDrop := make([]int, o.Devices)

	opsPerWave := s.TraceOps / (o.Devices * o.Waves)
	if opsPerWave < 60 {
		opsPerWave = 60
	}

	res := &SoakResult{Seed: o.Seed, Devices: o.Devices, Servers: o.Servers,
		Waves: o.Waves, Short: o.Short, Violations: []string{}, GateFailures: []string{}}
	var pool poolMark
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
		// tick (the last index, started after every device) all genuinely
		// concurrent — attacks land mid-restore and mid-expiry because
		// nothing serializes them.
		err := spawn(len(devs)+1, func(i int) error {
			if i == len(devs) {
				wave.Drops = soakRetentionTick(store, nextDrop)
				return nil
			}
			switch sd := devs[i]; {
			case doRestore && i == restoreIdx:
				return sd.powerCycleRestore(r, inj)
			case i == attackIdx:
				return sd.attackWave(s, inj, atkName, opsPerWave, w)
			default:
				return sd.replay(inj, opsPerWave)
			}
		})
		if err != nil {
			return res, fmt.Errorf("soak wave %d (reproduce with -exp soak -seed %d): %w", w, o.Seed, err)
		}
		if doRestore {
			wave.Resumes = devs[restoreIdx].resumes
		}

		// Quiesce: every device drains its offload pipeline healthy —
		// this is where most pending faults heal (and the proof none
		// wedged the pipeline).
		if err := spawn(len(devs), func(i int) error { return devs[i].flushHealthy(inj) }); err != nil {
			return res, fmt.Errorf("soak wave %d quiesce (reproduce with -exp soak -seed %d): %w", w, o.Seed, err)
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
			pool = r.markPool()
			runtime.GC()
			var m runtime.MemStats
			runtime.ReadMemStats(&m)
			heapBase = m.HeapAlloc
			storeBase = storeFootprint(store, ids)
		} else {
			iv.PoolSteady(pool.gauge, r.held()-pool.held)
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
		a := r.audit(sd.id, sd.dev)
		res.EntriesLost += a.entriesLost
		res.SegmentsLost += a.segmentsLost
		caught, _, falseAlerts := r.verdict(sd.id, sd.attackedAt)
		res.FalseAlerts += falseAlerts
		if sd.attackedAt != ^uint64(0) {
			res.AttackedDevices++
			if caught {
				res.AttacksCaught++
			}
		}
	}
	res.AttacksLaunched = o.Waves
	for _, n := range nextDrop {
		res.RetentionDrops += n
	}
	res.Handoffs = int(r.handoffs.Load())

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

	res.BufpoolDelta = r.poolDrift(pool)
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
	var v verdicts
	v.check(res.FaultsInjected >= minFaults, "only %d faults injected, want >= %d", res.FaultsInjected, minFaults)
	v.check(res.FaultClasses >= 3, "only %d fault classes fired, want >= 3", res.FaultClasses)
	v.check(res.EntriesLost == 0, "%d acked entries lost", res.EntriesLost)
	v.check(res.SegmentsLost == 0, "%d acked segments lost", res.SegmentsLost)
	v.check(res.WedgedFaults == 0, "%d faults wedged (never healed)", res.WedgedFaults)
	v.check(len(res.Violations) == 0, "%d invariant violations: %s", len(res.Violations), strings.Join(res.Violations, "; "))
	v.check(res.HealP99MsMax <= horizonMs, "heal-latency p99 %.1f ms exceeds the %.0f ms simulated horizon", res.HealP99MsMax, horizonMs)
	v.check(res.BufpoolDelta == 0, "bufpool outstanding-buffer gauge drifted %+d off baseline", res.BufpoolDelta)
	v.check(res.HeapDeltaMB <= 3*res.StoreGrowthMB+64,
		"heap grew %.1f MB against %.1f MB of store growth", res.HeapDeltaMB, res.StoreGrowthMB)
	v.check(res.ChainsVerified > 0, "no chains verified")
	v.check(res.InvariantChecks > 0, "no invariant checks ran")
	v.check(res.Restores > 0, "no mid-soak restore ran")
	v.check(res.AttacksCaught == res.AttackedDevices, "caught %d of %d attacked devices", res.AttacksCaught, res.AttackedDevices)
	v.check(res.FalseAlerts == 0, "%d false alerts", res.FalseAlerts)
	res.GateFailures = append(res.GateFailures, v...)
	return res, v.err("soak (reproduce with -exp soak -seed %d)", o.Seed)
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
	_, _, err := replay(sd.dev, sd.gen, ops, replayOpts{off: sd.off, each: func(_ workload.Record, _, done simclock.Time) {
		sd.end = simclock.Max(sd.end, done)
		sd.records++
		if sd.records%8 == 0 {
			inj.Observe(sd.id, sd.end, sd.dev.LastOffloadError() == nil)
		}
	}})
	return err
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
func (sd *soakDevice) powerCycleRestore(r *fleetRig, inj *chaos.Injector) error {
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
	sd.close()

	// Reopen's fetches and the restore stream both ride out injected cuts
	// by redialing.
	rd, err := r.restore(sd.id, nand, cut, want, sd.end+simclock.Time(soakOutage),
		restoreOpts{dedup: true, nic: true})
	if err != nil {
		return fmt.Errorf("mid-soak restore: %w", err)
	}
	// A fresh host view over the restored device; its clock resumes where
	// the device's timeline is.
	sd.rigDevice = rd.rigDevice
	sd.end = simclock.Max(sd.end, rd.at)
	sd.fs.Clock().AdvanceTo(sd.end)
	sd.restores++
	sd.resumes += rd.rep.Resumes
	if !rd.verified {
		return fmt.Errorf("restored image diverged from the pre-cycle content")
	}
	inj.Observe(sd.id, sd.end, sd.dev.LastOffloadError() == nil)
	return nil
}

// soakRetentionTick is the minimal retention pass: for each device,
// consider the oldest undropped segment (device i+1's is nextDrop[i]); when
// every retained page in it has a newer version in the store (fully
// superseded), expire its pages via DropSegmentPages. The evidence chain is
// never touched, and the newest version of every page always survives —
// which is why expiry is safe to run concurrently with a restore at the
// head.
func soakRetentionTick(store *remote.Store, nextDrop []int) int {
	drops := 0
	for d, i := range nextDrop {
		id := uint64(d + 1)
		if i >= store.DeviceStats(id).Segments {
			continue
		}
		seg, err := store.FetchSegment(id, i)
		if err != nil {
			// A chaos tier fault on the segment read: retry once — the
			// first-touch fault has been consumed, the retry heals.
			if seg, err = store.FetchSegment(id, i); err != nil {
				continue
			}
		}
		if len(seg.Pages) == 0 {
			nextDrop[d]++ // nothing retained; nothing to expire
			continue
		}
		superseded := true
		for p := range seg.Pages {
			v, ok := store.Version(id, seg.Pages[p].LPN, ^uint64(0))
			if !ok || v.WriteSeq <= seg.Pages[p].WriteSeq {
				superseded = false
				break
			}
		}
		if !superseded {
			continue // not expired yet; reconsider next wave
		}
		if err := store.DropSegmentPages(id, i); err != nil {
			continue
		}
		nextDrop[d]++
		drops++
	}
	return drops
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
