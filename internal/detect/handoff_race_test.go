package detect

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/ftl"
	"repro/internal/nvmeoe"
	"repro/internal/oplog"
	"repro/internal/remote"
	"repro/internal/simclock"
)

// These tests pin down the detection-handoff double-move contract under the
// control-plane concurrency that actually produces double moves: a server
// Kill and a RebalanceOnIngest deciding about the same device window at
// the same time. Two properties must hold whatever the interleaving:
//
//   - the alert latch never regresses: a device that alerted stays
//     latched at whichever engine ends up owning it, and the continuing
//     attack never produces a duplicate alert;
//   - stale moves lose: when a carried state arrives at an engine that
//     already holds live state for the device, the live state wins.

func raceCfg() Config { return Config{CumulativeVictims: 12} }

// holders reports which engines hold in-memory state for a device, and
// whether any of it is latched — the white-box ground truth the
// double-move contract is stated in.
func holders(engines []*Engine, dev uint64) (ids []int, latched int) {
	for i, e := range engines {
		sh := &e.shards[dev&(dirShards-1)]
		sh.mu.RLock()
		d, ok := sh.devices[dev]
		sh.mu.RUnlock()
		if !ok {
			continue
		}
		ids = append(ids, i)
		d.mu.Lock()
		if d.alerted {
			latched++
		}
		d.mu.Unlock()
	}
	return ids, latched
}

// TestHandoffDoubleMove drives the two double-move shapes directly.
func TestHandoffDoubleMove(t *testing.T) {
	cfg := raceCfg()

	// Stale move loses: the destination already has live state (the racy
	// segment-routing cold copy), so the carried latched copy is dropped
	// rather than clobbering state an Observe may hold mid-window.
	a, b := NewEngine(cfg), NewEngine(cfg)
	trace := handoffTrace(16)
	a.Observe(3, trace)
	if len(a.Alerts()) != 1 {
		t.Fatalf("alerts = %v", a.Alerts())
	}
	b.Observe(3, trace[:4]) // live cold state at the destination
	a.Handoff(3, b)
	if ids, _ := holders([]*Engine{a, b}, 3); len(ids) != 1 || ids[0] != 1 {
		t.Fatalf("state held by engines %v, want only the destination", ids)
	}
	if _, latched := holders([]*Engine{a, b}, 3); latched != 0 {
		t.Fatal("carried copy clobbered the destination's live state")
	}

	// Concurrent double move: failover and rebalance race to move the same
	// latched device. Whatever interleaving wins, the state must end whole
	// at exactly one engine with the latch intact.
	for round := 0; round < 200; round++ {
		x, y, z := NewEngine(cfg), NewEngine(cfg), NewEngine(cfg)
		x.Observe(5, trace)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); x.Handoff(5, y) }()
		go func() { defer wg.Done(); y.Handoff(5, z) }()
		wg.Wait()
		ids, latched := holders([]*Engine{x, y, z}, 5)
		if len(ids) != 1 || latched != 1 {
			t.Fatalf("round %d: state at engines %v (%d latched), want one latched holder", round, ids, latched)
		}
	}
}

// raceChain is one attacked device's wire traffic: an encryptor burst that
// latches the alert, then a continuation burst that must NOT re-alert. The
// continuation alone has the full cumulative-encryptor shape, so a cold
// engine WOULD fire on it — losing the latch is observable, not silent.
type raceChain struct {
	attack, probe         []byte
	attackLast, probeLast uint64
}

func buildRaceChain(dev uint64) raceChain {
	l := oplog.New()
	burst := func() ([]byte, uint64) {
		first := l.NextSeq()
		var es []oplog.Entry
		for i := 0; i < 16; i++ {
			es = append(es, l.Append(oplog.KindRead, simclock.Time(l.NextSeq()), uint64(i), ftl.NoPPN, 1, 0, [32]byte{}))
		}
		for i := 0; i < 16; i++ {
			es = append(es, l.Append(oplog.KindWrite, simclock.Time(l.NextSeq()), uint64(i), 1, 2, 7.9, [32]byte{}))
		}
		s := &oplog.Segment{DeviceID: dev, FirstSeq: first, LastSeq: l.NextSeq(), Entries: es}
		return nvmeoe.EncodeSegmentBlob(s.Marshal()), s.LastSeq
	}
	var c raceChain
	c.attack, c.attackLast = burst()
	c.probe, c.probeLast = burst()
	return c
}

// benignChain is storm cover traffic: n segments of low-entropy fresh
// writes that can never alert, pushed concurrently with the control-plane
// churn to keep Observe racing Handoff on live devices. A segment's chain
// hashes alone take a few KiB on the wire, so a server that takes more
// than its share of segments in a rebalance window is hot.
func benignChain(dev uint64, n int) (blobs [][]byte, lastSeqs []uint64) {
	l := oplog.New()
	for s := 0; s < n; s++ {
		first := l.NextSeq()
		var es []oplog.Entry
		for i := 0; i < 128; i++ {
			es = append(es, l.Append(oplog.KindWrite, simclock.Time(l.NextSeq()), uint64(100+i), ftl.NoPPN, 2, 2.0, [32]byte{}))
		}
		seg := &oplog.Segment{DeviceID: dev, FirstSeq: first, LastSeq: l.NextSeq(), Entries: es}
		blobs = append(blobs, nvmeoe.EncodeSegmentBlob(seg.Marshal()))
		lastSeqs = append(lastSeqs, seg.LastSeq)
	}
	return blobs, lastSeqs
}

// TestClusterKillRebalanceHandoffRace is the satellite's storm: a
// three-server cluster wired exactly like the fleet experiment (per-server
// engines, OnMove handoffs, owner-routed segment subscription) with three
// things racing — benign wire traffic, a kill/revive loop, and a
// RebalanceOnIngest loop. Attacked devices latch
// before the storm; after it settles, the continuing attack must route to
// the surviving owner's engine and hit a still-latched state.
func TestClusterKillRebalanceHandoffRace(t *testing.T) {
	const (
		servers       = 3
		attackedDevs  = 6
		benignDevs    = 12
		benignSegs    = 6
		killRounds    = 8
		rebalanceOps  = 40
		landWithin    = 10 * time.Second
		firstBenignID = 101
	)
	st := remote.NewStore(remote.NewMemStore())
	cluster := remote.NewCluster(st, remote.ClusterConfig{
		Servers: servers, PSK: psk,
	})
	defer cluster.Close()

	engines := make([]*Engine, servers)
	for i := range engines {
		engines[i] = NewEngine(raceCfg())
	}
	var handoffs sync.Map
	var handoffCount int
	var handoffMu sync.Mutex
	cluster.OnMove = func(dev uint64, from, to int) {
		engines[from].Handoff(dev, engines[to])
		handoffs.Store(dev, to)
		handoffMu.Lock()
		handoffCount++
		handoffMu.Unlock()
	}
	st.Subscribe(func(dev uint64, seg *oplog.Segment) {
		if owner, ok := cluster.Owner(dev); ok {
			engines[owner].Observe(dev, seg.Entries)
		}
	})

	// push delivers one blob through the cluster, redialing around kills;
	// Head() resync first, exactly like a device after session loss. The
	// bound is wall time, not attempts: a dial spins while a killed
	// server drains, for as long as the host takes to run the drain.
	push := func(cl **remote.Client, dev uint64, blob []byte, lastSeq uint64) bool {
		for deadline := time.Now().Add(landWithin); time.Now().Before(deadline); {
			if *cl == nil {
				c, err := cluster.Dial(dev)
				if err != nil {
					runtime.Gosched()
					continue
				}
				*cl = c
			}
			h, err := (*cl).Head()
			if err != nil {
				(*cl).Close()
				*cl = nil
				continue
			}
			if h.NextSeq >= lastSeq {
				return true // already durable before the session died
			}
			if _, err := (*cl).PushSegmentBlob(blob, lastSeq); err == nil {
				return true
			}
			(*cl).Close()
			*cl = nil
			runtime.Gosched()
		}
		return false
	}

	// Quiet phase: latch every attacked device at its current owner.
	chains := make([]raceChain, attackedDevs)
	for d := 0; d < attackedDevs; d++ {
		dev := uint64(d + 1)
		chains[d] = buildRaceChain(dev)
		var cl *remote.Client
		if !push(&cl, dev, chains[d].attack, chains[d].attackLast) {
			t.Fatalf("device %d: attack burst never landed", dev)
		}
		cl.Close()
		total := 0
		for _, e := range engines {
			total += len(e.AlertsFor(dev))
		}
		if total != 1 {
			t.Fatalf("device %d: %d alerts after attack burst, want 1", dev, total)
		}
	}

	// Storm: benign traffic, kills+revives, and rebalancing, all
	// concurrent. The attacked devices stay quiet so their state moves
	// only by Handoff — any latch loss below is the control plane's fault.
	var wg sync.WaitGroup
	for d := 0; d < benignDevs; d++ {
		dev := uint64(firstBenignID + d)
		blobs, lastSeqs := benignChain(dev, benignSegs)
		wg.Add(1)
		go func() {
			defer wg.Done()
			var cl *remote.Client
			defer func() {
				if cl != nil {
					cl.Close()
				}
			}()
			for i := range blobs {
				if !push(&cl, dev, blobs[i], lastSeqs[i]) {
					t.Errorf("device %d: benign segment %d never landed", dev, i)
					return
				}
			}
		}()
	}
	wg.Add(2)
	kills, revives, rbMoves := 0, 0, 0 // written by the two loops, read after Wait
	go func() {                        // failover loop
		defer wg.Done()
		for k := 0; k < killRounds; k++ {
			id := k % servers
			if _, err := cluster.Kill(id); err != nil {
				continue
			}
			kills++
			runtime.Gosched()
			if err := cluster.Revive(id); err != nil {
				t.Errorf("revive %d: %v", id, err)
				continue
			}
			revives++
		}
	}()
	go func() { // rebalance loop, racing the kills on the same windows
		defer wg.Done()
		for i := 0; i < rebalanceOps; i++ {
			rbMoves += len(cluster.RebalanceOnIngest())
			runtime.Gosched()
		}
	}()
	wg.Wait()

	if kills == 0 || revives == 0 {
		t.Fatalf("storm was becalmed: %d kills, %d revives", kills, revives)
	}
	handoffMu.Lock()
	hc := handoffCount
	handoffMu.Unlock()
	if hc == 0 {
		t.Fatal("no handoffs executed; the race never happened")
	}

	// Settle phase: the attack continues on every latched device. The
	// probe burst alone would fire a cold engine, so a lost or duplicated
	// latch shows up as a second alert.
	for d := 0; d < attackedDevs; d++ {
		dev := uint64(d + 1)
		var cl *remote.Client
		if !push(&cl, dev, chains[d].probe, chains[d].probeLast) {
			t.Fatalf("device %d: probe burst never landed", dev)
		}
		cl.Close()

		owner, ok := cluster.Owner(dev)
		if !ok {
			t.Fatalf("device %d lost its placement", dev)
		}
		ids, latched := holders(engines, dev)
		if len(ids) != 1 || ids[0] != owner {
			t.Errorf("device %d: state at engines %v, owner is %d — handoff chain broke", dev, ids, owner)
		}
		if latched != 1 {
			t.Errorf("device %d: alert latch regressed across %d handoffs", dev, hc)
		}
		total := 0
		for _, e := range engines {
			total += len(e.AlertsFor(dev))
		}
		if total != 1 {
			t.Errorf("device %d: %d alerts after the storm, want exactly 1", dev, total)
		}
	}
	t.Logf("storm: %d kills, %d revives, %d handoffs, %d rebalance moves", kills, revives, hc, rbMoves)
}
