package experiment

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/attack"
	"repro/internal/bufpool"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/host"
	"repro/internal/nand"
	"repro/internal/nvmeoe"
	"repro/internal/oplog"
	"repro/internal/remote"
	"repro/internal/simclock"
	"repro/internal/workload"
)

// The fleet rig is the one stack every RSSD experiment runs on, and the
// one place in this package that builds, reopens or restores a device. It
// owns:
//
//   - the stack: a store, a remote.Cluster of ingest servers over it and,
//     when asked, one detection engine per server, fed the segments of the
//     devices that server owns and handed a device's window state when
//     failover or rebalancing moves it;
//   - the device: the dial, its core.Config, core.New and a filesystem,
//     and the power-on restore — core.Reopen, the streamed RestoreImage
//     charged to the owner's NIC (optionally choked mid-stream), and the
//     page-identical check;
//   - the shared steps: the concurrent spawn and the odd-index attack
//     assignment, the detection verdict across engines, the durability
//     audit and the pool-residency gate (the trace replay loop is
//     replay.go's);
//   - cleanup: close retires every device it built, then the servers.
//
// A single-server experiment is a one-server cluster: Cluster.Dial is a
// loopback plus placement bookkeeping, and a server's NIC is read only by
// the device configs and restore links built here.

// PSK is the enrollment key used by every experiment device.
var PSK = []byte("rssd-experiment-psk-0123456789ab")

// rigSpec is what an experiment chooses about its stack. The zero value is
// one server over an in-memory store, core's default watermarks and no
// detection.
type rigSpec struct {
	store *remote.Store // nil: an in-memory store
	// tune is the store tier's device profile; zero keeps core's defaults.
	// A profile's watermarks sit well below the solo-device defaults: a
	// device backing a shared server keeps its retention backlog small,
	// which also keeps the offload pipeline continuously busy, and a
	// high-latency tier stages deeper so its long acks stay hidden behind
	// host I/O.
	tune remote.BackendProfile
	// cluster sizes the ingest tier — servers, decode workers, skew
	// thresholds, the fault hook. The rig supplies the PSK.
	cluster remote.ClusterConfig
	detect  bool // one detection engine per server
}

type fleetRig struct {
	s        Scale
	tune     remote.BackendProfile
	store    *remote.Store
	cluster  *remote.Cluster
	engines  []*detect.Engine
	handoffs atomic.Int64

	mu    sync.Mutex
	built []*rigDevice // every device built, for close and the pool gate

	// chokedHandlers are the server sides of choked restore sessions, which
	// hold a chunk's pooled buffers until their write fails on the cut link.
	chokedHandlers sync.WaitGroup
}

func newFleetRig(s Scale, spec rigSpec) *fleetRig {
	store := spec.store
	if store == nil {
		store = remote.NewStore(remote.NewMemStore())
	}
	cc := spec.cluster
	cc.PSK = PSK
	r := &fleetRig{s: s, tune: spec.tune, store: store, cluster: remote.NewCluster(store, cc)}
	if !spec.detect {
		return r
	}
	r.engines = make([]*detect.Engine, max(cc.Servers, 1))
	for i := range r.engines {
		r.engines[i] = detect.NewEngine(detectConfig(s))
	}
	// Segments route to the current owner's engine, and OnMove hands the
	// device's window state over before routing can observe the new owner
	// (cluster lock ordering).
	n := len(r.engines)
	r.cluster.OnMove = func(dev uint64, from, to int) {
		if from >= 0 && from < n && to >= 0 && to < n {
			r.engines[from].Handoff(dev, r.engines[to])
			r.handoffs.Add(1)
		}
	}
	store.Subscribe(func(dev uint64, seg *oplog.Segment) {
		owner, ok := r.cluster.Owner(dev)
		if !ok || owner < 0 || owner >= n {
			owner = 0
		}
		r.engines[owner].Observe(dev, seg.Entries)
	})
	return r
}

// close retires every device the rig built, then drains the servers.
func (r *fleetRig) close() {
	r.mu.Lock()
	built := r.built
	r.mu.Unlock()
	for _, d := range built {
		d.close()
	}
	r.cluster.Close()
}

// rigDevice is one device the rig built: the RSSD, the session it was
// built on, and a filesystem over it.
type rigDevice struct {
	id     uint64
	dev    *core.RSSD
	client *remote.Client
	fs     *host.FlatFS
}

// close retires the device and its session; a second close does nothing.
func (d *rigDevice) close() {
	d.dev.Close()
	d.client.Close()
}

func (r *fleetRig) track(id uint64, dev *core.RSSD, client *remote.Client) *rigDevice {
	d := &rigDevice{id: id, dev: dev, client: client, fs: host.NewFlatFS(dev, simclock.NewClock())}
	r.mu.Lock()
	r.built = append(r.built, d)
	r.mu.Unlock()
	return d
}

// config is device id's core.Config: the experiment FTL, the cluster's dial
// factory (so a dead session heals through core's redial path), the tier
// profile's watermarks and staging depth and, with nic, offload charged to
// the owner's NIC instead of a private link.
func (r *fleetRig) config(id uint64, nic bool) core.Config {
	cfg := core.DefaultConfig()
	cfg.FTL = r.s.ftlConfig()
	cfg.DeviceID = id
	cfg.Dial = r.cluster.DialFunc(id)
	if t := r.tune; t.OffloadQueueDepth > 0 {
		cfg.OffloadHighWater, cfg.OffloadLowWater, cfg.OffloadQueueDepth =
			t.OffloadHighWater, t.OffloadLowWater, t.OffloadQueueDepth
	}
	if nic {
		cfg.NIC = r.owner(id).NIC
	}
	return cfg
}

// owner is the server device id is placed on (server 0 before its first
// dial).
func (r *fleetRig) owner(id uint64) *remote.Server {
	owner, _ := r.cluster.Owner(id)
	return r.cluster.Server(owner)
}

// device dials device id through the cluster and builds it.
func (r *fleetRig) device(id uint64, nic bool) (*rigDevice, error) {
	client, err := r.cluster.Dial(id)
	if err != nil {
		return nil, err
	}
	return r.track(id, core.New(r.config(id, nic), client), client), nil
}

// restoreOpts shapes one power-on restore.
type restoreOpts struct {
	// chunkPages bounds pages per streamed chunk; 0 sizes chunks to the
	// NIC grant quantum for the device's page size.
	chunkPages int
	// dedup streams the content-addressed way — hash-reference chunks over
	// a checkpoint-anchored delta — instead of every page literal.
	dedup bool
	nic   bool // the reopened device offloads on its owner's NIC too
	// choke kills the first restore session mid-stream, so the restorer
	// must resume (not restart) on a fresh one.
	choke bool
	// gate runs once, after the first restore session dials — inside the
	// restore's link bracket. A fleet passes a barrier here so every device
	// is provably mid-restore at once.
	gate func()
}

// restored is a powered-on device and its restore.
type restored struct {
	*rigDevice
	at       simclock.Time
	rep      core.RestoreReport
	verified bool // every wanted page read back identical
}

// restore powers device id back on over its surviving flash nd: Reopen on
// a fresh session, the streamed image at cut charged to the owner's NIC,
// then a page-identical check against want.
func (r *fleetRig) restore(id uint64, nd *nand.Device, cut uint64, want map[uint64][]byte,
	endAt simclock.Time, o restoreOpts) (*restored, error) {
	cfg := r.config(id, o.nic)
	link := remote.NewRecoveryLinkOn(r.owner(id).NIC)
	client, err := r.cluster.Dial(id)
	if err != nil {
		return nil, err
	}
	dev, err := core.Reopen(cfg, nd, client)
	if err != nil {
		client.Close()
		return nil, fmt.Errorf("reopen: %w", err)
	}
	d := r.track(id, dev, client)
	fail := func(err error) (*restored, error) {
		d.close()
		return nil, err
	}

	dial := cfg.Dial
	if o.choke {
		dials := 0
		dial = func() (*remote.Client, error) {
			if dials++; dials > 1 {
				return cfg.Dial()
			}
			dc, sc := net.Pipe()
			r.chokedHandlers.Add(1)
			go func() {
				defer r.chokedHandlers.Done()
				r.owner(id).HandleConn(sc)
			}()
			// Handshake (2 reads) + one 3-read chunk frame: the link dies
			// with the first chunk applied and the rest unsent.
			return remote.Dial(remote.NewChokeConn(dc, 5), PSK, id)
		}
	}
	if gate := o.gate; gate != nil {
		inner, fired := dial, false
		dial = func() (*remote.Client, error) {
			c, err := inner()
			if err == nil && !fired {
				fired = true
				gate()
			}
			return c, err
		}
	}
	chunkPages := o.chunkPages
	if chunkPages == 0 {
		chunkPages = int(nvmeoe.ChunkPagesForQuantum(dev.FTL().PageSize()))
	}
	at, rep, err := dev.RestoreImage(cut, core.RestoreOptions{
		Dial: dial, Link: link, ChunkPages: chunkPages, Dedup: o.dedup, Delta: o.dedup,
	}, endAt)
	if err != nil {
		return fail(fmt.Errorf("restore: %w", err))
	}
	if o.choke && rep.Resumes == 0 {
		return fail(fmt.Errorf("choked device restored without a resume (disconnect not exercised)"))
	}
	d.fs.Clock().AdvanceTo(at)
	res := &restored{rigDevice: d, at: at, rep: rep, verified: true}
	for lpn, w := range want {
		got, _, err := dev.Read(lpn, at)
		if err != nil {
			return fail(fmt.Errorf("verify read lpn %d: %w", lpn, err))
		}
		if !bytes.Equal(got, w) {
			res.verified = false
			break
		}
	}
	return res, nil
}

// generator is fleet index idx's benign workload — the fleet profiles
// cycle across the fleet — over d's logical space, and its profile name.
func (r *fleetRig) generator(d *rigDevice, idx int, seed int64) (*workload.Generator, string) {
	name := fleetProfiles[idx%len(fleetProfiles)]
	prof, _ := workload.ProfileByName(name)
	return workload.NewGenerator(prof, r.s.PageSize, d.dev.LogicalPages(), seed), name
}

// spawn runs fn for fleet indexes 0..n-1 concurrently and returns the
// lowest failing index's error.
func spawn(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(i)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("device %d: %w", i+1, err)
		}
	}
	return nil
}

// fleetAttack is fleet index i's ransomware: every odd index runs the next
// of fleetAttacks in turn, every even one none.
func fleetAttack(i int) attack.Attack {
	if i%2 == 0 {
		return nil
	}
	return makeAttack(fleetAttacks[(i/2)%len(fleetAttacks)])
}

// verdict reads device id's alerts across every engine (failover and
// rebalancing split a history between them): caught when an alert lands at
// or past from, ops the earliest such alert's distance from it, and every
// alert before from a false one.
func (r *fleetRig) verdict(id, from uint64) (caught bool, ops uint64, falseAlerts int) {
	for _, e := range r.engines {
		for _, a := range e.AlertsFor(id) {
			switch {
			case a.AtSeq < from:
				falseAlerts++
			case !caught || a.AtSeq-from < ops:
				caught, ops = true, a.AtSeq-from
			}
		}
	}
	return caught, ops, falseAlerts
}

// durability is one device's audit against the shared store.
type durability struct {
	entriesLost  uint64 // logged entries past the store's head
	segmentsLost int    // acked segments the store does not hold
	chainErr     error  // the stored chain, verified from genesis
}

// audit checks device id against the store: every entry dev logged is
// stored, every segment dev counts as acked is stored whole, and the chain
// verifies from genesis. A nil dev checks the chain alone.
func (r *fleetRig) audit(id uint64, dev *core.RSSD) durability {
	head := r.store.Head(id).NextSeq
	a := durability{chainErr: oplog.VerifyChain(r.store.Entries(id, 0, head), [oplog.HashSize]byte{})}
	if dev != nil {
		if logged := dev.Log().NextSeq(); head < logged {
			a.entriesLost = logged - head
		}
		if acked, stored := dev.Stats().OffloadSegments, uint64(r.store.DeviceStats(id).Segments); acked > stored {
			a.segmentsLost = int(acked - stored)
		}
	}
	return a
}

// poolMark is the bufpool outstanding-buffer gauge at one point of a run,
// beside what the rig's flash arrays held then.
type poolMark struct {
	gauge bufpool.Gauge
	held  int64
}

func (r *fleetRig) markPool() poolMark { return poolMark{bufpool.Outstanding(), r.held()} }

// poolDrift is how far the gauge moved since m beyond what the flash
// arrays' residency moved: nonzero only when a transient path leaked.
func (r *fleetRig) poolDrift(m poolMark) int64 {
	r.chokedHandlers.Wait()
	return bufpool.Outstanding().Sub(m.gauge).Total() - (r.held() - m.held)
}

// held sums the pooled page buffers the rig's flash arrays hold for
// programmed content — the one long-lived pool holder the gate nets out. A
// reopened device shares its predecessor's array, counted once.
func (r *fleetRig) held() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	seen := map[*nand.Device]bool{}
	var n int64
	for _, d := range r.built {
		if nd := d.dev.FTL().Device(); !seen[nd] {
			seen[nd] = true
			n += nd.HeldPageBufs()
		}
	}
	return n
}

// Rig is a fully wired RSSD device with host filesystem and remote server.
type Rig struct {
	FS     *host.FlatFS
	Dev    *core.RSSD
	Store  *remote.Store
	Client *remote.Client
}

// NewRSSDRig wires an RSSD to an in-process remote server and filesystem.
// The device dials its own restore sessions on the same server.
func NewRSSDRig(s Scale) (*Rig, error) {
	r := newFleetRig(s, rigSpec{})
	d, err := r.device(1, false)
	if err != nil {
		return nil, err
	}
	return &Rig{FS: d.fs, Dev: d.dev, Store: r.store, Client: d.client}, nil
}
