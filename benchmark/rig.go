package main

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/ftl"
	"repro/internal/host"
	"repro/internal/nand"
	"repro/internal/netsim"
	"repro/internal/nvme"
	"repro/internal/oplog"
	"repro/internal/remote"
	"repro/internal/simclock"
)

const pageSize = 4096

var psk = []byte("rssd-benchmark-psk-0123456789abcd")

// The seams. Each wraps an interface the program already takes, so the
// harness can time calls into a layer (traced run) or slow them down
// (-plant) without touching the program. An untraced, unplanted run
// installs none of them.

// seams carries what the wrappers need: where spans go (nil: no spans) and
// how long each seam busy-waits per unit of work (zero: not at all).
type seams struct {
	tr    *tracer
	plant plants
	acc   seamAcc
	// on is set only inside a timed phase: set-up and verification cross the
	// seams untimed, unplanted and unrecorded.
	on atomic.Bool
}

func (s *seams) active() bool { return s.tr != nil || s.plant.any() }

// live reports whether a wrapper should time, plant and record this call.
func (s *seams) live() bool { return s.on.Load() && s.active() }

func busyWait(d time.Duration) {
	for start := time.Now(); time.Since(start) < d; {
	}
}

// plants is the -plant setting: busy-wait per unit at each seam.
type plants struct {
	dev       time.Duration // BlockDevice: per page submitted
	conn      time.Duration // conn: per KiB a device writes
	store     time.Duration // ObjectStore: per Put
	subscribe time.Duration // Subscribe: per log entry observed
}

func (p plants) any() bool { return p.dev+p.conn+p.store+p.subscribe > 0 }

// seamAcc sums what the wrappers see over one round. Wrappers run on the
// host goroutines, the transfer goroutine and the server's workers at once,
// hence atomics.
type seamAcc struct {
	devCalls, devPages, devNanos   atomic.Int64
	putCalls, putBytes, putNanos   atomic.Int64
	obsCalls, obsEntries, obsNanos atomic.Int64
	conn                           [numRoles]connAcc
}

type connAcc struct {
	writes, writeBytes, writeNanos atomic.Int64
	reads, readBytes, readNanos    atomic.Int64
}

// connRole says what a session is for, so the conn seam can attribute its
// bytes and waits to the phase that opened it.
type connRole int

const (
	roleOffload connRole = iota
	roleIngest
	roleForensic
	roleRestore
	roleServer // the server end of any session
	numRoles
)

// Span names per role, spelled out so that a conn call allocates nothing.
var (
	connWriteSpan = [numRoles]string{"conn.write.offload", "conn.write.ingest", "conn.write.forensic", "conn.write.restore", "conn.write.server"}
	connReadSpan  = [numRoles]string{"conn.read.offload", "conn.read.ingest", "conn.read.forensic", "conn.read.restore", "conn.read.server"}
)

// devSeam wraps the device under the host side: every page the trace loop,
// the NVMe front or the replay of recorded file requests submits crosses it.
type devSeam struct {
	dev *core.RSSD
	s   *seams
	ht  *hostTrack
}

func (d *devSeam) SubmitBatch(ops []batch.Op, at simclock.Time) ([]batch.Result, simclock.Time, error) {
	if !d.s.live() {
		return d.dev.SubmitBatch(ops, at)
	}
	d.ht.begin("core.submit")
	busyWait(time.Duration(len(ops)) * d.s.plant.dev)
	res, done, err := d.dev.SubmitBatch(ops, at)
	ns := d.ht.end(int64(len(ops)))
	d.s.acc.devCalls.Add(1)
	d.s.acc.devPages.Add(int64(len(ops)))
	d.s.acc.devNanos.Add(ns)
	return res, done, err
}

// one is a per-op call as a one-element batch, the way core.RSSD serves its
// own per-op methods.
func (d *devSeam) one(op batch.Op, at simclock.Time) (batch.Result, simclock.Time, error) {
	res, done, err := batch.SubmitOne(d, op, at)
	if err == nil {
		err = res.Err
	}
	return res, done, err
}

func (d *devSeam) Write(lpn uint64, data []byte, at simclock.Time) (simclock.Time, error) {
	_, done, err := d.one(batch.Op{Kind: batch.OpWrite, LPN: lpn, Data: data}, at)
	return done, err
}

func (d *devSeam) Read(lpn uint64, at simclock.Time) ([]byte, simclock.Time, error) {
	res, done, err := d.one(batch.Op{Kind: batch.OpRead, LPN: lpn}, at)
	return res.Data, done, err
}

func (d *devSeam) Trim(lpn uint64, at simclock.Time) (simclock.Time, error) {
	_, done, err := d.one(batch.Op{Kind: batch.OpTrim, LPN: lpn}, at)
	return done, err
}

func (d *devSeam) PageSize() int        { return d.dev.PageSize() }
func (d *devSeam) LogicalPages() uint64 { return d.dev.LogicalPages() }

// connSeam wraps one end of a session's pipe.
type connSeam struct {
	net.Conn
	s    *seams
	role connRole
	dev  int
}

func (c *connSeam) Write(p []byte) (int, error) {
	if !c.s.live() {
		return c.Conn.Write(p)
	}
	t0 := time.Now()
	if c.role != roleServer {
		busyWait(c.s.plant.conn * time.Duration(len(p)) / 1024)
	}
	n, err := c.Conn.Write(p)
	t1 := time.Now()
	a := &c.s.acc.conn[c.role]
	a.writes.Add(1)
	a.writeBytes.Add(int64(n))
	a.writeNanos.Add(int64(t1.Sub(t0)))
	c.s.tr.add(connWriteSpan[c.role], c.dev, int64(n), 0, t0, t1)
	return n, err
}

func (c *connSeam) Read(p []byte) (int, error) {
	if !c.s.live() {
		return c.Conn.Read(p)
	}
	t0 := time.Now()
	n, err := c.Conn.Read(p)
	t1 := time.Now()
	a := &c.s.acc.conn[c.role]
	a.reads.Add(1)
	a.readBytes.Add(int64(n))
	a.readNanos.Add(int64(t1.Sub(t0)))
	c.s.tr.add(connReadSpan[c.role], c.dev, int64(n), 0, t0, t1)
	return n, err
}

// storeSeam wraps the storage tier under the server's store. It is the one
// seam every run installs: phase B re-pushes the blobs it saw, in arrival
// order. (The store's own keys cannot be listed for that: a segment that
// carries pages but no entries is stored under the key of the segment
// before it. See the README's leads.)
type storeSeam struct {
	remote.ObjectStore
	s    *seams
	mu   sync.Mutex
	puts []storedBlob
}

// bytes is how much blob payload the seam holds.
func (o *storeSeam) bytes() uint64 {
	var n uint64
	for _, p := range o.puts {
		n += uint64(len(p.data))
	}
	return n
}

// storedBlob is one Put. data is the frame payload the server persisted; the
// server never writes to it again, so it is kept without a copy.
type storedBlob struct {
	key  string
	data []byte
}

func (o *storeSeam) Put(key string, data []byte) error {
	o.mu.Lock()
	o.puts = append(o.puts, storedBlob{key, data})
	o.mu.Unlock()
	if !o.s.live() {
		return o.ObjectStore.Put(key, data)
	}
	t0 := time.Now()
	busyWait(o.s.plant.store)
	err := o.ObjectStore.Put(key, data)
	t1 := time.Now()
	o.s.acc.putCalls.Add(1)
	o.s.acc.putBytes.Add(int64(len(data)))
	o.s.acc.putNanos.Add(int64(t1.Sub(t0)))
	o.s.tr.add("remote.put", 0, int64(len(data)), 0, t0, t1)
	return err
}

// device is one RSSD of the rig with its host-side stack.
type device struct {
	idx      int
	id       uint64
	cfg      core.Config
	dev      *core.RSSD // nil once an attacked device is powered off
	nandDev  *nand.Device
	client   *remote.Client
	front    host.BatchDevice // what the host stack submits to: dev, or its seam
	clock    *simclock.Clock  // the host's simulated time
	mq       *nvme.MultiQueue
	ht       *hostTrack
	in       *deviceInputs
	attacked bool

	// Filled by phase A.
	lat         []int64 // modeled latency per host request, ns
	cut         uint64  // log sequence at the pre-attack cut, where the attack starts
	attackEnd   uint64  // log sequence after the attack's last operation
	alertSeq    uint64  // entry that raised the alert (0: attack missed)
	falseAlerts int
	endSim      simclock.Time // simulated time when the device was durable

	statsBase, statsA core.Stats
	ftlBase, ftlA     ftl.Stats
	nandBase, nandA   nand.Stats
}

// rig is the system under test for one round.
type rig struct {
	sp     *spec
	s      *seams
	blobs  *storeSeam
	store  *remote.Store
	srv    *remote.Server
	engine *detect.Engine
	nic    *netsim.Arbiter
	link   *remote.RecoveryLink
	devs   []*device

	driverWallNs int64 // phase A wall summed over its host goroutines
}

// dial opens one session to srv over an in-process pipe, through the conn
// seam when it is installed.
func (s *seams) dial(srv *remote.Server, dev int, id uint64, role connRole) (*remote.Client, error) {
	dc, sc := net.Pipe()
	var devEnd, srvEnd net.Conn = dc, sc
	if s.active() {
		devEnd = &connSeam{Conn: dc, s: s, role: role, dev: dev}
		srvEnd = &connSeam{Conn: sc, s: s, role: roleServer, dev: dev}
	}
	go srv.HandleConn(srvEnd)
	c, err := remote.Dial(devEnd, psk, id)
	if err != nil {
		devEnd.Close()
	}
	return c, err
}

// newServer builds a store, its detector and a server. The detector hangs
// off Store.Subscribe exactly as detect.Engine.Attach wires it; with seams
// on, the closure is timed.
func (s *seams) newServer() (*storeSeam, *remote.Store, *remote.Server, *detect.Engine) {
	blobs := &storeSeam{ObjectStore: remote.NewMemStore(), s: s}
	store := remote.NewStore(blobs)
	dcfg := detect.DefaultConfig()
	dcfg.PageSize = pageSize
	engine := detect.NewEngine(dcfg)
	if s.active() {
		store.Subscribe(func(deviceID uint64, seg *oplog.Segment) {
			if !s.live() {
				engine.Observe(deviceID, seg.Entries)
				return
			}
			t0 := time.Now()
			busyWait(time.Duration(len(seg.Entries)) * s.plant.subscribe)
			engine.Observe(deviceID, seg.Entries)
			t1 := time.Now()
			s.acc.obsCalls.Add(1)
			s.acc.obsEntries.Add(int64(len(seg.Entries)))
			s.acc.obsNanos.Add(int64(t1.Sub(t0)))
			s.tr.add("detect.observe", int(deviceID)-1, int64(len(seg.Entries)), 0, t0, t1)
		})
	} else {
		engine.Attach(store)
	}
	return blobs, store, remote.NewServer(store, psk), engine
}

func (sp *spec) ftlConfig() ftl.Config {
	return ftl.Config{
		NAND: nand.Config{
			Geometry: nand.Geometry{
				Channels: 4, ChipsPerChannel: 2, DiesPerChip: 1, PlanesPerDie: 1,
				BlocksPerPlane: sp.blocksPerPlane, PagesPerBlock: 32, PageSize: pageSize,
			},
			Timing: nand.DefaultTiming(),
		},
		OverProvision: 0.125,
		GCLowWater:    3,
		GCHighWater:   6,
	}
}

// logicalPages is the host-visible capacity the FTL derives from the
// geometry: whole blocks, 12.5 % held back.
func (sp *spec) logicalPages() uint64 {
	blocks := 8 * sp.blocksPerPlane
	return uint64(int(float64(blocks)*(1-0.125))) * 32
}

// buildRig wires a fresh system and brings every device to the start line:
// flash preconditioned, corpus on disk, everything durable at the server,
// sessions and NIC flows open.
func buildRig(sp *spec, s *seams, inputs []*deviceInputs) (*rig, error) {
	r := &rig{sp: sp, s: s}
	r.blobs, r.store, r.srv, r.engine = s.newServer()
	r.nic = netsim.New(netsim.Config{})
	r.srv.NIC = r.nic
	r.link = remote.NewRecoveryLinkOn(r.nic)
	for i, in := range inputs {
		d := &device{idx: i, id: uint64(i + 1), in: in, attacked: in.attack != nil}
		d.cfg = core.DefaultConfig()
		d.cfg.FTL = sp.ftlConfig()
		d.cfg.DeviceID = d.id
		d.cfg.NIC = r.nic
		d.cfg.Dial = func() (*remote.Client, error) { return s.dial(r.srv, d.idx, d.id, roleOffload) }
		var err error
		if d.client, err = d.cfg.Dial(); err != nil {
			return nil, fmt.Errorf("device %d dial: %w", d.id, err)
		}
		d.dev = core.New(d.cfg, d.client)
		d.nandDev = d.dev.FTL().Device()
		d.front = d.dev
		if s.active() {
			d.ht = &hostTrack{tr: s.tr, dev: i}
			d.front = &devSeam{dev: d.dev, s: s, ht: d.ht}
		}
		if got := d.dev.LogicalPages(); got != sp.logicalPages() || uint64(sp.fsBase+sp.fsPages) > got {
			return nil, fmt.Errorf("spec %s: device has %d logical pages, spec assumes %d with the filesystem ending at %d",
				sp.name, got, sp.logicalPages(), sp.fsBase+sp.fsPages)
		}
		d.clock = simclock.NewClock()
		if sp.front == frontNVMe {
			d.mq = nvme.NewController(d.front).MultiQueue(nvmeQueues, 64)
		}
		r.devs = append(r.devs, d)
	}

	// Precondition on as many goroutines as phase A will use, then hold
	// everyone at the start line.
	err := r.eachDriver(func(d *device) error {
		at := simclock.Time(0)
		for off := 0; off < len(d.in.precond); off += 64 {
			end := min(off+64, len(d.in.precond))
			_, done, err := d.dev.SubmitBatch(d.in.precond[off:end], at)
			if err != nil {
				return fmt.Errorf("device %d precondition: %w", d.id, err)
			}
			at = done
		}
		d.clock.AdvanceTo(at)
		if err := d.replay(d.in.corpus); err != nil {
			return fmt.Errorf("device %d corpus: %w", d.id, err)
		}
		if _, err := d.dev.OffloadNow(d.clock.Now()); err != nil {
			return fmt.Errorf("device %d set-up offload: %w", d.id, err)
		}
		return nil
	})
	return r, err
}

// perDriver runs fn once per host goroutine with the devices that goroutine
// owns: device i belongs to driver i mod drivers, in index order.
func (r *rig) perDriver(fn func(w int, devs []*device) error) error {
	n := r.sp.drivers()
	errs := make([]error, n)
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		var mine []*device
		for i := w; i < len(r.devs); i += n {
			mine = append(mine, r.devs[i])
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = fn(w, mine)
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// eachDriver runs fn over every device, on the driver that owns it.
func (r *rig) eachDriver(fn func(d *device) error) error {
	return r.perDriver(func(_ int, devs []*device) error {
		for _, d := range devs {
			if err := fn(d); err != nil {
				return err
			}
		}
		return nil
	})
}

// close retires the round's system: devices, sessions, then the server's
// remaining sessions.
func (r *rig) close() {
	for _, d := range r.devs {
		if d.dev != nil {
			d.dev.Close()
		}
		if d.client != nil {
			d.client.Close()
		}
	}
	r.srv.Close()
}
