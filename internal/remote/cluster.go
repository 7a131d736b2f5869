package remote

import (
	"fmt"
	"math"
	"net"
	"sort"
	"sync"

	"repro/internal/netsim"
)

// The fleet control plane: a Cluster fronts N ingest servers over one
// shared durable Store. The consistent-hash ring (placement.go) maps each
// device to a server; Dial is the placement-aware factory devices plug
// into core.Config.Dial, so the existing redial/backoff/reconcile path is
// the failover path — when a server dies, Kill drains it, the ring drops
// its arcs, its devices re-place onto live peers, and each device's next
// redial lands on the new owner, where the FetchHead reconcile adopts
// whatever was durable but unacked. The store is shared exactly so that
// works: chain verification at the new server continues from the same
// per-device head the old server left behind.
//
// Rebalancing under skew rides the same machinery in miniature: when the
// wire bytes one server accepts stay persistently above its peers',
// RebalanceOnIngest cuts its ring weight, re-places the devices whose arcs
// moved, and closes their sessions so they redial to the new owners.

// ClusterConfig sizes a cluster.
type ClusterConfig struct {
	// Servers is the ingest-server count (minimum 1).
	Servers int
	// PSK enrolls every device (single-tenant, like NewServer).
	PSK []byte

	// WrapConn, when set, wraps the device side of each dialed pipe —
	// the hook fault-injection tests use to choke a session mid-stream.
	WrapConn func(deviceID uint64, nc net.Conn) net.Conn
}

// The ingest-skew policy: a server is hot when the wire bytes it accepted
// in a rebalance window reach skewFactor× the median of its peers';
// windows below skewMinBytes are never hot, so an idle fleet never
// rebalances on noise. One hot window cuts the server's ring weight by
// weightStep percent, never below minWeight.
const (
	skewFactor   = 1.25
	skewMinBytes = 4 << 10
	weightStep   = 25
	minWeight    = 25
)

func (c *ClusterConfig) normalize() {
	if c.Servers < 1 {
		c.Servers = 1
	}
}

// ServerInfo is one server's control-plane row.
type ServerInfo struct {
	ID        int
	Alive     bool
	Weight    int
	Devices   int // devices currently placed here
	QueuePeak int // lifetime decode-backlog peak
	Sessions  uint64
	Ingest    IngestStats
}

type clusterNode struct {
	id     int
	srv    *Server
	alive  bool
	weight int
	// seenWire is the server's lifetime ingest BytesWire at the last skew
	// sample: the next window is what it accepted since.
	seenWire uint64
}

// takeWindow returns the wire bytes the node's server accepted since the
// previous call, and starts the next window.
func (n *clusterNode) takeWindow() uint64 {
	cur := n.srv.ingested.bytesWire.Load()
	w := cur - n.seenWire
	n.seenWire = cur
	return w
}

// Cluster is the multi-server control plane. Safe for concurrent use.
type Cluster struct {
	cfg       ClusterConfig
	ring      *Ring
	placement *Placement

	// OnMove, when set, is invoked once per device whose owner changed
	// (failover or rebalance), with the cluster lock held — so segment
	// routing via Owner cannot observe the new owner before the callback
	// completes. Used to hand per-device detection state between
	// per-server engines. Must not call back into the Cluster.
	OnMove func(deviceID uint64, from, to int)

	mu    sync.RWMutex
	nodes []*clusterNode
}

// NewCluster builds cfg.Servers ingest servers over the shared store.
func NewCluster(store *Store, cfg ClusterConfig) *Cluster {
	cfg.normalize()
	ring := NewRing()
	c := &Cluster{
		cfg:       cfg,
		ring:      ring,
		placement: NewPlacement(ring),
	}
	for i := 0; i < cfg.Servers; i++ {
		srv := NewServer(store, cfg.PSK)
		srv.NIC = netsim.New(netsim.Config{}) // servers have independent NICs
		c.nodes = append(c.nodes, &clusterNode{id: i, srv: srv, alive: true, weight: 100})
		ring.AddNode(i, 100)
	}
	return c
}

// Server returns one server by ID (nil when out of range) — for tests and
// per-server reporting.
func (c *Cluster) Server(id int) *Server {
	if id < 0 || id >= len(c.nodes) {
		return nil
	}
	return c.nodes[id].srv
}

// Owner returns the server currently responsible for a device. Detection
// routing reads this per segment; the lock ordering with OnMove (see
// there) guarantees a mover's state lands at the new engine before any
// segment routes there.
func (c *Cluster) Owner(deviceID uint64) (int, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.placement.Owner(deviceID)
}

// Servers returns every server's control-plane row, dead ones included.
func (c *Cluster) Servers() []ServerInfo {
	c.mu.RLock()
	defer c.mu.RUnlock()
	spread := c.placement.Spread()
	out := make([]ServerInfo, 0, len(c.nodes))
	for _, n := range c.nodes {
		out = append(out, ServerInfo{
			ID:        n.id,
			Alive:     n.alive,
			Weight:    n.weight,
			Devices:   spread[n.id],
			QueuePeak: n.srv.QueuePeak(),
			Sessions:  n.srv.SessionsTotal(),
			Ingest:    n.srv.IngestTotals(),
		})
	}
	return out
}

// Spread returns the live device counts per server ID.
func (c *Cluster) Spread() map[int]int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.placement.Spread()
}

// Dial is the placement-aware dial factory: it places (or re-places) the
// device on the ring, connects an in-process pipe to the owning server,
// and authenticates. Devices use it through core.Config.Dial, so a dead
// session — including one a Kill cut — heals through the ordinary
// redial/backoff path, landing on whatever server the ring now names.
func (c *Cluster) Dial(deviceID uint64) (*Client, error) {
	c.mu.Lock()
	node, ok := c.placement.Place(deviceID)
	var target *clusterNode
	if ok && node >= 0 && node < len(c.nodes) && c.nodes[node].alive {
		target = c.nodes[node]
	}
	c.mu.Unlock()
	if target == nil {
		return nil, fmt.Errorf("remote: no live server for device %d (placement updating)", deviceID)
	}
	dc, sc := net.Pipe()
	var devSide net.Conn = dc
	if c.cfg.WrapConn != nil {
		devSide = c.cfg.WrapConn(deviceID, dc)
	}
	go target.srv.HandleConn(sc)
	cl, err := Dial(devSide, c.cfg.PSK, deviceID)
	if err != nil {
		devSide.Close()
		return nil, err
	}
	return cl, nil
}

// DialFunc returns the closure form of Dial for one device — what gets
// assigned to core.Config.Dial.
func (c *Cluster) DialFunc(deviceID uint64) func() (*Client, error) {
	return func() (*Client, error) { return c.Dial(deviceID) }
}

// Kill fails one server: mark it dead (dials start refusing), drain it
// (Server.Close waits out every session's handler, so every in-flight
// segment is fully applied or never entered the store), drop its ring
// arcs, and re-place exactly its devices onto live peers. Their next redial routes
// to the new owner, whose FetchHead reconcile adopts anything durable but
// unacked — zero segments lost by construction. Returns the moves.
func (c *Cluster) Kill(id int) ([]Move, error) {
	c.mu.Lock()
	if id < 0 || id >= len(c.nodes) {
		c.mu.Unlock()
		return nil, fmt.Errorf("remote: no server %d", id)
	}
	node := c.nodes[id]
	if !node.alive {
		c.mu.Unlock()
		return nil, fmt.Errorf("remote: server %d already dead", id)
	}
	live := 0
	for _, n := range c.nodes {
		if n.alive {
			live++
		}
	}
	if live <= 1 {
		c.mu.Unlock()
		return nil, fmt.Errorf("remote: refusing to kill the last live server")
	}
	node.alive = false
	c.mu.Unlock()

	// Drain outside the lock: teardown routes in-flight segments through
	// detection, which reads Owner (and would deadlock on c.mu).
	node.srv.Close()

	c.mu.Lock()
	c.ring.RemoveNode(id)
	moves := c.placement.Evict(id)
	if c.OnMove != nil {
		for _, m := range moves {
			c.OnMove(m.Device, m.From, m.To)
		}
	}
	c.mu.Unlock()

	// A dial that passed the liveness check just before the flip may have
	// landed a session after the first drain; cut stragglers too.
	node.srv.Close()
	return moves, nil
}

// Revive brings a killed server back: its ring arcs return at the weight
// it last held and dials may place devices on it again. Server.Close is a
// drain, not a shutdown latch, so the same Server object serves new
// sessions as soon as the ring names it. Devices currently placed
// elsewhere stay put (placement is sticky); load flows back through new
// placements and skew rebalancing.
func (c *Cluster) Revive(id int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if id < 0 || id >= len(c.nodes) {
		return fmt.Errorf("remote: no server %d", id)
	}
	node := c.nodes[id]
	if node.alive {
		return fmt.Errorf("remote: server %d already alive", id)
	}
	node.alive = true
	// Discard load accumulated before death so the first post-revive skew
	// window reflects only fresh traffic.
	node.takeWindow()
	c.ring.AddNode(id, node.weight)
	return nil
}

// RebalanceOnIngest samples the wire bytes each live server accepted since
// the last call (the growth of its IngestTotals().BytesWire): load as
// placed, which shows a hot server even when its handlers keep up. A
// server is hot when its window is at least skewMinBytes and skewFactor×
// the median of its peers'; the first hot server's ring weight takes one
// weightStep cut, never below minWeight. Devices whose arcs the cut moved
// are re-placed and their sessions closed so they redial to the new owners.
// Returns the moves (nil on a quiet window).
func (c *Cluster) RebalanceOnIngest() []Move {
	c.mu.Lock()
	hot, moves := c.cutHottestLocked()
	c.mu.Unlock()

	// Evict the moved devices' live sessions (outside the lock: the drain
	// routes their in-flight segments through Owner). They redial to the
	// new owners; the shared store keeps their chains seamless.
	for _, m := range moves {
		hot.srv.CloseDevice(m.Device)
	}
	return moves
}

// cutHottestLocked takes every live server's ingest window and applies
// RebalanceOnIngest's skew policy to them. Caller holds c.mu and must
// CloseDevice the returned moves outside the lock.
func (c *Cluster) cutHottestLocked() (*clusterNode, []Move) {
	var live []*clusterNode
	var window []int
	for _, n := range c.nodes {
		if n.alive {
			bytes := n.takeWindow()
			live = append(live, n)
			window = append(window, int(min(bytes, math.MaxInt)))
		}
	}
	if len(live) < 2 {
		return nil, nil
	}
	var hot *clusterNode
	for i, n := range live {
		if window[i] < skewMinBytes || n.weight <= minWeight {
			continue
		}
		peers := make([]int, 0, len(live)-1)
		for j, w := range window {
			if j != i {
				peers = append(peers, w)
			}
		}
		sort.Ints(peers)
		if median := max(peers[len(peers)/2], 1); float64(window[i]) >= skewFactor*float64(median) {
			hot = n
			break
		}
	}
	if hot == nil {
		return nil, nil
	}
	w := max(hot.weight*(100-weightStep)/100, minWeight)
	hot.weight = w
	c.ring.SetWeight(hot.id, w)
	moves := c.placement.Rebalance(hot.id)
	if c.OnMove != nil {
		for _, m := range moves {
			c.OnMove(m.Device, m.From, m.To)
		}
	}
	return hot, moves
}

// Close drains every server.
func (c *Cluster) Close() {
	for _, n := range c.nodes {
		n.srv.Close()
	}
}
