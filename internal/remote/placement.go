package remote

import (
	"math"
	"sort"
	"sync"
)

// Consistent-hash placement for the fleet control plane: device IDs map to
// ingest servers through a ring of virtual nodes, so adding or losing a
// server remaps only the devices whose arc changed — the property that
// makes failover cheap at fleet scale. Two layers:
//
//   - Ring is the pure structure: weighted nodes, virtual-node arcs, a
//     deterministic 64-bit mix for both vnode positions and device keys.
//     Locate is stateless; removing a node provably remaps only the
//     devices that node owned.
//   - Placement adds what a pure ring cannot give: bounded load (a hash
//     alone spreads 512 devices over 8 servers with ~±20% multinomial
//     noise; the bounded walk caps every server near the mean) and
//     stickiness (a device moves only when its server leaves the ring or
//     a rebalance explicitly evicts it — never because an unrelated
//     membership change shifted arcs).

// virtualNodes is the vnode count a weight-100 node contributes.
const virtualNodes = 192

// loadFactor bounds a node's device count at loadFactor times the fleet
// mean during bounded-load placement.
const loadFactor = 1.10

// mix64 is the splitmix64 finalizer: a cheap, well-dispersed 64-bit mix
// used for vnode positions and device keys alike.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// deviceKey hashes a device ID onto the ring.
func deviceKey(deviceID uint64) uint64 {
	return mix64(deviceID * 0x9e3779b97f4a7c15)
}

// vnodeKey hashes one virtual node of a server onto the ring.
func vnodeKey(node, replica int) uint64 {
	return mix64(uint64(node+1)<<32 | uint64(uint32(replica)))
}

type ringSlot struct {
	key  uint64
	node int
}

// Ring is a weighted consistent-hash ring. A node of weight w contributes
// virtualNodes*w/100 virtual nodes; halving a weight removes half the
// node's arcs, shrinking (never shuffling) its share. Safe for concurrent
// use.
type Ring struct {
	mu      sync.RWMutex
	weights map[int]int
	slots   []ringSlot
}

// NewRing returns an empty ring.
func NewRing() *Ring {
	return &Ring{weights: map[int]int{}}
}

// rebuild regenerates the sorted slot array from the weight table.
// Caller holds r.mu.
func (r *Ring) rebuild() {
	r.slots = r.slots[:0]
	for node, w := range r.weights {
		n := virtualNodes * w / 100
		if n < 1 {
			n = 1
		}
		for i := 0; i < n; i++ {
			r.slots = append(r.slots, ringSlot{key: vnodeKey(node, i), node: node})
		}
	}
	sort.Slice(r.slots, func(i, j int) bool {
		if r.slots[i].key != r.slots[j].key {
			return r.slots[i].key < r.slots[j].key
		}
		return r.slots[i].node < r.slots[j].node // deterministic on collision
	})
}

// AddNode inserts (or re-weights) a node. weight <= 0 selects 100.
func (r *Ring) AddNode(node, weight int) {
	if weight <= 0 {
		weight = 100
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.weights[node] = weight
	r.rebuild()
}

// RemoveNode deletes a node; only devices it owned change owners.
func (r *Ring) RemoveNode(node int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.weights, node)
	r.rebuild()
}

// SetWeight adjusts a node's weight (clamped to >= 1); a lower weight
// shrinks the node's arc share, which is how the cluster sheds load from
// a persistently hot server.
func (r *Ring) SetWeight(node, weight int) {
	if weight < 1 {
		weight = 1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.weights[node]; !ok {
		return
	}
	r.weights[node] = weight
	r.rebuild()
}

// HasNode reports ring membership.
func (r *Ring) HasNode(node int) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, ok := r.weights[node]
	return ok
}

// NodeCount returns the number of member nodes.
func (r *Ring) NodeCount() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.weights)
}

// Locate returns the node owning deviceID: the first virtual node at or
// clockwise of the device's key. ok is false on an empty ring.
func (r *Ring) Locate(deviceID uint64) (node int, ok bool) {
	return r.LocateWhere(deviceID, nil)
}

// LocateWhere walks the ring clockwise from the device's key and returns
// the first node accepted by keep (nil accepts every node). Each distinct
// node is offered once, in arc order — this is the bounded-load walk: a
// full node declines and the device lands on the next arc's owner.
func (r *Ring) LocateWhere(deviceID uint64, keep func(node int) bool) (node int, ok bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.slots) == 0 {
		return 0, false
	}
	k := deviceKey(deviceID)
	start := sort.Search(len(r.slots), func(i int) bool { return r.slots[i].key >= k })
	seen := 0
	var offered [64]bool // node IDs are small dense ints in practice
	var offeredBig map[int]bool
	for i := 0; seen < len(r.weights) && i < len(r.slots); i++ {
		s := r.slots[(start+i)%len(r.slots)]
		if s.node >= 0 && s.node < len(offered) {
			if offered[s.node] {
				continue
			}
			offered[s.node] = true
		} else {
			if offeredBig == nil {
				offeredBig = map[int]bool{}
			}
			if offeredBig[s.node] {
				continue
			}
			offeredBig[s.node] = true
		}
		seen++
		if keep == nil || keep(s.node) {
			return s.node, true
		}
	}
	return 0, false
}

// Move records one device changing owners.
type Move struct {
	Device   uint64
	From, To int
}

// Placement is the sticky bounded-load assignment of devices to ring
// nodes. Place pins a device to a node and keeps it there across
// unrelated membership changes; Evict re-places a dead node's devices
// (and only those); Rebalance sheds a hot node's devices whose arcs a
// weight cut moved away. Load is bounded at loadFactor times the fleet
// mean, which is what holds the max/min device spread near 1 where a
// pure hash would wander ±20%. Safe for concurrent use.
type Placement struct {
	mu    sync.Mutex
	ring  *Ring
	owner map[uint64]int
	loads map[int]int
}

// NewPlacement returns a placement over ring.
func NewPlacement(ring *Ring) *Placement {
	return &Placement{ring: ring, owner: map[uint64]int{}, loads: map[int]int{}}
}

// capLocked computes the per-node device cap for a fleet of n devices.
func (p *Placement) capLocked(n int) int {
	nodes := p.ring.NodeCount()
	if nodes == 0 {
		return 0
	}
	c := int(math.Ceil(loadFactor * float64(n) / float64(nodes)))
	if c < 1 {
		c = 1
	}
	return c
}

// placeLocked runs one bounded-load walk for dev and records the result.
func (p *Placement) placeLocked(dev uint64) (int, bool) {
	cap := p.capLocked(len(p.owner) + 1)
	node, ok := p.ring.LocateWhere(dev, func(n int) bool { return p.loads[n] < cap })
	if !ok {
		// Every node is at cap (rounding corner): take the arc owner.
		if node, ok = p.ring.Locate(dev); !ok {
			return 0, false
		}
	}
	p.owner[dev] = node
	p.loads[node]++
	return node, true
}

// Place returns dev's node, assigning one on first contact. The
// assignment is sticky: a placed device stays put unless its node has
// left the ring, in which case it is re-placed (and the move is visible
// through Owner/Spread).
func (p *Placement) Place(dev uint64) (int, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if node, ok := p.owner[dev]; ok {
		if p.ring.HasNode(node) {
			return node, true
		}
		p.loads[node]--
		delete(p.owner, dev)
	}
	return p.placeLocked(dev)
}

// Owner returns dev's current node without placing it.
func (p *Placement) Owner(dev uint64) (int, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	node, ok := p.owner[dev]
	return node, ok
}

// Evict re-places every device owned by node (typically after
// ring.RemoveNode(node)) and returns the moves. Devices on other nodes
// are untouched — failover moves exactly the dead server's devices.
func (p *Placement) Evict(node int) []Move {
	p.mu.Lock()
	defer p.mu.Unlock()
	var devs []uint64
	for dev, n := range p.owner {
		if n == node {
			devs = append(devs, dev)
		}
	}
	sort.Slice(devs, func(i, j int) bool { return devs[i] < devs[j] })
	var moves []Move
	for _, dev := range devs {
		p.loads[node]--
		delete(p.owner, dev)
		if to, ok := p.placeLocked(dev); ok && to != node {
			moves = append(moves, Move{Device: dev, From: node, To: to})
		}
	}
	delete(p.loads, node)
	return moves
}

// Rebalance sheds load from node after a weight cut: every device of the
// node whose ring arc no longer maps to it is re-placed through the
// bounded walk. Devices the (shrunken) node still owns by hash stay — the
// minimal-movement property, applied to rebalancing.
func (p *Placement) Rebalance(node int) []Move {
	p.mu.Lock()
	defer p.mu.Unlock()
	var devs []uint64
	for dev, n := range p.owner {
		if n != node {
			continue
		}
		if natural, ok := p.ring.Locate(dev); ok && natural != node {
			devs = append(devs, dev)
		}
	}
	sort.Slice(devs, func(i, j int) bool { return devs[i] < devs[j] })
	var moves []Move
	for _, dev := range devs {
		p.loads[node]--
		delete(p.owner, dev)
		to, ok := p.placeLocked(dev)
		if !ok {
			continue
		}
		if to != node {
			moves = append(moves, Move{Device: dev, From: node, To: to})
		}
	}
	return moves
}

// Spread returns the device count per node.
func (p *Placement) Spread() map[int]int {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[int]int, len(p.loads))
	for n, c := range p.loads {
		if c > 0 {
			out[n] = c
		}
	}
	return out
}
