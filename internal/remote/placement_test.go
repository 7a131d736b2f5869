package remote

import (
	"testing"
)

// fleetIDs returns n device IDs shaped like the fleet experiments use
// (small dense integers starting at 1).
func fleetIDs(n int) []uint64 {
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = uint64(i + 1)
	}
	return ids
}

func eightNodeRing() *Ring {
	r := NewRing()
	for i := 0; i < 8; i++ {
		r.AddNode(i, 100)
	}
	return r
}

// spreadRatio places every device and returns max/min per-node counts.
func spreadRatio(t *testing.T, p *Placement, ids []uint64) float64 {
	t.Helper()
	for _, id := range ids {
		if _, ok := p.Place(id); !ok {
			t.Fatalf("device %d unplaceable", id)
		}
	}
	spread := p.Spread()
	min, max := 1<<30, 0
	for _, c := range spread {
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	if len(spread) != 8 || min == 0 {
		t.Fatalf("placement left nodes empty: %v", spread)
	}
	return float64(max) / float64(min)
}

// TestPlacementSpread512Devices is the satellite spread gate: 512 devices
// over 8 servers must land within a 1.3 max/min ratio, and that must hold
// regardless of the order devices arrive in (the bounded-load walk, not
// arrival luck, is what enforces it).
func TestPlacementSpread512Devices(t *testing.T) {
	orders := map[string]func([]uint64) []uint64{
		"ascending": func(ids []uint64) []uint64 { return ids },
		"descending": func(ids []uint64) []uint64 {
			out := make([]uint64, len(ids))
			for i, id := range ids {
				out[len(ids)-1-i] = id
			}
			return out
		},
		"strided": func(ids []uint64) []uint64 {
			var out []uint64
			for ph := 0; ph < 7; ph++ {
				for i := ph; i < len(ids); i += 7 {
					out = append(out, ids[i])
				}
			}
			return out
		},
	}
	for name, reorder := range orders {
		t.Run(name, func(t *testing.T) {
			p := NewPlacement(eightNodeRing())
			if ratio := spreadRatio(t, p, reorder(fleetIDs(512))); ratio > 1.3 {
				t.Fatalf("spread max/min = %.3f, want <= 1.3 (%v)", ratio, p.Spread())
			}
		})
	}
}

// TestRingMinimalMovementOnNodeLoss pins the consistent-hash property at
// the pure-ring level: removing one node changes the owner of exactly the
// devices that node owned.
func TestRingMinimalMovementOnNodeLoss(t *testing.T) {
	r := eightNodeRing()
	ids := fleetIDs(512)
	before := map[uint64]int{}
	for _, id := range ids {
		n, ok := r.Locate(id)
		if !ok {
			t.Fatalf("device %d unlocatable", id)
		}
		before[id] = n
	}
	const dead = 3
	r.RemoveNode(dead)
	moved := 0
	for _, id := range ids {
		after, ok := r.Locate(id)
		if !ok {
			t.Fatalf("device %d unlocatable after loss", id)
		}
		if after == dead {
			t.Fatalf("device %d still on removed node", id)
		}
		if before[id] != dead {
			if after != before[id] {
				t.Fatalf("device %d moved %d -> %d though its node survived", id, before[id], after)
			}
		} else {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("removed node owned no devices; test is vacuous")
	}
}

// TestPlacementEvictMovesOnlyDeadNodesDevices is the same property one
// layer up, through the sticky bounded-load placement the cluster uses.
func TestPlacementEvictMovesOnlyDeadNodesDevices(t *testing.T) {
	r := eightNodeRing()
	p := NewPlacement(r)
	ids := fleetIDs(512)
	before := map[uint64]int{}
	for _, id := range ids {
		n, _ := p.Place(id)
		before[id] = n
	}
	const dead = 5
	deadCount := p.Spread()[dead]
	if deadCount == 0 {
		t.Fatal("dead node owned no devices; test is vacuous")
	}
	r.RemoveNode(dead)
	moves := p.Evict(dead)
	if len(moves) != deadCount {
		t.Fatalf("evict moved %d devices, node owned %d", len(moves), deadCount)
	}
	for _, m := range moves {
		if m.From != dead {
			t.Fatalf("evict moved device %d off surviving node %d", m.Device, m.From)
		}
	}
	for _, id := range ids {
		after, ok := p.Owner(id)
		if !ok {
			t.Fatalf("device %d lost its placement", id)
		}
		if before[id] != dead && after != before[id] {
			t.Fatalf("device %d moved %d -> %d though its node survived", id, before[id], after)
		}
		if after == dead {
			t.Fatalf("device %d still placed on dead node", id)
		}
	}
	// The survivors absorb the dead node's devices without breaking the
	// spread bound (7 nodes now).
	spread := p.Spread()
	min, max := 1<<30, 0
	for _, c := range spread {
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	if ratio := float64(max) / float64(min); ratio > 1.3 {
		t.Fatalf("post-failover spread max/min = %.3f, want <= 1.3 (%v)", ratio, spread)
	}
}

// TestRingWeightCutShedsOnlyFromCutNode: halving a node's weight may move
// only that node's devices (its arcs shrank; nobody else's changed).
func TestRingWeightCutShedsOnlyFromCutNode(t *testing.T) {
	r := eightNodeRing()
	ids := fleetIDs(512)
	before := map[uint64]int{}
	for _, id := range ids {
		before[id], _ = r.Locate(id)
	}
	const hot = 2
	r.SetWeight(hot, 50)
	moved := 0
	for _, id := range ids {
		after, _ := r.Locate(id)
		if after != before[id] {
			if before[id] != hot {
				t.Fatalf("device %d moved %d -> %d on an unrelated weight cut", id, before[id], after)
			}
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("weight cut moved nothing; test is vacuous")
	}
	if w := r.Weight(hot); w != 50 {
		t.Fatalf("weight = %d, want 50", w)
	}
}

// TestPlacementSticky: re-placing an already-placed device is a no-op, and
// adding a node moves nobody until an explicit evict/rebalance.
func TestPlacementSticky(t *testing.T) {
	r := eightNodeRing()
	p := NewPlacement(r)
	ids := fleetIDs(64)
	before := map[uint64]int{}
	for _, id := range ids {
		before[id], _ = p.Place(id)
	}
	r.AddNode(8, 100)
	for _, id := range ids {
		n, _ := p.Place(id)
		if n != before[id] {
			t.Fatalf("device %d moved %d -> %d without eviction", id, before[id], n)
		}
	}
}
