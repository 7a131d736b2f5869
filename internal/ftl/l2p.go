package ftl

// l2pShardBits selects the number of shards in the logical-to-physical
// mapping table: a power of two so the shard of an LPN is a mask away.
const l2pShardBits = 4

// l2pShards is the shard count (16).
const l2pShards = 1 << l2pShardBits

// l2pTable is the logical-to-physical mapping, split into power-of-two
// shards keyed by the low bits of the LPN. The shards exist for the
// architecture, not for today's speed: their boundaries are where future
// work hangs per-shard locks for a concurrent multi-queue datapath
// (today the FTL is still single-threaded firmware, so shards need no
// locks and a flat slice would be marginally more cache-friendly — the
// accepted cost of the seam).
//
// An LPN maps to shard lpn % l2pShards at index lpn / l2pShards, so
// sequential host I/O — the common batch shape — spreads one batch evenly
// across all shards, which is exactly the access pattern that keeps
// per-shard locks uncontended once they exist.
type l2pTable struct {
	shards [l2pShards][]uint64
}

// newL2P builds a table for n logical pages with every entry NoPPN.
func newL2P(n uint64) *l2pTable {
	t := &l2pTable{}
	per := n / l2pShards
	rem := n % l2pShards
	for s := uint64(0); s < l2pShards; s++ {
		size := per
		if s < rem {
			size++
		}
		shard := make([]uint64, size)
		for i := range shard {
			shard[i] = NoPPN
		}
		t.shards[s] = shard
	}
	return t
}

// get returns the mapping for lpn. The caller guarantees lpn < n.
func (t *l2pTable) get(lpn uint64) uint64 {
	return t.shards[lpn&(l2pShards-1)][lpn>>l2pShardBits]
}

// set updates the mapping for lpn. The caller guarantees lpn < n.
func (t *l2pTable) set(lpn, ppn uint64) {
	t.shards[lpn&(l2pShards-1)][lpn>>l2pShardBits] = ppn
}
