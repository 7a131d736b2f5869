// Package oplog implements RSSD's hardware-assisted operation log: a
// time-ordered, hash-chained record of every storage operation the device
// performs.
//
// Each entry's hash covers the previous entry's hash, so the log forms a
// tamper-evident chain — the "trusted evidence chain" the paper's
// post-attack analysis is built on. Because the log is produced below the
// block interface by the firmware (simulated here by internal/core), a
// host-resident attacker cannot rewrite history without breaking the
// chain: any insertion, deletion, or mutation is detected by VerifyChain.
package oplog

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/simclock"
)

// Kind enumerates logged operation types.
type Kind uint8

const (
	// KindWrite records a host write: LPN received new content at NewPPN;
	// the previous version (if any) was at OldPPN and became stale.
	KindWrite Kind = iota + 1
	// KindTrim records a host trim of LPN whose data was at OldPPN.
	// Under RSSD's enhanced trim the data is retained, not destroyed.
	KindTrim
	// KindMigrate records GC relocating a retained page OldPPN -> NewPPN.
	KindMigrate
	// KindOffload records that retained data and log entries up to
	// OldPPN (reused as "last sequence") were durably shipped remotely.
	KindOffload
	// KindCheckpoint records a mapping-snapshot checkpoint; DataHash
	// holds the snapshot digest.
	KindCheckpoint
	// KindRecovery records a recovery action that rewrote LPN from a
	// retained version.
	KindRecovery
	// KindRecoveryTrim records a recovery action that restored LPN to
	// the unmapped (zero) state.
	KindRecoveryTrim
	// KindRead records a host read. Reads are sampled rather than fully
	// logged (matching the paper: read logging informs detection of
	// read-then-overwrite ransomware behaviour at low overhead).
	KindRead
)

func (k Kind) String() string {
	switch k {
	case KindWrite:
		return "write"
	case KindTrim:
		return "trim"
	case KindMigrate:
		return "migrate"
	case KindOffload:
		return "offload"
	case KindCheckpoint:
		return "checkpoint"
	case KindRecovery:
		return "recovery"
	case KindRecoveryTrim:
		return "recovery-trim"
	case KindRead:
		return "read"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// HashSize is the size of the chain and content hashes.
const HashSize = sha256.Size

// Entry is one operation-log record. The byte layout produced by Marshal
// is fixed-size so firmware can append without allocation. PrevHash and Hash
// exist in memory only: a marshal carries the hashed body, and whoever reads
// it derives both (see Segment).
type Entry struct {
	Seq      uint64
	At       simclock.Time
	Kind     Kind
	LPN      uint64
	OldPPN   uint64
	NewPPN   uint64
	Entropy  float32        // Shannon estimate of written content (writes)
	DataHash [HashSize]byte // content hash of written data / snapshot digest
	PrevHash [HashSize]byte // chain: hash of the previous entry
	Hash     [HashSize]byte // chain: SHA-256(PrevHash || body)
}

// EntrySize is the marshaled entry size in bytes: the hashed portion,
// everything but PrevHash and Hash.
const EntrySize = 8 + 8 + 1 + 8 + 8 + 8 + 4 + HashSize

// appendBody serializes the hashed portion of e into b.
func (e *Entry) appendBody(b []byte) []byte {
	b = binary.LittleEndian.AppendUint64(b, e.Seq)
	b = binary.LittleEndian.AppendUint64(b, uint64(e.At))
	b = append(b, byte(e.Kind))
	b = binary.LittleEndian.AppendUint64(b, e.LPN)
	b = binary.LittleEndian.AppendUint64(b, e.OldPPN)
	b = binary.LittleEndian.AppendUint64(b, e.NewPPN)
	b = binary.LittleEndian.AppendUint32(b, math.Float32bits(e.Entropy))
	b = append(b, e.DataHash[:]...)
	return b
}

// ComputeHash returns the chain hash of e given the previous entry's hash.
func (e *Entry) ComputeHash(prev [HashSize]byte) [HashSize]byte {
	buf := make([]byte, 0, EntrySize+HashSize)
	buf = append(buf, prev[:]...)
	buf = e.appendBody(buf)
	return sha256.Sum256(buf)
}

// sealWith sets PrevHash and Hash from the previous hash in the chain,
// hashing through buf, so batched appends hash every entry of a batch
// through one reused allocation. It returns the (possibly grown) buffer for
// the next entry.
func (e *Entry) sealWith(prev [HashSize]byte, buf []byte) []byte {
	buf = buf[:0]
	buf = append(buf, prev[:]...)
	buf = e.appendBody(buf)
	e.PrevHash = prev
	e.Hash = sha256.Sum256(buf)
	return buf
}

// Verify reports whether e's Hash is consistent with its contents and
// PrevHash.
func (e *Entry) Verify() bool { return e.Hash == e.ComputeHash(e.PrevHash) }

// Marshal appends the wire encoding of e to b: the hashed body, and neither
// chain hash.
func (e *Entry) Marshal(b []byte) []byte { return e.appendBody(b) }

// setBody fills the hashed fields of e from the first EntrySize bytes of b.
func (e *Entry) setBody(b []byte) {
	e.Seq = binary.LittleEndian.Uint64(b[0:])
	e.At = simclock.Time(binary.LittleEndian.Uint64(b[8:]))
	e.Kind = Kind(b[16])
	e.LPN = binary.LittleEndian.Uint64(b[17:])
	e.OldPPN = binary.LittleEndian.Uint64(b[25:])
	e.NewPPN = binary.LittleEndian.Uint64(b[33:])
	e.Entropy = math.Float32frombits(binary.LittleEndian.Uint32(b[41:]))
	copy(e.DataHash[:], b[45:45+HashSize])
}

// Log is the in-device operation log. Appends are serialized; reads take a
// snapshot. The log may be pruned after offload — remote storage then holds
// the authoritative prefix.
type Log struct {
	mu      sync.Mutex
	entries []Entry
	head    [HashSize]byte // hash of the newest entry (genesis: zero)
	nextSeq uint64
	baseSeq uint64 // seq of entries[0]; earlier entries have been pruned
	scratch []byte // seal buffer, reused under mu across appends
}

// New returns an empty log whose first entry will have sequence 0 and a
// zero genesis PrevHash.
func New() *Log { return &Log{} }

// ResumeFrom returns a log that continues an existing chain: the next
// appended entry gets sequence nextSeq and chains onto head (the hash of
// entry nextSeq-1). Device reopen uses it to splice the post-reboot log
// onto the remotely stored prefix without a chain break.
func ResumeFrom(nextSeq uint64, head [HashSize]byte) *Log {
	return &Log{nextSeq: nextSeq, baseSeq: nextSeq, head: head}
}

// Append creates, seals, and stores a new entry, returning a copy.
func (l *Log) Append(kind Kind, at simclock.Time, lpn, oldPPN, newPPN uint64, ent float32, dataHash [HashSize]byte) Entry {
	l.mu.Lock()
	defer l.mu.Unlock()
	e := Entry{
		Seq: l.nextSeq, At: at, Kind: kind,
		LPN: lpn, OldPPN: oldPPN, NewPPN: newPPN,
		Entropy: ent, DataHash: dataHash,
	}
	l.scratch = e.sealWith(l.head, l.scratch)
	l.entries = append(l.entries, e)
	l.head = e.Hash
	l.nextSeq++
	return e
}

// Rec describes one entry to append in a batch. It is an Entry minus the
// fields the log assigns (Seq and the chain hashes).
type Rec struct {
	Kind     Kind
	At       simclock.Time
	LPN      uint64
	OldPPN   uint64
	NewPPN   uint64
	Entropy  float32
	DataHash [HashSize]byte
}

// AppendBatch creates, seals, and stores one entry per record under a
// single lock acquisition and returns the sequence number of the first:
// record i becomes entry first+i. Every entry is still individually
// hash-chained onto its predecessor — VerifyChain sees no difference from
// per-op appends — but the sequence counter, head update, and seal buffer
// are touched once per batch instead of once per entry, which is what makes
// the batched datapath's logging cheap.
func (l *Log) AppendBatch(recs []Rec) (first uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	first = l.nextSeq
	for _, rec := range recs {
		e := Entry{
			Seq: l.nextSeq, At: rec.At, Kind: rec.Kind,
			LPN: rec.LPN, OldPPN: rec.OldPPN, NewPPN: rec.NewPPN,
			Entropy: rec.Entropy, DataHash: rec.DataHash,
		}
		l.scratch = e.sealWith(l.head, l.scratch)
		l.entries = append(l.entries, e)
		l.head = e.Hash
		l.nextSeq++
	}
	return first
}

// NextSeq returns the sequence number the next appended entry will get.
func (l *Log) NextSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextSeq
}

// Entries returns a copy of entries with from <= Seq < to that are still
// held locally.
func (l *Log) Entries(from, to uint64) []Entry {
	l.mu.Lock()
	defer l.mu.Unlock()
	if to > l.nextSeq {
		to = l.nextSeq
	}
	if from < l.baseSeq {
		from = l.baseSeq
	}
	if from >= to {
		return nil
	}
	out := make([]Entry, to-from)
	copy(out, l.entries[from-l.baseSeq:to-l.baseSeq])
	return out
}

// Prune discards local entries with Seq < upto. The device does this after
// those entries are durably offloaded; forensics then merges the remote
// prefix with the local suffix.
func (l *Log) Prune(upto uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if upto <= l.baseSeq {
		return
	}
	if upto > l.nextSeq {
		upto = l.nextSeq
	}
	n := upto - l.baseSeq
	l.entries = append([]Entry(nil), l.entries[n:]...)
	l.baseSeq = upto
}

// ChainError describes where and how chain verification failed.
type ChainError struct {
	Index  int // index into the verified slice
	Seq    uint64
	Reason string
}

func (e *ChainError) Error() string {
	return fmt.Sprintf("oplog: chain broken at index %d (seq %d): %s", e.Index, e.Seq, e.Reason)
}

// VerifyChain checks that entries form an unbroken, untampered hash chain
// starting from prev (the hash of the entry immediately before entries[0],
// or zero for a genesis chain). It returns nil if the chain is intact.
//
// A chain of at least 2×512 entries (verifyShardEntries) is cut into up to
// GOMAXPROCS shards of at least 512 each, verified side by side: shard k from the stored Hash of the entry before it, which is what
// the one loop would have carried there had it got that far. The error is
// the earliest failing entry's, with the reason the one loop gives, so the
// result does not depend on the shard count. With one P, or a shorter chain,
// it is the one loop.
func VerifyChain(entries []Entry, prev [HashSize]byte) error {
	shards := min(runtime.GOMAXPROCS(0), len(entries)/verifyShardEntries)
	if shards < 2 {
		return verifyRange(entries, 0, len(entries), prev, nil)
	}
	c := &chainShards{entries: entries}
	c.firstBad.Store(int64(len(entries)))
	for k := shards - 1; k >= 0; k-- {
		lo, hi := k*len(entries)/shards, (k+1)*len(entries)/shards
		from := prev
		if lo > 0 {
			from = entries[lo-1].Hash
		}
		if k == 0 {
			c.verify(lo, hi, from)
			break
		}
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			c.verify(lo, hi, from)
		}()
	}
	c.wg.Wait()
	i := int(c.firstBad.Load())
	if i == len(entries) {
		return nil
	}
	// The one loop's reason at i follows from entries[i] and the entry
	// before it alone.
	if i > 0 {
		prev = entries[i-1].Hash
	}
	return verifyRange(entries, i, i+1, prev, nil)
}

// chainShards is what the shards of one VerifyChain share: the chain, and
// the lowest failing index found so far (len(entries) while none is), above
// which a shard stops, since nothing it could find would be reported.
type chainShards struct {
	entries  []Entry
	firstBad atomic.Int64
	wg       sync.WaitGroup
}

// verify checks entries[lo:hi] from prev and lowers firstBad to where that
// fails, if it does.
func (c *chainShards) verify(lo, hi int, prev [HashSize]byte) {
	err := verifyRange(c.entries, lo, hi, prev, &c.firstBad)
	if err == nil {
		return
	}
	i := int64(err.(*ChainError).Index)
	for bad := c.firstBad.Load(); i < bad && !c.firstBad.CompareAndSwap(bad, i); bad = c.firstBad.Load() {
	}
}

// verifyShardEntries is the least number of entries VerifyChain gives one
// shard: below it a goroutine costs more than the hashes it takes over.
const verifyShardEntries = 512

// verifyRange is VerifyChain's loop over entries[lo:hi], prev being the hash
// entries[lo] must chain onto; indexes are into entries, so a shard's
// sequence check at lo reads the entry before it. It gives up, returning nil,
// once stop (when not nil) holds an index below the one it is at.
func verifyRange(entries []Entry, lo, hi int, prev [HashSize]byte, stop *atomic.Int64) error {
	for i := lo; i < hi; i++ {
		if stop != nil && stop.Load() < int64(i) {
			return nil
		}
		e := &entries[i]
		if e.PrevHash != prev {
			return &ChainError{Index: i, Seq: e.Seq, Reason: "previous-hash mismatch"}
		}
		if !e.Verify() {
			return &ChainError{Index: i, Seq: e.Seq, Reason: "entry hash mismatch"}
		}
		if i > 0 && e.Seq != entries[i-1].Seq+1 {
			return &ChainError{Index: i, Seq: e.Seq, Reason: "sequence gap"}
		}
		prev = e.Hash
	}
	return nil
}
