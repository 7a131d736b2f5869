package remote

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/bufpool"
	"repro/internal/nvmeoe"
	"repro/internal/oplog"
	"repro/internal/simclock"
)

// Offsets into a segment marshal that carries entries: the fixed header,
// the two chain hashes behind it, then one EntrySize body per entry.
const (
	segHdr      = 52
	segHdrCount = 44 // the entry count inside the header
	segChain    = 2 * oplog.HashSize
	segEntries  = segHdr + segChain
)

// tamperChain is the matrix's seeded device history: a prefix segment the
// store adopts first, so the head the target must link onto is not the zero
// hash, and the target — 64 entries of every kind and 8 retained pages.
func tamperChain(deviceID uint64, seed int64) (prefix, target *oplog.Segment) {
	rng := rand.New(rand.NewSource(seed))
	l := oplog.New()
	build := func(entries, pages int) *oplog.Segment {
		seg := &oplog.Segment{DeviceID: deviceID, FirstSeq: l.NextSeq()}
		for i := 0; i < entries; i++ {
			var dh [oplog.HashSize]byte
			rng.Read(dh[:])
			kind := oplog.Kind(1 + rng.Intn(int(oplog.KindRead)))
			seg.Entries = append(seg.Entries, l.Append(kind, simclock.Time(l.NextSeq()*10),
				rng.Uint64()%512, rng.Uint64()%4096, rng.Uint64()%4096, rng.Float32()*8, dh))
		}
		for i := 0; i < pages; i++ {
			data := make([]byte, 96)
			rng.Read(data)
			seq := seg.FirstSeq + uint64(i)
			seg.Pages = append(seg.Pages, oplog.PageRecord{
				LPN: uint64(i), WriteSeq: seq, StaleSeq: seq + 100, Cause: 1, Hash: oplog.HashData(data), Data: data,
			})
		}
		seg.LastSeq = l.NextSeq()
		return seg
	}
	return build(16, 2), build(64, 8)
}

// mutant is one tampered marshal of the target segment. resealed marks the
// ones whose last hash the tamperer recomputed, so that whatever the bodies
// now chain to passes the segment's own check.
type mutant struct {
	what     string
	raw      []byte
	bitFlip  bool
	resealed bool
}

// setCount rewrites the header's entry count, as a tamperer who adds or
// removes a body would.
func setCount(raw []byte, n int) []byte {
	binary.LittleEndian.PutUint32(raw[segHdrCount:], uint32(n))
	return raw
}

// reseal returns a copy of raw whose carried last hash is the one its n
// bodies, as they lie, chain to from the carried previous hash.
func reseal(t *testing.T, raw []byte, n int) []byte {
	t.Helper()
	raw = append([]byte(nil), raw...)
	var prev [oplog.HashSize]byte
	copy(prev[:], raw[segHdr:])
	for i := 0; i < n; i++ {
		body := raw[segEntries+i*oplog.EntrySize:][:oplog.EntrySize]
		prev = sha256.Sum256(append(prev[:], body...))
	}
	copy(raw[segHdr+oplog.HashSize:], prev[:])
	return raw
}

// tamperMatrix is every way the issue's threat table names of handing a
// reader bytes other than the ones the device sealed. Every bit of the two
// chain hashes is flipped, and every stride-th bit of the entry bodies.
// foreignHead is the head hash of some other device's chain. Each mutant is
// handed to yield and dropped: the full matrix is 40 000 copies of good.
func tamperMatrix(t *testing.T, good []byte, n, stride int, foreignHead [oplog.HashSize]byte, yield func(mutant)) {
	t.Helper()
	clone := func() []byte { return append([]byte(nil), good...) }
	body := func(raw []byte, i int) []byte {
		return raw[segEntries+i*oplog.EntrySize : segEntries+(i+1)*oplog.EntrySize]
	}
	entriesEnd := segEntries + n*oplog.EntrySize
	for bit := segHdr * 8; bit < entriesEnd*8; bit++ {
		if bit >= segEntries*8 && bit%stride != 0 {
			continue
		}
		raw := clone()
		raw[bit/8] ^= 1 << (bit % 8)
		yield(mutant{what: fmt.Sprintf("bit %d of byte %d flipped", bit%8, bit/8), raw: raw, bitFlip: true})
	}
	for _, ij := range [][2]int{{0, 1}, {n / 3, n/3 + 1}, {5, n - 5}, {n - 2, n - 1}} {
		raw := clone()
		tmp := append([]byte(nil), body(raw, ij[0])...)
		copy(body(raw, ij[0]), body(raw, ij[1]))
		copy(body(raw, ij[1]), tmp)
		what := fmt.Sprintf("entries %d and %d swapped", ij[0], ij[1])
		yield(mutant{what: what, raw: raw})
		yield(mutant{what: what, raw: reseal(t, raw, n), resealed: true})
	}
	for _, i := range []int{0, n / 2, n - 1} {
		at := segEntries + i*oplog.EntrySize
		dropped := setCount(append(clone()[:at], good[at+oplog.EntrySize:]...), n-1)
		what := fmt.Sprintf("entry %d dropped", i)
		yield(mutant{what: what, raw: dropped})
		if i != n-1 { // resealed without its last entry a segment is an honest, shorter one
			yield(mutant{what: what, raw: reseal(t, dropped, n-1), resealed: true})
		}
		dup := setCount(append(clone()[:at+oplog.EntrySize], good[at:]...), n+1)
		what = fmt.Sprintf("entry %d duplicated", i)
		yield(mutant{what: what, raw: dup})
		yield(mutant{what: what, raw: reseal(t, dup, n+1), resealed: true})
	}
	for keep := 0; keep < n; keep++ {
		cut := segEntries + keep*oplog.EntrySize
		yield(mutant{what: fmt.Sprintf("cut after entry %d", keep), raw: clone()[:cut]})
		// The pages kept and the count corrected: only the last hash still
		// says the segment was longer.
		if keep > 0 {
			short := setCount(append(clone()[:cut], good[entriesEnd:]...), keep)
			yield(mutant{what: fmt.Sprintf("tail truncated to %d entries", keep), raw: short})
		}
	}
	// Another device's head in place of the previous hash: once as a bare
	// substitution, once resealed so that the segment is a valid chain —
	// from the wrong place.
	raw := clone()
	copy(raw[segHdr:], foreignHead[:])
	const what = "previous hash replaced by another device's head"
	yield(mutant{what: what, raw: raw})
	yield(mutant{what: what, raw: reseal(t, raw, n), resealed: true})
}

// storeState is everything ingest may change, the object tier byte for byte.
type storeState struct {
	head  nvmeoe.Head
	stats Stats
	held  []oplog.PageRecord
	keys  []string
	tier  map[string][]byte
}

func snapshot(t *testing.T, st *Store, deviceID uint64) storeState {
	t.Helper()
	s := storeState{head: st.Head(deviceID), stats: st.DeviceStats(deviceID), held: st.HeldVersions(deviceID), tier: map[string][]byte{}}
	if d, ok := st.lookup(deviceID); ok {
		s.keys = append(s.keys, d.segKeys...)
	}
	keys, err := st.blobs.List("")
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if s.tier[k], err = st.blobs.Get(k); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// TestTamperMatrixIngestAndReload: no tampered form of a segment is adopted,
// by the live store or by a Reload over a tier that holds it. Each is refused
// by UnmarshalSegment — the chain it derives does not end at the carried
// last hash, or its sequences are not contiguous — or, when the tamperer
// resealed it into a valid chain, by the store's link onto the device's head;
// a refusal leaves head, version index, segment keys and object tier as they
// were.
func TestTamperMatrixIngestAndReload(t *testing.T) {
	prefix, target := tamperChain(1, 42)
	otherPrefix, _ := tamperChain(2, 43)
	good := target.Marshal()
	n := len(target.Entries)
	if len(good) < segEntries+n*oplog.EntrySize || n != 64 || len(target.Pages) != 8 {
		t.Fatalf("target is %d entries, %d pages, %d bytes", n, len(target.Pages), len(good))
	}

	st := NewStore(NewMemStore())
	for _, seg := range []*oplog.Segment{prefix, otherPrefix} {
		if err := appendDecoded(st, seg); err != nil {
			t.Fatal(err)
		}
	}
	before := snapshot(t, st, 1)
	targetKey := fmt.Sprintf("dev/1/seg/%020d", target.FirstSeq)
	byDecode, byLink := 0, 0
	tamperMatrix(t, good, n, 1, st.Head(2).Hash, func(m mutant) {
		seg, err := oplog.UnmarshalSegment(m.raw)
		switch {
		case err == nil && m.resealed:
			// A valid chain, so the link has to refuse it: it does not start
			// at the device's next sequence, or not from the device's head.
			err = st.AppendSegmentBlob(seg, nvmeoe.EncodeSegmentBlob(m.raw))
			var ce *oplog.ChainError
			if err == nil || !(errors.As(err, &ce) && ce.Reason == "previous-hash mismatch" || strings.Contains(err.Error(), "segment starts at seq")) {
				t.Fatalf("%s, resealed: decoded, then err=%v, want the link to refuse it", m.what, err)
			}
			byLink++
		case errors.Is(err, oplog.ErrBadSegment):
			byDecode++
		default:
			t.Fatalf("%s (resealed=%v): err=%v, want ErrBadSegment", m.what, m.resealed, err)
		}
		// Of the bit flips, none of which reaches the store, every 31st goes
		// on: a snapshot reads the whole tier and a Reload decodes it.
		if m.bitFlip && byDecode%31 != 0 {
			return
		}
		if after := snapshot(t, st, 1); !reflect.DeepEqual(after, before) {
			t.Fatalf("%s: refused, but the store changed:\nbefore %+v\nafter  %+v", m.what, before.stats, after.stats)
		}
		// At rest where the honest blob would lie, the same bytes fail Reload.
		tier := NewMemStore()
		for k, v := range before.tier {
			tier.Put(k, v)
		}
		tier.Put(targetKey, nvmeoe.EncodeSegmentBlob(m.raw))
		if err := NewStore(tier).Reload(); err == nil {
			t.Fatalf("%s (resealed=%v): a tier holding it reloaded cleanly", m.what, m.resealed)
		}
	})
	// Resealed, a segment without its first entry and one chained onto
	// another device's head are the two valid chains of the matrix.
	if byDecode == 0 || byLink != 2 {
		t.Fatalf("%d mutants refused by decode, %d by the link: the matrix lost a row", byDecode, byLink)
	}
	// The honest segment is still welcome, live and at rest.
	seg, err := oplog.UnmarshalSegment(good)
	if err == nil {
		err = st.AppendSegmentBlob(seg, nvmeoe.EncodeSegmentBlob(good))
	}
	if err != nil {
		t.Fatal(err)
	}
	if got, want := reloaded(t, st).Head(1), st.Head(1); got != want || want.NextSeq != target.LastSeq {
		t.Fatalf("reloaded head %+v, live %+v", got, want)
	}
}

// blobAs wraps raw in the given codec whatever it saves: stored, as an honest
// server answers a fetch, or deflated, as another server may.
func blobAs(codec nvmeoe.Codec, raw []byte) []byte {
	blob := nvmeoe.AppendStoredHeader(nil, len(raw))
	if codec == nvmeoe.CodecStored {
		return append(blob, raw...)
	}
	d := bufpool.GetDeflater()
	defer d.Release()
	blob, _ = d.Append(blob, raw) // the error is always nil
	blob[4] = byte(codec)         // the header's codec byte
	return blob
}

// scriptedServer answers one device session's fetches with a stream of the
// frames reply returns for them, each wrapped in codec, then MsgFetchEnd: the
// hostile (or broken) server a client must not believe.
func scriptedServer(t *testing.T, codec nvmeoe.Codec, reply func(req nvmeoe.FetchReq) [][]byte) *Client {
	t.Helper()
	dc, sc := net.Pipe()
	go func() {
		conn, _, err := nvmeoe.ServerHandshake(sc, func(uint64) ([]byte, bool) { return psk, true })
		if err != nil {
			sc.Close()
			return
		}
		defer conn.Close()
		for {
			_, body, err := conn.ReadMsg()
			if err != nil {
				return
			}
			req, err := nvmeoe.UnmarshalFetchReq(body)
			if err != nil {
				return
			}
			for _, raw := range reply(req) {
				if conn.WriteMsg(nvmeoe.MsgFetchResp, blobAs(codec, raw)) != nil {
					return
				}
			}
			if conn.WriteMsg(nvmeoe.MsgFetchEnd, nil) != nil {
				return
			}
		}
	}()
	cl, err := Dial(dc, psk, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// TestTamperMatrixFetchEntries: a FetchEntries reply of three frames, each
// frame in turn tampered every way the matrix knows while the others stay
// honest. The client returns an error and no entries for every row but the
// two that are valid chains once resealed: that frame's entries come back
// starting at another sequence, or from another previous hash, than the
// honest frame's — what the caller holds against the frame before and against
// what it already has (forensic.Timeline, core.Reopen). A row that makes the
// stream longer than the range asked for (an entry duplicated in the last
// frame) is refused as a stream out of bounds. Every row is served stored,
// which the client decodes from the frame payload in place, and deflated.
func TestTamperMatrixFetchEntries(t *testing.T) {
	prefix, target := tamperChain(1, 42)
	otherPrefix, _ := tamperChain(2, 43)
	chain := append(append([]oplog.Entry(nil), prefix.Entries...), target.Entries...)
	cuts := []int{0, 20, 50, len(chain)}
	first, end := chain[0].Seq, chain[len(chain)-1].Seq+1
	honest := make([][]byte, len(cuts)-1)
	for f := range honest {
		honest[f] = (&oplog.Segment{DeviceID: 1, Entries: chain[cuts[f]:cuts[f+1]]}).Marshal()
	}
	foreign := otherPrefix.Entries[len(otherPrefix.Entries)-1].Hash

	for _, codec := range []nvmeoe.Codec{nvmeoe.CodecStored, nvmeoe.CodecDeflate} {
		frames := honest
		cl := scriptedServer(t, codec, func(nvmeoe.FetchReq) [][]byte { return frames })
		if got, err := cl.FetchEntries(first, end); err != nil || !reflect.DeepEqual(got, chain) {
			t.Fatalf("%v, untampered: %d entries, err=%v", codec, len(got), err)
		}
		for f, good := range honest {
			entries, off := chain[cuts[f]:cuts[f+1]], cuts[f]
			tamperMatrix(t, good, len(entries), 11, foreign, func(m mutant) {
				frames = slices.Clone(honest)
				frames[f] = m.raw
				got, err := cl.FetchEntries(first, end)
				if n := int(binary.LittleEndian.Uint32(m.raw[segHdrCount:])); err == nil && m.resealed && len(got) >= off+n && n > 0 &&
					oplog.VerifyChain(got[off:off+n], got[off].PrevHash) == nil &&
					(got[off].PrevHash != entries[0].PrevHash || got[off].Seq != entries[0].Seq) {
					return // a chain, but from somewhere else: the caller's compare
				}
				if err == nil || got != nil || !errors.Is(err, oplog.ErrBadSegment) && !errors.Is(err, ErrEntriesStream) {
					t.Fatalf("%v frame %d, %s (resealed=%v): %d entries, err=%v, want none and ErrBadSegment", codec, f, m.what, m.resealed, len(got), err)
				}
			})
		}
		// The session is still in step: every refused stream was read to its end.
		frames = honest
		if got, err := cl.FetchEntries(first, end); err != nil || !reflect.DeepEqual(got, chain) {
			t.Fatalf("%v, untampered after the matrix: %d entries, err=%v", codec, len(got), err)
		}
	}
}
