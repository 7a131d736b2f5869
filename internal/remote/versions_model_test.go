package remote

import (
	"bytes"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/oplog"
	"repro/internal/simclock"
)

// modelVersion is one version as the reference model holds it: the record
// without its payload, and the device's segment that carried it.
type modelVersion struct {
	rec oplog.PageRecord
	seg int
}

// versionModel is the version index as plain sorted slices, the form the
// store kept it in before its chains: per device and LPN, the versions sorted
// by WriteSeq, a later arrival after the ones with the same WriteSeq.
type versionModel map[uint64]map[uint64][]modelVersion

func (m versionModel) insert(dev uint64, seg int, p oplog.PageRecord) {
	if m[dev] == nil {
		m[dev] = map[uint64][]modelVersion{}
	}
	p.Data = nil
	vs := m[dev][p.LPN]
	i := sort.Search(len(vs), func(i int) bool { return vs[i].rec.WriteSeq > p.WriteSeq })
	m[dev][p.LPN] = slices.Insert(vs, i, modelVersion{p, seg})
}

// drop removes the versions the device's segment seg carried.
func (m versionModel) drop(dev uint64, seg int) {
	for lpn, vs := range m[dev] {
		vs = slices.DeleteFunc(vs, func(v modelVersion) bool { return v.seg == seg })
		if len(vs) == 0 {
			delete(m[dev], lpn)
		} else {
			m[dev][lpn] = vs
		}
	}
}

// newest is the model's answer to Store.Version.
func (m versionModel) newest(dev, lpn, before uint64) (oplog.PageRecord, bool) {
	vs := m[dev][lpn]
	i := sort.Search(len(vs), func(i int) bool { return vs[i].rec.WriteSeq >= before })
	if i == 0 {
		return oplog.PageRecord{}, false
	}
	return vs[i-1].rec, true
}

// held is the model's answer to Store.HeldVersions.
func (m versionModel) held(dev uint64) []oplog.PageRecord {
	lpns := make([]uint64, 0, len(m[dev]))
	for lpn := range m[dev] {
		lpns = append(lpns, lpn)
	}
	slices.Sort(lpns)
	var out []oplog.PageRecord
	for _, lpn := range lpns {
		for _, v := range m[dev][lpn] {
			out = append(out, v.rec)
		}
	}
	return out
}

// sameRecord compares a store's record with the model's; a record with a
// payload must carry the content its hash names.
func sameRecord(got, want oplog.PageRecord, content map[[oplog.HashSize]byte][]byte) bool {
	if got.Data != nil && !bytes.Equal(got.Data, content[got.Hash]) {
		return false
	}
	return got.LPN == want.LPN && got.WriteSeq == want.WriteSeq && got.StaleSeq == want.StaleSeq &&
		got.Cause == want.Cause && got.Hash == want.Hash
}

// TestVersionIndexMatchesSortedModel interleaves, for two devices drawing on
// one small content pool (an empty page among them), ingests of segments
// with entries and pages, of entry-only segments and of late pages-only
// segments whose WriteSeqs are older than versions already held, expiries of
// random segments (some twice) and Reloads. After every step the store's
// Version, ImageRange, HeldVersions, DeviceStats().Versions and chunk
// reference count must equal what versionModel says.
func TestVersionIndexMatchesSortedModel(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		st := NewStore(NewMemStore())
		pool := append(dedupContent(6), []byte{})
		content := map[[oplog.HashSize]byte][]byte{}
		for _, c := range pool {
			content[oplog.HashData(c)] = c
		}
		devs := []uint64{1, 2}
		logs := map[uint64]*oplog.Log{1: oplog.New(), 2: oplog.New()}
		model := versionModel{}
		const lpns = 12
		page := func(lpn, writeSeq uint64) oplog.PageRecord {
			data := pool[rng.Intn(len(pool))]
			return oplog.PageRecord{LPN: lpn, WriteSeq: writeSeq, StaleSeq: writeSeq + 1, Cause: uint8(rng.Intn(3)), Hash: oplog.HashData(data), Data: data}
		}
		compare := func(step int, what string) {
			t.Helper()
			fail := func(format string, args ...any) {
				t.Helper()
				t.Fatalf("seed %d step %d (%s): "+format, append([]any{seed, step, what}, args...)...)
			}
			refs := int64(0)
			hashes := map[[oplog.HashSize]byte]bool{}
			for _, dev := range devs {
				want := model.held(dev)
				refs += int64(len(want))
				for _, p := range want {
					hashes[p.Hash] = true
				}
				if n := st.DeviceStats(dev).Versions; n != len(want) {
					fail("device %d: DeviceStats().Versions = %d, model %d", dev, n, len(want))
				}
				got := st.HeldVersions(dev)
				if len(got) != len(want) {
					fail("device %d: HeldVersions lists %d, model %d", dev, len(got), len(want))
				}
				for i := range got {
					if got[i].Data != nil || !sameRecord(got[i], want[i], content) {
						fail("device %d: HeldVersions[%d] = %+v, model %+v", dev, i, got[i], want[i])
					}
				}
				next := logs[dev].NextSeq()
				for before := uint64(0); before <= next+1; before++ {
					var image []oplog.PageRecord
					for lpn := uint64(0); lpn <= lpns; lpn++ {
						g, gok := st.Version(dev, lpn, before)
						w, wok := model.newest(dev, lpn, before)
						if gok != wok || gok && !sameRecord(g, w, content) {
							fail("device %d: Version(%d, %d) = %+v %v, model %+v %v", dev, lpn, before, g, gok, w, wok)
						}
						if wok {
							image = append(image, w)
						}
					}
					var streamed []oplog.PageRecord
					for from, more := uint64(0), true; more; {
						var chunk []oplog.PageRecord
						chunk, from, more = st.ImageRange(dev, from, ^uint64(0), before, 1+rng.Intn(4), nil)
						streamed = append(streamed, chunk...)
					}
					if len(streamed) != len(image) {
						fail("device %d: ImageRange before %d streams %d pages, model %d", dev, before, len(streamed), len(image))
					}
					for i := range streamed {
						if !sameRecord(streamed[i], image[i], content) {
							fail("device %d: ImageRange before %d page %d = %+v, model %+v", dev, before, i, streamed[i], image[i])
						}
					}
				}
			}
			if ds := st.Dedup(); ds.TotalRefs != refs || ds.UniquePages != len(hashes) {
				fail("chunk index holds %d contents with %d refs, model %d with %d", ds.UniquePages, ds.TotalRefs, len(hashes), refs)
			}
		}
		for step := 0; step < 80; step++ {
			dev := devs[rng.Intn(len(devs))]
			l := logs[dev]
			what := "ingest"
			switch x := rng.Intn(100); {
			case x < 65 || l.NextSeq() == 0:
				seg := &oplog.Segment{DeviceID: dev, FirstSeq: l.NextSeq()}
				switch y := rng.Intn(10); {
				case y < 5 || l.NextSeq() == 0: // entries, each with its page
					for range 1 + rng.Intn(5) {
						p := page(uint64(rng.Intn(lpns)), l.NextSeq())
						seg.Entries = append(seg.Entries, l.Append(oplog.KindWrite, simclock.Time(step), p.LPN, 0, p.LPN, 1, p.Hash))
						seg.Pages = append(seg.Pages, p)
					}
				case y < 6:
					what = "entry-only ingest"
					seg.Entries = append(seg.Entries, l.Append(oplog.KindRead, simclock.Time(step), 0, 0, 0, 1, [oplog.HashSize]byte{}))
				default:
					what = "late pages-only ingest"
					for range 1 + rng.Intn(4) {
						seg.Pages = append(seg.Pages, page(uint64(rng.Intn(lpns)), uint64(rng.Int63n(int64(l.NextSeq())))))
					}
				}
				seg.LastSeq = l.NextSeq()
				i := st.DeviceStats(dev).Segments
				if err := appendDecoded(st, seg); err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
				for _, p := range seg.Pages {
					model.insert(dev, i, p)
				}
			case x < 90:
				what = "expiry"
				n := st.DeviceStats(dev).Segments
				if n == 0 {
					continue
				}
				i := rng.Intn(n)
				if err := st.DropSegmentPages(dev, i); err != nil {
					t.Fatalf("seed %d step %d: drop segment %d: %v", seed, step, i, err)
				}
				model.drop(dev, i)
			default:
				what = "Reload"
				if err := st.Reload(); err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
			}
			compare(step, what)
		}
	}
}
