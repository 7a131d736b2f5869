package remote

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/nvmeoe"
	"repro/internal/oplog"
	"repro/internal/simclock"
)

// reloadHistory ingests a seeded history into st for two devices whose pages
// draw on one small content pool: segments with entries and their pages,
// runs of pages-only segments (retained pages whose entries shipped earlier,
// as a GC flood sends them), page contents repeated within and across
// devices (dedup references), and checkpoints, some pushed twice at one
// sequence so the second replaces the first.
func reloadHistory(t *testing.T, st *Store, seed int64, devs []uint64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pool := dedupContent(5)
	logs := map[uint64]*oplog.Log{}
	for _, id := range devs {
		logs[id] = oplog.New()
	}
	page := func(lpn, writeSeq uint64) oplog.PageRecord {
		data := pool[rng.Intn(len(pool))]
		return oplog.PageRecord{LPN: lpn, WriteSeq: writeSeq, StaleSeq: writeSeq + 1, Hash: oplog.HashData(data), Data: data}
	}
	for step := 0; step < 60; step++ {
		id := devs[rng.Intn(len(devs))]
		l := logs[id]
		seg := &oplog.Segment{DeviceID: id, FirstSeq: l.NextSeq()}
		switch r := rng.Intn(8); {
		case r < 4 || l.NextSeq() == 0:
			for range 1 + rng.Intn(5) {
				lpn := uint64(rng.Intn(16))
				p := page(lpn, l.NextSeq())
				e := l.Append(oplog.KindWrite, simclock.Time(step), lpn, 0, lpn, 1, p.Hash)
				seg.Entries = append(seg.Entries, e)
				seg.Pages = append(seg.Pages, p)
			}
		case r < 7:
			for range 1 + rng.Intn(3) {
				seg.Pages = append(seg.Pages, page(uint64(rng.Intn(16)), uint64(rng.Int63n(int64(l.NextSeq())))))
			}
		default:
			for range 1 + rng.Intn(2) {
				cp := nvmeoe.Checkpoint{Seq: l.NextSeq(), WriteSeqs: make([]uint64, 16)}
				for i := range cp.WriteSeqs {
					cp.WriteSeqs[i] = uint64(rng.Int63n(int64(l.NextSeq())))
				}
				if err := st.AppendCheckpoint(id, cp); err != nil {
					t.Fatal(err)
				}
			}
			continue
		}
		seg.LastSeq = l.NextSeq()
		if err := st.AppendSegment(seg); err != nil {
			t.Fatalf("seed %d step %d: %v", seed, step, err)
		}
	}
}

// expire drops the pages of every third stored segment of each device, the
// retention-expiry primitive.
func expire(t *testing.T, st *Store, devs []uint64) {
	t.Helper()
	for _, id := range devs {
		for i := 1; i < st.DeviceStats(id).Segments; i += 3 {
			if err := st.DropSegmentPages(id, i); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestReloadMatchesLiveStore: a store rebuilt by Reload from the object tier
// answers every query as the live store that wrote the tier does — the
// chain head, the held listing, the image at every cut, the checkpoints,
// the segment count and each segment's bytes — after a history with runs of
// pages-only segments, and after the live store expired some of them: the
// blobs stay, as evidence, and Reload applies the expiry tombstones. Which
// device first held a shared content follows the order the two rebuild in,
// so the dedup-hit ledger is left out.
func TestReloadMatchesLiveStore(t *testing.T) {
	devs := []uint64{7, 8}
	for seed := int64(1); seed <= 8; seed++ {
		live := NewStore(NewMemStore())
		reloadHistory(t, live, seed, devs)
		expire(t, live, devs)
		reloaded := NewStore(live.Blobs())
		if err := reloaded.Reload(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, id := range devs {
			what := fmt.Sprintf("seed %d device %d", seed, id)
			sameStore(t, what, reloaded, live, id)
		}
	}
}

func sameStore(t *testing.T, what string, got, want *Store, id uint64) {
	t.Helper()
	gs, ws := got.DeviceStats(id), want.DeviceStats(id)
	gs.PagesDeduped, ws.PagesDeduped = 0, 0
	if gs != ws {
		t.Fatalf("%s: reloaded stats %+v, live %+v", what, gs, ws)
	}
	head := want.Head(id)
	if g := got.Head(id); g != head {
		t.Fatalf("%s: reloaded head %+v, live %+v", what, g, head)
	}
	if g, w := got.HeldVersions(id), want.HeldVersions(id); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: reloaded store holds %d versions, live %d", what, len(g), len(w))
	}
	for before := uint64(0); before <= head.NextSeq+1; before++ {
		g, _, _ := got.ImageRange(id, 0, ^uint64(0), before, 1<<20, nil)
		w, _, _ := want.ImageRange(id, 0, ^uint64(0), before, 1<<20, nil)
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: image before %d: reloaded %d pages, live %d", what, before, len(g), len(w))
		}
		gc, gok := got.Checkpoint(id, before)
		wc, wok := want.Checkpoint(id, before)
		if gok != wok || !reflect.DeepEqual(gc, wc) {
			t.Fatalf("%s: checkpoint at or before %d: reloaded %+v, live %+v", what, before, gc, wc)
		}
	}
	for i := range ws.Segments {
		g, err := got.FetchSegment(id, i)
		if err != nil {
			t.Fatal(err)
		}
		w, err := want.FetchSegment(id, i)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g.Marshal(), w.Marshal()) {
			t.Fatalf("%s: segment %d differs after Reload", what, i)
		}
	}
}
