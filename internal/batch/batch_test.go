package batch

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"repro/internal/simclock"
)

func TestReadDests(t *testing.T) {
	const page = 8
	own := make([]byte, page)
	run := []Op{
		{Kind: OpRead, LPN: 0},
		{Kind: OpRead, LPN: 1, Data: own},
		{Kind: OpRead, LPN: 2},
		{Kind: OpRead, LPN: 3, Data: make([]byte, page-1)},
	}
	dst := ReadDests([][]byte{[]byte("kept")}, run, page)
	if len(dst) != 1+len(run) || string(dst[0]) != "kept" {
		t.Fatalf("ReadDests did not append one destination per op: %q", dst)
	}
	a, mine, b, bad := dst[1], dst[2], dst[3], dst[4]
	if &mine[0] != &own[0] {
		t.Error("a read with a page of Data does not land in it")
	}
	if bad != nil {
		t.Errorf("a wrong-length Data got destination %q, want nil", bad)
	}
	for _, d := range [][]byte{a, b} {
		if len(d) != page || cap(d) != page {
			t.Fatalf("allocated destination len %d cap %d, want %d and %d", len(d), cap(d), page, page)
		}
	}
	// The capped capacity forces an append to reallocate instead of
	// running into the next read's page.
	copy(b, bytes.Repeat([]byte{7}, page))
	_ = append(a, 1, 2, 3)
	if !bytes.Equal(b, bytes.Repeat([]byte{7}, page)) {
		t.Errorf("appending to one read's page wrote into the next: %v", b)
	}
}

func TestForEachRun(t *testing.T) {
	ops := []Op{{Kind: OpWrite}, {Kind: OpWrite}, {Kind: OpRead}, {Kind: OpTrim}, {Kind: OpTrim}, {Kind: OpWrite}}
	type run struct {
		start, end int
		kind       Kind
	}
	var got []run
	collect := func(start, end int, kind Kind) error {
		got = append(got, run{start, end, kind})
		return nil
	}
	if err := ForEachRun(ops, collect); err != nil {
		t.Fatal(err)
	}
	want := []run{{0, 2, OpWrite}, {2, 3, OpRead}, {3, 5, OpTrim}, {5, 6, OpWrite}}
	if !slices.Equal(got, want) {
		t.Fatalf("runs %v, want %v", got, want)
	}

	stop := errors.New("stop")
	got = nil
	err := ForEachRun(ops, func(start, end int, kind Kind) error {
		collect(start, end, kind)
		if kind == OpRead {
			return stop
		}
		return nil
	})
	if err != stop || len(got) != 2 {
		t.Fatalf("err %v after %d runs, want the first error after 2", err, len(got))
	}
}

// device answers every batch with fixed results.
type device struct {
	res  []Result
	done simclock.Time
	err  error
}

func (d device) SubmitBatch([]Op, simclock.Time) ([]Result, simclock.Time, error) {
	return d.res, d.done, d.err
}

func TestSubmitOne(t *testing.T) {
	op := Op{Kind: OpRead, LPN: 4}
	res, done, err := SubmitOne(device{res: []Result{{Data: []byte("x"), Done: 9}}, done: 9}, op, 3)
	if err != nil || string(res.Data) != "x" || res.Done != 9 || done != 9 {
		t.Fatalf("SubmitOne = %+v, %v, %v", res, done, err)
	}

	full := errors.New("device full")
	res, done, err = SubmitOne(device{done: 5, err: full}, op, 3)
	if err != full || res.Err != full || res.Done != 3 || done != 5 {
		t.Fatalf("batch error not passed through: %+v, %v, %v", res, done, err)
	}
}
