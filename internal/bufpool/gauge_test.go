package bufpool

import (
	"bytes"
	"testing"
)

// The gauge must balance across every Release edge case the pool
// documents: exact-class returns, grown buffers dropped instead of pooled,
// oversize rentals that never pool, and double releases.
func TestOutstandingGaugeBalances(t *testing.T) {
	base := Outstanding()

	var held []*Buf
	for _, n := range []int{1, 512, 513, 4096, 100_000, 1 << maxClassShift} {
		held = append(held, Get(n))
	}
	if d := Outstanding().Sub(base); d.Total() != int64(len(held)) {
		t.Fatalf("outstanding delta %d after %d gets: %+v", d.Total(), len(held), d)
	}
	for _, b := range held {
		b.Release()
	}
	if d := Outstanding().Sub(base); d != (Gauge{}) {
		t.Fatalf("balanced after releases: %+v", d)
	}
}

func TestOutstandingGaugeGrownAndOversize(t *testing.T) {
	base := Outstanding()

	// A buffer that grows onto a non-class capacity is dropped by Release
	// (not re-pooled) but must still settle the gauge at its birth class.
	b := Get(1024)
	b.B = append(b.B, make([]byte, 5000)...)
	b.Release()
	if d := Outstanding().Sub(base); d != (Gauge{}) {
		t.Fatalf("grown buffer leaked in gauge: %+v", d)
	}

	// Oversize rentals bypass the pools entirely yet balance through the
	// dedicated bucket.
	big := Get((1 << maxClassShift) + 1)
	if d := Outstanding().Sub(base); d.Oversize != 1 {
		t.Fatalf("oversize delta %d, want 1", d.Oversize)
	}
	big.Release()
	if d := Outstanding().Sub(base); d != (Gauge{}) {
		t.Fatalf("oversize rental leaked in gauge: %+v", d)
	}

	// Double release must not decrement twice; nil release is a no-op.
	b2 := Get(2048)
	b2.Release()
	b2.Release()
	(*Buf)(nil).Release()
	// A directly constructed Buf was never rented: releasing it must not
	// move the gauge.
	(&Buf{B: make([]byte, 0, 4096)}).Release()
	if d := Outstanding().Sub(base); d != (Gauge{}) {
		t.Fatalf("double/foreign release moved gauge: %+v", d)
	}
}

// AppendLimited rejects streams whose decoded size exceeds the declared
// bound — the guard that keeps a corrupted codec header from inflating
// without bound on the server ingest path.
func TestInflaterAppendLimited(t *testing.T) {
	raw := bytes.Repeat([]byte("retention window "), 4096) // compresses well
	d := GetDeflater()
	comp, err := d.Append(nil, raw)
	d.Release()
	if err != nil {
		t.Fatal(err)
	}

	inf := GetInflater()
	defer inf.Release()
	out, err := inf.AppendLimited(nil, comp, len(raw))
	if err != nil || !bytes.Equal(out, raw) {
		t.Fatalf("limited inflate at exact bound: err=%v, equal=%v", err, bytes.Equal(out, raw))
	}
	if _, err := inf.AppendLimited(nil, comp, len(raw)-1); err == nil {
		t.Fatal("stream over the bound decoded without error")
	}
	// The plain Append path stays unlimited after a limited call.
	out, err = inf.Append(nil, comp)
	if err != nil || !bytes.Equal(out, raw) {
		t.Fatalf("unlimited inflate after limited call: err=%v", err)
	}
}
