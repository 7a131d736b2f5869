package core

import (
	"testing"
)

// TestOffloadWireBytesCompressed: segments built from compressible host
// data must cross the link smaller than their logical size, and the device
// and the remote store must agree on both sides of the ratio. Offload is
// always asynchronous (a background shipper drains sealed segments); the
// subtest names the mode it runs.
func TestOffloadWireBytesCompressed(t *testing.T) {
	t.Run("async", func(t *testing.T) {
		e := newEnv(t, testConfig())
		defer e.r.Close()

		// fill() pages are a single repeated byte: deflate crushes them.
		at := churn(t, e.r, 6, 6, 0)
		at = e.r.DrainOffload(at)
		if _, err := e.r.OffloadNow(at); err != nil {
			t.Fatal(err)
		}

		st := e.r.Stats()
		if st.OffloadSegments == 0 {
			t.Fatal("no segments shipped")
		}
		if st.OffloadBytesWire == 0 || st.OffloadBytesLogical == 0 {
			t.Fatalf("wire accounting missing: %+v", st)
		}
		if st.OffloadBytesWire >= st.OffloadBytesLogical {
			t.Fatalf("wire %d >= logical %d: compression not applied on the offload path",
				st.OffloadBytesWire, st.OffloadBytesLogical)
		}
		ds := e.store.DeviceStats(e.r.DeviceID())
		if uint64(ds.BytesStored) != st.OffloadBytesWire {
			t.Fatalf("store holds %d bytes, device shipped %d wire bytes", ds.BytesStored, st.OffloadBytesWire)
		}
		if uint64(ds.BytesLogical) != st.OffloadBytesLogical {
			t.Fatalf("store logical %d, device logical %d", ds.BytesLogical, st.OffloadBytesLogical)
		}
	})
}
