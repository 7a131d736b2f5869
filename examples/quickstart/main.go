// Quickstart: stand up an RSSD with an in-process remote server, do some
// I/O, and look at what the device retains.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/remote"
	"repro/internal/simclock"
)

func main() {
	// 1. Remote side: a log store over an in-memory object store, served
	// to devices that present the enrollment key.
	psk := []byte("quickstart-psk-0123456789abcdef0")
	store := remote.NewStore(remote.NewMemStore())
	server := remote.NewServer(store, psk)

	// 2. Device side: an RSSD wired to the server over an in-process
	// NVMe-oE session (use examples/remote-offload for real TCP).
	client, err := remote.Loopback(server, psk, 1)
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	cfg := core.DefaultConfig()
	dev := core.New(cfg, client)
	fmt.Printf("RSSD ready: %d logical pages x %d bytes\n", dev.LogicalPages(), dev.PageSize())

	// 3. Ordinary block I/O. Every operation lands in the hash-chained
	// operation log; every overwritten or trimmed version is retained.
	at := simclock.Time(0)
	page := func(s string) []byte {
		p := make([]byte, dev.PageSize())
		copy(p, s)
		return p
	}
	at, _ = dev.Write(0, page("v1: the quarterly report"), at)
	at, _ = dev.Write(0, page("v2: the quarterly report, revised"), at)
	at, _ = dev.Trim(0, at) // even trim does not destroy data on RSSD

	data, at, _ := dev.Read(0, at)
	fmt.Printf("current content after trim: %q (zeroes)\n", string(data[:2]))

	// 4. Both old versions are still there.
	for _, before := range []uint64{1, 2, 3} {
		v, ws, err := dev.VersionBefore(0, before, at)
		if err != nil {
			log.Fatal(err)
		}
		from := "zeroes"
		if ws != core.NoSeq {
			from = fmt.Sprintf("written by op %d", ws)
		}
		fmt.Printf("content just before op %d (%s): %.34q\n", before, from, string(v))
	}

	// 5. Drain retention to the remote server and look at the footprint.
	if _, err := dev.OffloadNow(at); err != nil {
		log.Fatal(err)
	}
	st := dev.Stats()
	rs := store.DeviceStats(1)
	fmt.Printf("device: %d writes, %d trims, %d segments offloaded\n",
		st.HostWrites, st.HostTrims, st.OffloadSegments)
	fmt.Printf("remote: %d log entries, %d retained versions, %d bytes\n",
		rs.Entries, rs.Versions, rs.PageBytes)
	fmt.Printf("log chain head sequence: %d (tamper-evident, SHA-256 chained)\n",
		dev.Log().NextSeq())
}
