// Power cycle: write history, shut down cleanly, reopen the same flash
// array with a fresh firmware instance, and show that the live state, the
// full version history, and the evidence chain all survive — then do it
// again with a crash and show the honest rollback to the last durable
// point.
//
//	go run ./examples/power-cycle
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/remote"
	"repro/internal/simclock"
)

func main() {
	psk := []byte("power-cycle-psk-0123456789abcdef")
	store := remote.NewStore(remote.NewMemStore())
	server := remote.NewServer(store, psk)
	client, err := remote.Loopback(server, psk, 1)
	if err != nil {
		log.Fatal(err)
	}

	cfg := core.DefaultConfig()
	dev := core.New(cfg, client)
	at := simclock.Time(0)
	page := func(s string) []byte {
		p := make([]byte, dev.PageSize())
		copy(p, s)
		return p
	}

	fmt.Println("Generation 1: writing three versions of page 0, trimming page 1...")
	at, _ = dev.Write(0, page("v1"), at)
	at, _ = dev.Write(0, page("v2"), at)
	at, _ = dev.Write(0, page("v3"), at)
	at, _ = dev.Write(1, page("doomed"), at)
	at, _ = dev.Trim(1, at)

	// Clean shutdown: drain retention and the log tail.
	if _, err := dev.OffloadNow(at); err != nil {
		log.Fatal(err)
	}
	nand := dev.FTL().Device() // the flash array outlives the firmware
	client.Close()

	fmt.Println("Power cycle. Reopening the same flash with fresh firmware...")
	client2, err := remote.Loopback(server, psk, 1)
	if err != nil {
		log.Fatal(err)
	}
	dev2, err := core.Reopen(cfg, nand, client2)
	if err != nil {
		log.Fatal(err)
	}

	cur, at2, _ := dev2.Read(0, at)
	fmt.Printf("  live state:   page 0 = %q, page 1 trimmed reads zeroes\n", string(cur[:2]))
	for seq := uint64(1); seq <= 3; seq++ {
		v, _, _ := dev2.VersionBefore(0, seq, at2)
		fmt.Printf("  history:      version before op %d = %q\n", seq, string(v[:2]))
	}
	fmt.Printf("  chain:        resumed at seq %d, splicing onto the remote head\n", dev2.Log().NextSeq())
	st := dev2.Stats()
	fmt.Printf("  retention:    %d stale pages on flash already held by the server (released), %d re-pinned to ship again\n",
		st.ReopenHeld, st.ReopenRepinned)

	fmt.Println("\nGeneration 2: one write, then CRASH without offloading...")
	at2, _ = dev2.Write(0, page("v4-uncommitted"), at2)
	client2.Close() // the log entry for v4 dies in device RAM

	client3, err := remote.Loopback(server, psk, 1)
	if err != nil {
		log.Fatal(err)
	}
	defer client3.Close()
	dev3, err := core.Reopen(cfg, dev2.FTL().Device(), client3)
	if err != nil {
		log.Fatal(err)
	}
	cur, _, _ = dev3.Read(0, at2)
	fmt.Printf("  after crash:  page 0 = %q (rolled back to the last durable state)\n", string(cur[:2]))
	fmt.Println("  a journaled rollback, not silent corruption: the chain stays verifiable")
}
