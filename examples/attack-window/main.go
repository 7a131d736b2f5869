// Attack window: build a history, let ransomware strike, and produce the
// trusted post-attack analysis report — then demonstrate tamper evidence
// by showing that altered history cannot be re-injected into the remote
// store.
//
//	go run ./examples/attack-window
package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"

	"repro/internal/attack"
	"repro/internal/experiment"
	"repro/internal/forensic"
	"repro/internal/oplog"
	"repro/internal/simclock"
)

func main() {
	rig, err := experiment.NewRSSDRig(experiment.FullScale())
	if err != nil {
		log.Fatal(err)
	}
	defer rig.Client.Close()

	rng := rand.New(rand.NewSource(7))
	if _, _, err := attack.Seed(rig.FS, rng, 30, 4); err != nil {
		log.Fatal(err)
	}
	if err := attack.RunBenign(rig.FS, rng, 400, simclock.Minute); err != nil {
		log.Fatal(err)
	}
	if _, err := (&attack.TimingAttack{
		Key: [32]byte{0xBA, 0xD}, FilesPerBurst: 2,
		BurstInterval: 18 * simclock.Hour, CoverOpsPerOp: 4,
	}).Run(rig.FS, rng); err != nil {
		log.Fatal(err)
	}
	if _, err := rig.Dev.OffloadNow(rig.FS.Clock().Now()); err != nil {
		log.Fatal(err)
	}

	an := forensic.NewAnalyzer(rig.Dev, rig.Client)
	ev, err := an.Timeline()
	if err != nil {
		log.Fatal(err)
	}
	win, err := an.AttackWindow(ev, rig.Dev.Log().NextSeq())
	if err != nil {
		log.Fatal(err)
	}
	if err := an.WriteReport(os.Stdout, ev, win); err != nil {
		log.Fatal(err)
	}

	// Drill into one victim page's history.
	if len(win.Victims) > 0 {
		lpn := win.Victims[0]
		fmt.Printf("\nPer-page history of victim LPN %d:\n", lpn)
		for _, e := range an.PageHistory(ev, lpn) {
			fmt.Printf("  seq %-6d %-8s at %-16v entropy %.2f\n", e.Seq, e.Kind, e.At, e.Entropy)
		}
	}

	// Tamper evidence: an attacker who compromises the host cannot
	// rewrite offloaded history. Rewriting an entry breaks the SHA-256
	// chain, which both VerifyChain and the remote ingest path reject.
	fmt.Println("\nTamper-evidence demo:")
	tampered := append([]oplog.Entry(nil), ev.Entries...)
	tampered[len(tampered)/2].LPN = 424242 // rewrite history
	if err := oplog.VerifyChain(tampered, [32]byte{}); err != nil {
		fmt.Printf("  altered timeline rejected: %v\n", err)
	} else {
		fmt.Println("  !!! tampering was not detected")
	}
}
