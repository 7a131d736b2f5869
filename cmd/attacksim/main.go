// Command attacksim replays one ransomware attack against one system and
// walks through the full incident lifecycle: seeding a user corpus, benign
// traffic, the attack, remote detection, forensic analysis, and (on RSSD)
// recovery. It prints the investigation report the forensic analyzer
// produces.
//
//	attacksim -attack trimming-attack -system RSSD
//	attacksim -attack gc-attack -system LocalSSD
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"repro/internal/attack"
	"repro/internal/detect"
	"repro/internal/experiment"
	"repro/internal/forensic"
	"repro/internal/recovery"
	"repro/internal/simclock"
)

func main() {
	atkName := flag.String("attack", "encryptor", "attack model (encryptor, gc-attack, timing-attack, trimming-attack)")
	system := flag.String("system", "RSSD", "system under test (RSSD, LocalSSD)")
	files := flag.Int("files", 40, "user files to seed")
	seed := flag.Int64("seed", 1, "deterministic run seed")
	flag.Parse()

	if err := run(*atkName, *system, *files, *seed); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(atkName, system string, files int, seed int64) error {
	s := experiment.FullScale()
	s.SeedFiles = files
	rng := rand.New(rand.NewSource(seed))

	var atk attack.Attack
	key := [32]byte{0xFE, 0xED}
	switch atkName {
	case "encryptor":
		atk = &attack.Encryptor{Key: key}
	case "gc-attack":
		atk = &attack.GCAttack{Key: key, Rounds: 2}
	case "timing-attack":
		atk = &attack.TimingAttack{Key: key, FilesPerBurst: 2, BurstInterval: 24 * simclock.Hour, CoverOpsPerOp: 3}
	case "trimming-attack":
		atk = &attack.TrimmingAttack{Key: key}
	default:
		return fmt.Errorf("unknown attack %q", atkName)
	}

	if system == "LocalSSD" {
		rig := experiment.NewBaselineRig(s, nil, nil)
		if _, _, err := attack.Seed(rig.FS, rng, files, s.MaxFilePages); err != nil {
			return err
		}
		rep, err := atk.Run(rig.FS, rng)
		if err != nil {
			return err
		}
		fmt.Println(rep)
		fmt.Printf("LocalSSD has no retention, detection, or forensics: %d stale pages already physically erased, victim data unrecoverable.\n",
			rig.FTL.Stats().StaleErased)
		return nil
	}
	if system != "RSSD" {
		return fmt.Errorf("unknown system %q", system)
	}

	rig, err := experiment.NewRSSDRig(s)
	if err != nil {
		return err
	}
	defer rig.Client.Close()

	// Offloaded detection watches the remote store.
	engine := detect.NewEngine(detect.DefaultConfig())
	engine.Attach(rig.Store)
	engine.OnAlert = func(a detect.Alert) { fmt.Printf("[detector] %s\n", a) }

	fmt.Printf("Seeding %d user files and benign traffic...\n", files)
	if _, _, err := attack.Seed(rig.FS, rng, files, s.MaxFilePages); err != nil {
		return err
	}
	if err := attack.RunBenign(rig.FS, rng, 200, simclock.Minute); err != nil {
		return err
	}

	fmt.Printf("Launching %s...\n", atkName)
	rep, err := atk.Run(rig.FS, rng)
	if err != nil {
		return err
	}
	fmt.Println(rep)

	// Flush the tail of the log so the analyst sees everything.
	if _, err := rig.Dev.OffloadNow(rig.FS.Clock().Now()); err != nil {
		return err
	}
	for _, a := range engine.Alerts() {
		fmt.Printf("[detector] alert on record: %s\n", a)
	}

	an := forensic.NewAnalyzer(rig.Dev, rig.Client)
	ev, err := an.Timeline()
	if err != nil {
		return err
	}
	win, err := an.AttackWindow(ev, rig.Dev.Log().NextSeq())
	if err != nil {
		return err
	}
	if err := an.WriteReport(os.Stdout, ev, win); err != nil {
		return err
	}

	eng := recovery.NewEngine(rig.Dev, rig.Client, recovery.Options{})
	_, rrep, err := eng.RestoreWindow(win, rig.FS.Clock().Now())
	if err != nil {
		return err
	}
	fmt.Printf("\n%s\n", rrep)
	done := rrep.PagesRestored + rrep.PagesZeroed + rrep.PagesKept
	fmt.Printf("Victim pages back at their pre-attack contents: %d / %d.\n", done, len(win.Victims))
	if done == len(win.Victims) {
		fmt.Println("Zero data loss.")
	}
	return nil
}
