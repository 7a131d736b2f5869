package experiment

import (
	"fmt"
	"math/rand"

	"repro/internal/attack"
	"repro/internal/detect"
	"repro/internal/simclock"
)

// DetectionRow measures how quickly the offloaded detection pipeline
// catches one attack variant.
type DetectionRow struct {
	Attack         string
	Detected       bool
	AlertSeq       uint64
	OpsToAlert     uint64            // log entries between attack start and alert
	TimeToAlert    simclock.Duration // simulated time between attack start and alert
	Reason         string
	FalsePositives int // alerts raised before the attack started
}

// detectionAttacks extends the paper's four attacks with two harder
// variants: a zero-writing wiper (entropy-blind) and a first-page-only
// partial encryptor (volume-blind).
func detectionAttacks() []attack.Attack {
	key := [32]byte{0xD7}
	return []attack.Attack{
		&attack.Encryptor{Key: key},
		&attack.GCAttack{Key: key, Rounds: 1},
		// Maximum stealth: one file at a time, a day apart, buried in
		// ten benign operations per malicious one. Rate/window detectors
		// cannot see this; only the cumulative victim counter can.
		&attack.TimingAttack{Key: key, FilesPerBurst: 1, BurstInterval: 24 * simclock.Hour, CoverOpsPerOp: 10},
		&attack.TrimmingAttack{Key: key},
		&attack.Wiper{},
		&attack.PartialEncryptor{Key: key},
	}
}

// detectConfig adapts the default detector to the experiment corpus: the
// cumulative victim threshold scales with corpus size (it is a fraction of
// the protected data, not an absolute count).
func detectConfig(s Scale) detect.Config {
	cfg := detect.DefaultConfig()
	cfg.PageSize = s.PageSize
	cfg.CumulativeVictims = s.SeedFiles
	return cfg
}

// DetectionLatency runs each attack variant against an RSSD with the
// detection pipeline attached, measuring coverage and latency. Every
// variant must be caught, with no alert on the benign history before it.
func DetectionLatency(s Scale) ([]DetectionRow, error) {
	cfg := detectConfig(s)
	var rows []DetectionRow
	var v verdicts
	for _, atk := range detectionAttacks() {
		row, err := detectOne(s, atk, cfg)
		if err != nil {
			return nil, fmt.Errorf("detection %s: %w", atk.Name(), err)
		}
		rows = append(rows, row)
		v.check(row.Detected, "%s: missed", row.Attack)
		v.check(row.FalsePositives == 0, "%s: %d false positives", row.Attack, row.FalsePositives)
	}
	return rows, v.err("detection")
}

func detectOne(s Scale, atk attack.Attack, detCfg detect.Config) (DetectionRow, error) {
	row := DetectionRow{Attack: atk.Name()}
	rig, err := NewRSSDRig(s)
	if err != nil {
		return row, err
	}
	defer rig.Client.Close()

	engine := detect.NewEngine(detCfg)
	engine.Attach(rig.Store)

	rng := rand.New(rand.NewSource(41))
	if _, _, err := seedAndSnapshot(rig.FS, rng, s); err != nil {
		return row, err
	}
	if err := attack.RunBenign(rig.FS, rng, 150, simclock.Minute); err != nil {
		return row, err
	}
	// Flush pre-attack history so any alert on it counts as a false
	// positive, not as attack detection.
	if _, err := rig.Dev.OffloadNow(rig.FS.Clock().Now()); err != nil {
		return row, err
	}
	row.FalsePositives = len(engine.Alerts())

	startSeq := rig.Dev.Log().NextSeq()
	startTime := rig.FS.Clock().Now()
	if _, err := atk.Run(rig.FS, rng); err != nil {
		return row, err
	}
	if _, err := rig.Dev.OffloadNow(rig.FS.Clock().Now()); err != nil {
		return row, err
	}
	alerts := engine.Alerts()
	if len(alerts) <= row.FalsePositives {
		return row, nil // undetected
	}
	a := alerts[row.FalsePositives]
	row.Detected = true
	row.AlertSeq = a.AtSeq
	if a.AtSeq > startSeq {
		row.OpsToAlert = a.AtSeq - startSeq
	}
	row.TimeToAlert = a.At.Sub(startTime)
	if len(a.Reasons) > 0 {
		row.Reason = a.Reasons[0]
	}
	return row, nil
}
