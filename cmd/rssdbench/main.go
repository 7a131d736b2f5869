// Command rssdbench regenerates every table and figure of the RSSD paper
// from the simulated implementation. Run with -exp all (the default) to
// produce the full evaluation, or select one experiment:
//
//	rssdbench -exp fig2           # Figure 2: data retention time
//	rssdbench -exp table1         # Table 1: defense matrix
//	rssdbench -exp perf           # claim P1: <1% performance overhead
//	rssdbench -exp lifetime       # claim P2: write amplification / lifetime
//	rssdbench -exp recovery-speed # claim P3: fast post-attack recovery (single device)
//	rssdbench -exp forensics      # claim P4: evidence-chain construction
//	rssdbench -exp offload        # NVMe-oE offload cost
//	rssdbench -exp detection      # detection coverage/latency, six variants
//	rssdbench -exp attacks        # Ransomware 2.0 validation vs. LocalSSD
//	rssdbench -exp fleet          # N devices: async offload + streaming detection; -servers M
//	                              # adds the cluster control plane (placement, failover, scaling)
//	rssdbench -exp retention      # storage tiers: local server vs modeled S3 (capacity/latency/cost)
//	rssdbench -exp recovery       # fleet power-cycle: attack -> detect -> N concurrent streamed restores
//	rssdbench -exp dedup          # content-addressed restore: dedup+delta vs full-image, scaling curve
//	rssdbench -exp soak           # chaos soak: multi-day horizon, seeded fault injection, continuous invariants
//
// -scale small uses the test-sized configuration for a quick pass, and
// -short shrinks further to the CI smoke size (small scale, 2 devices —
// an explicitly-set -devices is honored). -servers selects the ingest
// server count for -exp fleet and is rejected elsewhere.
// -backend selects the storage tier(s) for -exp retention: mem, dir,
// s3sim, a comma-separated list, or all.
// -json additionally writes each experiment's rows to BENCH_<name>.json
// (with the resolved flag set echoed in the header, so every bench file
// is self-describing) so successive runs can be diffed to track the
// performance trajectory.
// -cpuprofile and -memprofile write runtime/pprof profiles covering the
// selected experiments, so perf work can show before/after flame graphs.
// An unknown -exp value is rejected with the list of registered
// experiments.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"repro/internal/experiment"
	"repro/internal/remote"
)

func main() { os.Exit(run()) }

// run is main with deferred cleanup (pprof stop/write) that os.Exit would
// skip: every exit path returns through it.
func run() int {
	exp := flag.String("exp", "all", "experiment to run: all, or one registered name (an unknown name prints the registry)")
	scaleFlag := flag.String("scale", "full", "experiment scale (full, small)")
	jsonOut := flag.Bool("json", false, "write machine-readable BENCH_<name>.json per experiment")
	fleetDevices := flag.Int("devices", 8, "device count for -exp fleet, retention, recovery, dedup, and soak")
	fleetServers := flag.Int("servers", 1, "ingest server count for -exp fleet (>1 runs the cluster control plane: consistent-hash placement, injected failover, scaling curve)")
	backendFlag := flag.String("backend", "all", "storage tier(s) for -exp retention: mem, dir, s3sim, a comma list, or all")
	short := flag.Bool("short", false, "CI smoke size: small scale, 2 devices (explicit -devices wins)")
	seedFlag := flag.Int64("seed", 1, "chaos schedule seed for -exp soak (every fault draw replays from it)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile covering the selected experiments to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile (after the run) to this file")
	flag.Parse()

	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })

	// -servers is a fleet-experiment knob; like an unknown -exp it is
	// rejected early — with the list of experiments that support it —
	// rather than silently ignored for an hour-long run.
	serverExps := []string{"fleet", "soak"}
	if explicit["servers"] && !slices.Contains(serverExps, *exp) {
		fmt.Fprintf(os.Stderr, "-servers is not supported by -exp %s (supported: %s)\n",
			*exp, strings.Join(serverExps, ", "))
		return 2
	}
	// -seed is the chaos schedule's replay handle; only the soak draws
	// from it, so anywhere else it is a typo worth stopping on.
	seedExps := []string{"soak"}
	if explicit["seed"] && !slices.Contains(seedExps, *exp) {
		fmt.Fprintf(os.Stderr, "-seed is not supported by -exp %s (supported: %s)\n",
			*exp, strings.Join(seedExps, ", "))
		return 2
	}
	if *fleetServers < 1 {
		fmt.Fprintf(os.Stderr, "-servers %d: need at least 1\n", *fleetServers)
		return 2
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 2
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 2
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
			fmt.Printf("wrote CPU profile to %s\n", *cpuProfile)
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle: profile live + cumulative allocation sites
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			fmt.Printf("wrote allocation profile to %s\n", *memProfile)
		}()
	}

	var s experiment.Scale
	switch *scaleFlag {
	case "full":
		s = experiment.FullScale()
	case "small":
		s = experiment.SmallScale()
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scaleFlag)
		return 2
	}
	if *short {
		s = experiment.SmallScale()
		// An explicitly-set -devices survives -short: the CI cluster smoke
		// runs `-exp fleet -devices 64 -servers 4 -short` and means it.
		if *fleetDevices > 2 && !explicit["devices"] {
			*fleetDevices = 2
		}
		*scaleFlag = "short" // label persisted JSON honestly
	}

	backends := experiment.RetentionBackends
	if *backendFlag != "all" {
		backends = backends[:0:0]
		for _, name := range strings.Split(*backendFlag, ",") {
			backends = append(backends, strings.TrimSpace(name))
		}
	}
	// Fail on a bad tier name in milliseconds, not after earlier tiers
	// already ran for minutes.
	for _, name := range backends {
		if !slices.Contains(remote.Backends(), name) {
			fmt.Fprintf(os.Stderr, "unknown backend %q (have %v)\n", name, remote.Backends())
			return 2
		}
	}

	// persist writes one experiment's rows as BENCH_<name>.json when -json
	// is set, so future sessions can track the perf trajectory machine-
	// readably instead of scraping tables.
	persist := func(name string, rows any) error {
		if !*jsonOut {
			return nil
		}
		// The header echoes the resolved flag set, so every BENCH file is
		// self-describing: a trajectory diff can tell a -short smoke from a
		// full run without reconstructing the command line.
		blob, err := json.MarshalIndent(map[string]any{
			"experiment": name,
			"scale":      *scaleFlag,
			"flags": map[string]any{
				"exp":     *exp,
				"scale":   *scaleFlag,
				"devices": *fleetDevices,
				"servers": *fleetServers,
				"backend": *backendFlag,
				"short":   *short,
				"seed":    *seedFlag,
			},
			"rows": rows,
		}, "", "  ")
		if err != nil {
			return err
		}
		path := fmt.Sprintf("BENCH_%s.json", name)
		if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("    wrote %s\n", path)
		return nil
	}

	// The experiment registry: -exp values resolve here, and an unknown
	// name is rejected with this list instead of silently doing nothing.
	type expDef struct {
		name string
		fn   func() error
	}
	var defs []expDef
	register := func(name string, fn func() error) {
		defs = append(defs, expDef{name, fn})
	}

	register("fig2", func() error {
		rows, err := experiment.Fig2Retention(s)
		if err != nil {
			return err
		}
		fmt.Println("Figure 2 — data retention time (days) on a 512 GiB SSD, 7% OP, 1 TiB remote budget")
		fmt.Print(experiment.RenderFig2(rows))
		return persist("fig2", rows)
	})

	register("table1", func() error {
		cells, err := experiment.DefenseMatrix(s)
		if err != nil {
			return err
		}
		fmt.Println("Table 1 — defense matrix (attack replays; recovery graded none/partial/full)")
		fmt.Print(experiment.RenderDefenseMatrix(cells))
		return persist("table1", cells)
	})

	register("perf", func() error {
		rows, err := experiment.PerfOverhead(s, []string{"hm", "src", "usr", "web"})
		if err != nil {
			return err
		}
		fmt.Println("Claim P1 — storage performance overhead (trace-paced replay)")
		fmt.Print(experiment.RenderPerf(rows))
		return persist("perf", rows)
	})

	register("lifetime", func() error {
		rows, err := experiment.LifetimeWAF(s, []string{"hm", "src", "usr", "web"})
		if err != nil {
			return err
		}
		fmt.Println("Claim P2 — write amplification / device lifetime")
		fmt.Print(experiment.RenderLifetime(rows))
		return persist("lifetime", rows)
	})

	register("recovery-speed", func() error {
		rows, err := experiment.RecoverySpeed(s, []int{20, 40, 80})
		if err != nil {
			return err
		}
		fmt.Println("Claim P3 — post-attack data recovery speed (single device)")
		fmt.Print(experiment.RenderRecovery(rows))
		return persist("recovery-speed", rows)
	})

	register("forensics", func() error {
		rows, err := experiment.ForensicsSpeed(s, []int{5000, 20000, 50000})
		if err != nil {
			return err
		}
		fmt.Println("Claim P4 — trusted evidence chain construction")
		fmt.Print(experiment.RenderForensics(rows))
		return persist("forensics", rows)
	})

	register("offload", func() error {
		rows, err := experiment.OffloadCost(s, []string{"hm", "src", "email"})
		if err != nil {
			return err
		}
		fmt.Println("NVMe-oE offload cost and retention backlog")
		fmt.Print(experiment.RenderOffload(rows))
		return persist("offload", rows)
	})

	register("detection", func() error {
		rows, err := experiment.DetectionLatency(s)
		if err != nil {
			return err
		}
		fmt.Println("Offloaded detection — coverage and latency across six attack variants")
		fmt.Print(experiment.RenderDetection(rows))
		return persist("detection", rows)
	})

	register("fleet", func() error {
		res, err := experiment.Fleet(s, *fleetDevices, *fleetServers)
		if err != nil {
			return err
		}
		if *fleetServers > 1 {
			fmt.Printf("Fleet — %d devices over %d ingest servers: consistent-hash placement, injected failover, scaling curve\n",
				*fleetDevices, *fleetServers)
		} else {
			fmt.Printf("Fleet — %d devices, one server: async offload pipeline, sharded ingest, streaming detection\n", *fleetDevices)
		}
		fmt.Print(experiment.RenderFleet(res))
		return persist("fleet", res)
	})

	register("retention", func() error {
		rows, err := experiment.Retention(s, *fleetDevices, backends)
		if err != nil {
			return err
		}
		fmt.Printf("Retention tiers — fleet workload vs storage backends %v (compressed offload wire)\n", backends)
		fmt.Print(experiment.RenderRetention(rows))
		return persist("retention", rows)
	})

	register("attacks", func() error {
		rows, err := experiment.AttackValidation(s)
		if err != nil {
			return err
		}
		fmt.Println("Ransomware 2.0 validation — attacks vs. an unprotected LocalSSD")
		fmt.Print(experiment.RenderValidation(rows))
		return persist("attacks", rows)
	})

	register("recovery", func() error {
		res, err := experiment.FleetRecovery(s, *fleetDevices)
		if err != nil {
			return err
		}
		fmt.Printf("Fleet recovery — power-cycle %d devices, concurrent dedup + checkpoint-delta streamed restore from one server\n", *fleetDevices)
		fmt.Print(experiment.RenderFleetRecovery(res))
		return persist("recovery", res)
	})

	register("dedup", func() error {
		res, err := experiment.DedupRestore(s, *fleetDevices)
		if err != nil {
			return err
		}
		fmt.Printf("Dedup restore — content-addressed store + checkpoint-anchored delta vs full-image, %d measured devices + scaling model\n",
			*fleetDevices)
		fmt.Print(experiment.RenderDedup(res))
		return persist("dedup", res)
	})

	register("soak", func() error {
		devices, servers, waves := *fleetDevices, *fleetServers, 16
		if !explicit["devices"] && !*short {
			devices = 16 // the full horizon wants a real fleet
		}
		if !explicit["servers"] {
			servers = 3
		}
		if *short {
			waves = 3
			if !explicit["devices"] {
				devices = 3
			}
		}
		res, err := experiment.Soak(s, experiment.SoakOptions{
			Devices: devices, Servers: servers, Waves: waves,
			Seed: *seedFlag, Short: *short,
		})
		fmt.Printf("Chaos soak — %d devices / %d servers / %d waves under seeded fault injection with continuous invariants\n",
			devices, servers, waves)
		// A failed soak still renders and persists its ledger: the report
		// (and the reproducing seed in err) is the debugging artifact.
		if res != nil {
			fmt.Print(experiment.RenderSoak(res))
			if perr := persist("soak", res); perr != nil && err == nil {
				err = perr
			}
		}
		return err
	})

	if *exp != "all" {
		names := make([]string, 0, len(defs))
		known := false
		for _, d := range defs {
			names = append(names, d.name)
			known = known || d.name == *exp
		}
		if !known {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (registered: all, %s)\n",
				*exp, strings.Join(names, ", "))
			return 2
		}
	}
	for _, d := range defs {
		if *exp != "all" && *exp != d.name {
			continue
		}
		start := time.Now()
		fmt.Printf("==> %s\n", d.name)
		if err := d.fn(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", d.name, err)
			return 1
		}
		fmt.Printf("    (%s)\n\n", time.Since(start).Round(time.Millisecond))
	}
	return 0
}
