// Command rssdbench regenerates the tables and figures of the RSSD paper
// from the simulated implementation. Every experiment it runs is an entry of
// experiment.Registry, which holds its name, title, the flags it reads and
// their defaults:
//
//	rssdbench                  # every experiment, in registry order
//	rssdbench -exp fig2        # one experiment; an unknown name prints the registry
//	rssdbench -exp soak -seed 3 -json
//
// The entries are fig2 (Figure 2), table1 (Table 1, with what each attack
// cost the flash), perf (claims P1 and P2: latency overhead, write
// amplification, retention backlog), detection, fleet, retention, recovery,
// dedup and soak. -short is the one size switch: the small scale and each
// entry's -short defaults. -devices, -servers, -seed and -backend are read
// only by the entries that name them, and setting one for any other entry
// exits 2. Each run's rows print through metrics.Render; a run whose rows
// fail its verdicts prints them, names each failure and exits 1. -json also
// writes each experiment's rows to BENCH_<name>.json, headed by the flags
// the run read, with the values it used. -cpuprofile and -memprofile write
// runtime/pprof profiles covering the selected runs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/experiment"
	"repro/internal/metrics"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with deferred cleanup (pprof stop/write) that os.Exit would
// skip: every exit path returns through it.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rssdbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "experiment to run: all, or one registered name (an unknown name prints the registry)")
	jsonOut := fs.Bool("json", false, "write machine-readable BENCH_<name>.json per experiment")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile covering the selected experiments to this file")
	memProfile := fs.String("memprofile", "", "write an allocation profile (after the run) to this file")
	var given experiment.Options
	given.Bind(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var set []string
	fs.Visit(func(f *flag.Flag) { set = append(set, f.Name) })

	exps := experiment.Registry
	if *exp != "all" {
		e, ok := experiment.Lookup(*exp)
		if !ok {
			fmt.Fprintf(stderr, "unknown experiment %q (registered: all, %s)\n", *exp, strings.Join(experiment.Names(), ", "))
			return 2
		}
		exps = []experiment.Experiment{*e}
	}
	// Resolve every selected run before any starts: a flag the run would
	// ignore fails in milliseconds, not after an hour of earlier runs.
	opts := make([]experiment.Options, len(exps))
	for i := range exps {
		o, err := exps[i].Resolve(given, set)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		opts[i] = o
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(stderr, "cpuprofile: %v\n", err)
			return 2
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "cpuprofile: %v\n", err)
			return 2
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
			fmt.Fprintf(stdout, "wrote CPU profile to %s\n", *cpuProfile)
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle: profile live + cumulative allocation sites
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintf(stderr, "memprofile: %v\n", err)
				return
			}
			fmt.Fprintf(stdout, "wrote allocation profile to %s\n", *memProfile)
		}()
	}

	for i := range exps {
		e, o := &exps[i], opts[i]
		flags := e.Flags(o)
		start := time.Now()
		fmt.Fprintf(stdout, "==> %s: %s\n", e.Name, e.Title)
		if len(flags) > 0 {
			fmt.Fprintf(stdout, "    %v\n", flags)
		}
		rows, err := e.Run(o)
		if produced(rows) {
			fmt.Fprint(stdout, metrics.Render(rows))
			if *jsonOut {
				if werr := persist(stdout, e.Name, o.Short, flags, rows); werr != nil && err == nil {
					err = werr
				}
			}
		}
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", e.Name, err)
			return 1
		}
		fmt.Fprintf(stdout, "    (%s)\n\n", time.Since(start).Round(time.Millisecond))
	}
	return 0
}

// produced reports whether a run returned rows: one that failed before it
// had any returns a typed nil.
func produced(rows any) bool {
	v := reflect.ValueOf(rows)
	return v.IsValid() && !v.IsZero()
}

// persist writes one run's rows to BENCH_<name>.json. The header names the
// size and exactly the flags the run read, so a trajectory diff can tell a
// -short smoke from a full run without reconstructing the command line.
func persist(stdout io.Writer, name string, short bool, flags map[string]any, rows any) error {
	blob, err := json.MarshalIndent(map[string]any{
		"experiment": name,
		"short":      short,
		"flags":      flags,
		"rows":       rows,
	}, "", "  ")
	if err != nil {
		return err
	}
	path := fmt.Sprintf("BENCH_%s.json", name)
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "    wrote %s\n", path)
	return nil
}
