package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// The self-check behind the benchmark's agreement criterion. -repeat N runs
// the workload N times with one seed, each in a fresh process, and reports
// whether modeled and count metrics repeated exactly and how far the
// wall-clock medians spread. -sweep N does the same over N consecutive
// seeds and reports, for every metric, the spread the driver computes: the
// distance between the first and third quartile of the N values, as Python's
// statistics.quantiles(values, n=4) gives them, over their median.

// childRun runs one measurement in a fresh process and returns its result
// line.
func childRun(opt options, seed uint64, stderr io.Writer) (*resultLine, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{
		"-workload", opt.sp.name, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(opt.seconds, 'g', -1, 64), "-out", opt.outDir,
	}
	if opt.trace {
		args = append(args, "-trace", "1")
	}
	if opt.plantArg != "" {
		args = append(args, "-plant", opt.plantArg)
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("run with seed %d: %w", seed, err)
	}
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		last = append(last[:0], sc.Bytes()...)
	}
	var line resultLine
	if err := json.Unmarshal(last, &line); err != nil {
		return nil, fmt.Errorf("run with seed %d: result line: %w", seed, err)
	}
	if !line.Correct {
		return nil, fmt.Errorf("run with seed %d: %d of %d operations failed", seed, line.Failed, line.Attempted)
	}
	return &line, nil
}

// runRepeat is both -repeat (sweep false) and -sweep (sweep true). It
// returns a process exit code: 1 if a metric that must repeat exactly did
// not, or a spread exceeded its bound.
func runRepeat(opt options, n int, sweep bool, stdout, stderr io.Writer) int {
	defs := endToEnd
	if opt.trace {
		defs = perLayer
	}
	values := map[string][]float64{}
	for i := 0; i < n; i++ {
		seed := opt.seed
		if sweep {
			seed += uint64(i)
		}
		line, err := childRun(opt, seed, stderr)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		for name, mv := range line.Metrics {
			values[name] = append(values[name], mv.Value)
		}
		fmt.Fprintf(stdout, "run %d/%d seed %d done\n", i+1, n, seed)
	}
	mode := fmt.Sprintf("%d runs of seed %d", n, opt.seed)
	if sweep {
		mode = fmt.Sprintf("seeds %d..%d", opt.seed, opt.seed+uint64(n)-1)
	}
	fmt.Fprintf(stdout, "%s, %s:\n", opt.sp.name, mode)
	fmt.Fprintf(stdout, "%-38s %1s %14s %14s %14s %9s %7s  %s\n", "metric", "c", "median", "min", "max", "spread", "bound", "verdict")
	bad := 0
	for _, def := range defs {
		v := values[def.name]
		q1, med, q3 := quartiles(v)
		s := append([]float64(nil), v...)
		sort.Float64s(s)
		spread := ratio(q3-q1, med)
		verdict := "ok"
		switch {
		case !sweep && def.exactClass():
			if s[0] != s[len(s)-1] {
				verdict = "DIFFERS between runs of one seed"
				bad++
			} else {
				verdict = "exact"
			}
		case def.bound > 0 && def.name != "setup_s" && spread > def.bound:
			verdict = "SPREAD ABOVE BOUND"
			bad++
		case def.bound > 0 && spread > def.bound/3:
			verdict = "above a third of the bound"
		}
		bound := "-"
		if def.bound > 0 {
			bound = strconv.FormatFloat(def.bound, 'g', -1, 64)
		}
		fmt.Fprintf(stdout, "%-38s %c %14.6g %14.6g %14.6g %9.4f %7s  %s\n",
			def.name, def.class, med, s[0], s[len(s)-1], spread, bound, verdict)
	}
	if bad > 0 {
		fmt.Fprintf(stdout, "%d metrics outside their criterion (%s)\n", bad, mode)
		return 1
	}
	return 0
}
