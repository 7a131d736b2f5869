// Command benchmark is the repo benchmark: four attack-to-recovery
// workloads over the whole RSSD stack, 16 end-to-end metrics, and a traced
// run that budgets one page's cost layer by layer from outside the program.
// README.md in this directory is the manual.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// minRounds is the fewest measured rounds a run reports a median over; one
// more round runs first and is discarded as warm-up. A traced run, whose
// rounds cost more and which adds two untraced ones, may stop at
// minTracedRounds. Modeled and count metrics are taken from exactly that
// many rounds, however many more the time budget allows.
const (
	minRounds       = 7
	minTracedRounds = 5
)

// roundSeed is the input seed of a run's round: every round draws its own
// trace and contents, so a run samples eight or more draws of the workload,
// not one. Round 0 is the warm-up.
func roundSeed(seed uint64, round int) uint64 {
	x := seed ^ uint64(round)*0xD6E8FEB86659FD93
	return splitmix(&x)
}

type options struct {
	sp      *spec
	seed    uint64
	seconds float64
	trace   bool
	plant   plants
	outDir  string
	rounds  int // the package's test only; 0: by time, at least minRounds

	plantArg string // as given on the command line, for -repeat and -sweep to pass on
}

func parsePlant(s string) (plants, error) {
	var p plants
	if s == "" {
		return p, nil
	}
	for _, kv := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(kv, "=")
		us, err := strconv.ParseFloat(val, 64)
		if !ok || err != nil || us < 0 {
			return p, fmt.Errorf("bad -plant %q: want <seam>=<microseconds>", kv)
		}
		d := time.Duration(us * float64(time.Microsecond))
		switch name {
		case "BlockDevice":
			p.dev = d
		case "conn":
			p.conn = d
		case "ObjectStore":
			p.store = d
		case "Subscribe":
			p.subscribe = d
		default:
			return p, fmt.Errorf("bad -plant seam %q: want BlockDevice, conn, ObjectStore or Subscribe", name)
		}
	}
	return p, nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "one of: write_offload, read_mostly, ingest_fanin, attack_recover")
	seed := fs.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 24, "start no round that would end later than this after the run began (at least 7 measured rounds)")
	trace := fs.Int("trace", 0, "1: traced run, prints the per-layer metrics instead of the end-to-end ones")
	plant := fs.String("plant", "", "busy-wait inside a seam, e.g. BlockDevice=20 (microseconds per page)")
	repeat := fs.Int("repeat", 0, "run the workload N times with one seed, each in a fresh process, and report how well the runs agree")
	sweep := fs.Int("sweep", 0, "run N consecutive seeds, each in a fresh process, and report every metric's spread against its bound")
	out := fs.String("out", "out", "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp := specByName(*workload)
	if sp == nil {
		fmt.Fprintf(stderr, "benchmark: unknown -workload %q\n", *workload)
		return 2
	}
	pl, err := parsePlant(*plant)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	opt := options{
		sp: sp, seed: *seed, seconds: *seconds, trace: *trace != 0, plant: pl, outDir: *out, plantArg: *plant,
	}
	if *repeat > 0 {
		return runRepeat(opt, *repeat, false, stdout, stderr)
	}
	if *sweep > 0 {
		return runRepeat(opt, *sweep, true, stdout, stderr)
	}
	rr, err := runOnce(opt, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if err := writeResult(stdout, rr.samples, rr.attempted, rr.failed, rr.failed == 0); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if rr.failed != 0 {
		return 1
	}
	return 0
}

// runResult is one run: the reported samples and the checked-operation
// counts over its measured rounds.
type runResult struct {
	samples   []*sample // what the run reports: end to end, or per layer when traced
	endToEnd  []*sample // always the end-to-end metrics, traced or not
	attempted int64
	failed    int64
}

// runOnce runs the warm-up round and the measured rounds of one workload and
// prints the report. info may be io.Discard.
func runOnce(opt options, info io.Writer) (*runResult, error) {
	begin := time.Now()
	// Here, not in main, so that the package's test runs the schedule the
	// benchmark runs.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(opt.sp.procs()))
	s := &seams{plant: opt.plant}
	if opt.trace {
		s.tr = newTracer()
	}
	fmt.Fprintf(info, "workload %s seed %d on %d P: %s\n", opt.sp.name, opt.seed, opt.sp.procs(), opt.sp.why)

	// The warm-up round pays for the first use of every pool, page fault
	// and lazily built table; nothing of it is reported.
	if _, err := runRound(opt.sp, roundSeed(opt.seed, 0), s, false); err != nil {
		return nil, fmt.Errorf("warm-up round: %w", err)
	}
	need := minRounds
	if opt.trace {
		need = minTracedRounds
	}
	var rounds []*roundResult
	var untracedRates []float64
	var measured, last time.Duration
	for i := 0; ; i++ {
		// The budget covers everything since the run began: warm-up, input
		// generation, verification and forced collections as well as the
		// timed phases.
		if opt.rounds > 0 {
			if i >= opt.rounds {
				break
			}
		} else if i >= need && (time.Since(begin)+last).Seconds() > opt.seconds {
			break
		}
		t0 := time.Now()
		if s.tr != nil {
			s.tr.round.Store(int64(i + 1))
		}
		r, err := runRound(opt.sp, roundSeed(opt.seed, i+1), s, opt.trace)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", i+1, err)
		}
		measured += r.setup + r.wallA + r.wallB + r.wallC + r.wallD
		rounds = append(rounds, r)
		// A traced run also measures a round with every seam out after each of
		// its first two rounds, so it can say what tracing cost. They sit
		// between traced rounds because a run's first rounds are its slowest.
		if opt.trace && i < 2 {
			u, err := runRound(opt.sp, roundSeed(opt.seed, i+1), &seams{}, false)
			if err != nil {
				return nil, fmt.Errorf("untraced round: %w", err)
			}
			untracedRates = append(untracedRates, ratio(float64(u.hostPages), u.wallA.Seconds()))
		}
		last = time.Since(t0)
	}
	untraced := median(untracedRates)
	for _, r := range rounds {
		if opt.trace {
			r.layers["budget.trace_overhead_share"] = 1 - ratio(ratio(float64(r.hostPages), r.wallA.Seconds()), untraced)
		}
	}

	rr := &runResult{}
	falseAlerts := 0
	for _, r := range rounds {
		rr.attempted += r.attempted()
		rr.failed += int64(r.failed)
		falseAlerts += r.falseAlerts
		for _, f := range r.failures {
			fmt.Fprintf(info, "FAILED: %s\n", f)
		}
	}
	rr.endToEnd = endToEndSamples(rounds, need)
	rr.samples = rr.endToEnd
	if opt.trace {
		rr.samples = layerSamples(rounds, need)
		path, err := s.tr.write(opt.outDir, opt.sp.name, opt.seed)
		if err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintf(info, "spans: %d written to %s\n", len(s.tr.spans), path)
	}
	printSamples(info, rr.samples)
	if opt.trace {
		printBudget(info, opt.sp, rounds, untraced)
	}
	fmt.Fprintf(info, "rounds %d  host_pages_per_round %d  measured_s %.3f  total_wall_s %.3f  ops_attempted %d  ops_failed %d  false_alerts %d\n",
		len(rounds), rounds[0].hostPages, measured.Seconds(), time.Since(begin).Seconds(), rr.attempted, rr.failed, falseAlerts)
	return rr, nil
}
