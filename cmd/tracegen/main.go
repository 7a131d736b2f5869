// Command tracegen emits synthetic block traces for the twelve workloads
// of Figure 2, in MSR-Cambridge CSV format, so external tools can replay
// them.
//
//	tracegen -workload hm -ops 100000 > hm.csv
//	tracegen -list
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/workload"
)

// filetimeUnixEpoch is 1970-01-01 in FILETIME ticks (100 ns since 1601-01-01):
// a trace's simulated time starts there.
const filetimeUnixEpoch = 116_444_736_000_000_000

func main() {
	name := flag.String("workload", "hm", "workload profile name")
	ops := flag.Int("ops", 100000, "operations to generate")
	pageSize := flag.Int("pagesize", 4096, "page size in bytes")
	capacity := flag.Uint64("pages", 1<<22, "logical pages of the target device")
	seed := flag.Int64("seed", 1, "generator seed")
	list := flag.Bool("list", false, "list available workload profiles")
	flag.Parse()

	if *list {
		for _, p := range workload.Profiles {
			fmt.Printf("%-9s src=%s write=%.2f trim=%.3f daily=%.1fGiB ws=%.1fGiB zipf=%.2f\n",
				p.Name, p.Source, p.WriteFrac, p.TrimFrac, p.DailyWriteGiB, p.WorkingSetGiB, p.ZipfS)
		}
		return
	}
	prof, ok := workload.ProfileByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown workload %q (use -list)\n", *name)
		os.Exit(2)
	}
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	writeTrace(w, workload.NewGenerator(prof, *pageSize, *capacity, *seed), prof.Name, *ops, *pageSize)
}

// writeTrace writes ops records of g in MSR format:
// Timestamp(FILETIME ticks),Hostname,Disk,Type,Offset,Size,ResponseTime.
func writeTrace(w io.Writer, g *workload.Generator, host string, ops, pageSize int) {
	for i := 0; i < ops; i++ {
		rec := g.Next()
		op := "Write"
		if rec.Op == workload.OpRead {
			op = "Read"
		} else if rec.Op == workload.OpTrim {
			// MSR has no trim; emit a comment line, preserving op counts
			// for human inspection.
			fmt.Fprintf(w, "# trim lpn=%d pages=%d at=%d\n", rec.LPN, rec.Pages, int64(rec.At))
			continue
		}
		ticks := filetimeUnixEpoch + int64(rec.At)/100 // ns -> 100ns FILETIME ticks
		fmt.Fprintf(w, "%d,%s,0,%s,%d,%d,0\n",
			ticks, host, op, rec.LPN*uint64(pageSize), uint64(rec.Pages)*uint64(pageSize))
	}
}
