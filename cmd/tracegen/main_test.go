package main

import (
	"bufio"
	"bytes"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/workload"
)

// TestTraceDatesFromUnixEpoch: MSR timestamps are FILETIME ticks, 100 ns
// since 1601-01-01, so a trace whose simulated clock starts at zero must date
// its first record at or after 1970, not in 1601.
func TestTraceDatesFromUnixEpoch(t *testing.T) {
	prof, _ := workload.ProfileByName("hm")
	var out bytes.Buffer
	writeTrace(&out, workload.NewGenerator(prof, 4096, 1<<16, 1), prof.Name, 50, 4096)
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		ticks, err := strconv.ParseInt(strings.SplitN(line, ",", 2)[0], 10, 64)
		if err != nil {
			t.Fatalf("first record %q: %v", line, err)
		}
		filetimeEpoch := time.Date(1601, 1, 1, 0, 0, 0, 0, time.UTC)
		// A FILETIME spans more than time.Duration's 292 years: add it in days.
		const ticksPerDay = 864_000_000_000
		at := filetimeEpoch.AddDate(0, 0, int(ticks/ticksPerDay)).Add(time.Duration(ticks%ticksPerDay) * 100)
		if at.Year() < 1970 {
			t.Fatalf("first record %q dates to %v, want 1970 or later", line, at)
		}
		return
	}
	t.Fatal("the trace has no record")
}
