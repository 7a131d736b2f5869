// Package workload supplies the I/O workloads the evaluation replays:
// parsers for the MSR-Cambridge and FIU block-trace formats the paper
// uses, and parameterised synthetic generators for the twelve workloads
// named in Figure 2 (hm, src, ts, wdev, rsrch, stg, usr from MSR;
// fiu-res, email, online, web, webusers from FIU).
//
// The real traces are not redistributable here, so each named workload is
// approximated by a generator matched on the characteristics that drive
// RSSD's retention behaviour: write fraction, daily write volume, working
// set size, access skew, request size, trim rate, and content
// compressibility. DESIGN.md documents this substitution.
package workload

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"repro/internal/simclock"
)

// OpType is a trace operation type.
type OpType uint8

const (
	OpRead OpType = iota + 1
	OpWrite
	OpTrim
)

func (o OpType) String() string {
	switch o {
	case OpRead:
		return "R"
	case OpWrite:
		return "W"
	case OpTrim:
		return "T"
	default:
		return "?"
	}
}

// Record is one trace operation, normalized to page granularity.
type Record struct {
	At    simclock.Time
	Op    OpType
	LPN   uint64
	Pages int
}

// --- MSR-Cambridge CSV ----------------------------------------------------

// windowsEpochDelta is the offset between the Windows FILETIME epoch
// (1601-01-01) and Unix epoch, in 100 ns ticks.
const windowsEpochDelta = 116444736000000000

// ParseMSR reads the MSR-Cambridge CSV trace format:
//
//	Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime
//
// where Timestamp is a Windows FILETIME, Offset and Size are bytes. The
// first record is rebased to simulated time zero.
func ParseMSR(r io.Reader, pageSize int) ([]Record, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var out []Record
	var base int64 = -1
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		f := strings.Split(text, ",")
		if len(f) < 6 {
			return nil, fmt.Errorf("workload: msr line %d: %d fields", line, len(f))
		}
		ts, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("workload: msr line %d timestamp: %w", line, err)
		}
		offset, err := strconv.ParseUint(f[4], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("workload: msr line %d offset: %w", line, err)
		}
		size, err := strconv.ParseUint(f[5], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("workload: msr line %d size: %w", line, err)
		}
		var op OpType
		switch strings.ToLower(f[3]) {
		case "read":
			op = OpRead
		case "write":
			op = OpWrite
		default:
			return nil, fmt.Errorf("workload: msr line %d: unknown op %q", line, f[3])
		}
		if ts > windowsEpochDelta {
			ts -= windowsEpochDelta // FILETIME -> Unix-based ticks
		}
		if base < 0 {
			base = ts
		}
		pages := int((size + uint64(pageSize) - 1) / uint64(pageSize))
		if pages == 0 {
			pages = 1
		}
		out = append(out, Record{
			At:    simclock.Time((ts - base) * 100), // 100ns ticks -> ns
			Op:    op,
			LPN:   offset / uint64(pageSize),
			Pages: pages,
		})
	}
	return out, sc.Err()
}

// --- FIU trace format -----------------------------------------------------

// ParseFIU reads the FIU (SRCMap/IODedup) trace format:
//
//	timestamp pid process lba size_512 op major minor [md5]
//
// with timestamp in seconds (float), lba and size in 512-byte sectors, op
// "W" or "R". The first record is rebased to simulated time zero.
func ParseFIU(r io.Reader, pageSize int) ([]Record, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	sectorsPerPage := uint64(pageSize / 512)
	var out []Record
	base := -1.0
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		f := strings.Fields(text)
		if len(f) < 6 {
			return nil, fmt.Errorf("workload: fiu line %d: %d fields", line, len(f))
		}
		ts, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			return nil, fmt.Errorf("workload: fiu line %d timestamp: %w", line, err)
		}
		lba, err := strconv.ParseUint(f[3], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("workload: fiu line %d lba: %w", line, err)
		}
		sectors, err := strconv.ParseUint(f[4], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("workload: fiu line %d size: %w", line, err)
		}
		var op OpType
		switch strings.ToUpper(f[5]) {
		case "W":
			op = OpWrite
		case "R":
			op = OpRead
		default:
			return nil, fmt.Errorf("workload: fiu line %d: unknown op %q", line, f[5])
		}
		if base < 0 {
			base = ts
		}
		pages := int((sectors + sectorsPerPage - 1) / sectorsPerPage)
		if pages == 0 {
			pages = 1
		}
		out = append(out, Record{
			At:    simclock.Time((ts - base) * float64(simclock.Second)),
			Op:    op,
			LPN:   lba / sectorsPerPage,
			Pages: pages,
		})
	}
	return out, sc.Err()
}

// --- Synthetic named workloads ---------------------------------------------

// Profile parameterises a synthetic workload generator.
type Profile struct {
	Name string
	// Source is the trace family the profile approximates (msr or fiu).
	Source string
	// WriteFrac is the fraction of operations that are writes.
	WriteFrac float64
	// TrimFrac is the fraction of operations that are trims (file
	// deletions passed down by the filesystem).
	TrimFrac float64
	// DailyWriteGiB is the average volume written per simulated day;
	// with WorkingSetGiB it sets the stale-data production rate that
	// determines Figure 2's retention times.
	DailyWriteGiB float64
	// WorkingSetGiB bounds the LPN range the workload touches.
	WorkingSetGiB float64
	// ZipfS is the skew of the access distribution (higher = hotter).
	ZipfS float64
	// AvgReqPages is the mean request size in pages.
	AvgReqPages int
	// RandomFrac controls content compressibility: the fraction of each
	// written page filled with incompressible bytes.
	RandomFrac float64
}

// Profiles enumerates the twelve workloads of Figure 2. Parameters are
// synthetic approximations of the published MSR-Cambridge / FIU workload
// characteristics (write-dominated enterprise traces with heavy skew; the
// FIU end-user traces write less data with more compressible content).
var Profiles = []Profile{
	{Name: "hm", Source: "msr", WriteFrac: 0.64, TrimFrac: 0.010, DailyWriteGiB: 8.5, WorkingSetGiB: 2.5, ZipfS: 1.10, AvgReqPages: 2, RandomFrac: 0.35},
	{Name: "src", Source: "msr", WriteFrac: 0.75, TrimFrac: 0.008, DailyWriteGiB: 12.0, WorkingSetGiB: 4.0, ZipfS: 1.05, AvgReqPages: 4, RandomFrac: 0.40},
	{Name: "ts", Source: "msr", WriteFrac: 0.82, TrimFrac: 0.005, DailyWriteGiB: 5.0, WorkingSetGiB: 1.5, ZipfS: 1.20, AvgReqPages: 2, RandomFrac: 0.30},
	{Name: "wdev", Source: "msr", WriteFrac: 0.80, TrimFrac: 0.005, DailyWriteGiB: 3.2, WorkingSetGiB: 1.0, ZipfS: 1.15, AvgReqPages: 2, RandomFrac: 0.25},
	{Name: "rsrch", Source: "msr", WriteFrac: 0.91, TrimFrac: 0.004, DailyWriteGiB: 2.6, WorkingSetGiB: 0.8, ZipfS: 1.25, AvgReqPages: 2, RandomFrac: 0.20},
	{Name: "stg", Source: "msr", WriteFrac: 0.85, TrimFrac: 0.006, DailyWriteGiB: 6.5, WorkingSetGiB: 2.0, ZipfS: 1.12, AvgReqPages: 4, RandomFrac: 0.45},
	{Name: "usr", Source: "msr", WriteFrac: 0.60, TrimFrac: 0.012, DailyWriteGiB: 10.5, WorkingSetGiB: 3.0, ZipfS: 1.02, AvgReqPages: 3, RandomFrac: 0.35},
	{Name: "fiu-res", Source: "fiu", WriteFrac: 0.78, TrimFrac: 0.015, DailyWriteGiB: 4.2, WorkingSetGiB: 1.2, ZipfS: 1.10, AvgReqPages: 2, RandomFrac: 0.22},
	{Name: "email", Source: "fiu", WriteFrac: 0.70, TrimFrac: 0.020, DailyWriteGiB: 14.8, WorkingSetGiB: 5.0, ZipfS: 0.95, AvgReqPages: 3, RandomFrac: 0.30},
	{Name: "online", Source: "fiu", WriteFrac: 0.74, TrimFrac: 0.010, DailyWriteGiB: 7.4, WorkingSetGiB: 2.2, ZipfS: 1.08, AvgReqPages: 2, RandomFrac: 0.28},
	{Name: "web", Source: "fiu", WriteFrac: 0.55, TrimFrac: 0.010, DailyWriteGiB: 9.0, WorkingSetGiB: 3.0, ZipfS: 1.00, AvgReqPages: 4, RandomFrac: 0.50},
	{Name: "webusers", Source: "fiu", WriteFrac: 0.65, TrimFrac: 0.014, DailyWriteGiB: 11.2, WorkingSetGiB: 3.5, ZipfS: 1.04, AvgReqPages: 3, RandomFrac: 0.32},
}

// ProfileByName returns the named profile.
func ProfileByName(name string) (Profile, bool) {
	for _, p := range Profiles {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}

// ProfileNames returns all profile names in Figure 2 order.
func ProfileNames() []string {
	names := make([]string, len(Profiles))
	for i, p := range Profiles {
		names[i] = p.Name
	}
	return names
}

// Generator produces an endless, deterministic stream of Records matching
// a profile, scaled to a device of logicalPages pages.
type Generator struct {
	prof         Profile
	pageSize     int
	logicalPages uint64
	wsPages      uint64
	rng          *rand.Rand
	zipf         *rand.Zipf
	now          simclock.Time
	interOpGap   simclock.Duration
	// content buffers reused across calls
	phrase []byte
}

// NewGenerator returns a generator over a device with the given page size
// and logical capacity.
func NewGenerator(prof Profile, pageSize int, logicalPages uint64, seed int64) *Generator {
	rng := rand.New(rand.NewSource(seed))
	ws := uint64(prof.WorkingSetGiB * float64(1<<30) / float64(pageSize))
	if ws > logicalPages || ws == 0 {
		ws = logicalPages
	}
	s := prof.ZipfS
	if s <= 1.0 {
		s = 1.001 // rand.Zipf requires s > 1
	}
	// Ops per day = daily bytes / (avg req pages * page size); spread ops
	// evenly across the simulated day.
	opsPerDay := prof.DailyWriteGiB * float64(1<<30) /
		(prof.WriteFrac * float64(prof.AvgReqPages) * float64(pageSize))
	gap := simclock.Duration(float64(simclock.Day) / opsPerDay)
	return &Generator{
		prof:         prof,
		pageSize:     pageSize,
		logicalPages: logicalPages,
		wsPages:      ws,
		rng:          rng,
		zipf:         rand.NewZipf(rng, s, 1, ws-1),
		interOpGap:   gap,
		phrase:       []byte("status: nominal; next maintenance window pending approval. "),
	}
}

// Next produces the next trace record.
func (g *Generator) Next() Record {
	g.now = g.now.Add(g.interOpGap)
	pages := 1 + g.rng.Intn(2*g.prof.AvgReqPages-1) // mean ≈ AvgReqPages
	lpn := g.zipf.Uint64()
	if lpn+uint64(pages) > g.wsPages {
		lpn = g.wsPages - uint64(pages)
	}
	r := g.rng.Float64()
	var op OpType
	switch {
	case r < g.prof.TrimFrac:
		op = OpTrim
	case r < g.prof.TrimFrac+g.prof.WriteFrac:
		op = OpWrite
	default:
		op = OpRead
	}
	return Record{At: g.now, Op: op, LPN: lpn, Pages: pages}
}

// Generate produces n records.
func (g *Generator) Generate(n int) []Record {
	out := make([]Record, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}

// Content synthesizes one page of write payload with the profile's
// compressibility.
func (g *Generator) Content() []byte {
	page := make([]byte, g.pageSize)
	cut := int(g.prof.RandomFrac * float64(g.pageSize))
	g.rng.Read(page[:cut])
	for i := cut; i < g.pageSize; i++ {
		page[i] = g.phrase[(i-cut)%len(g.phrase)]
	}
	return page
}

// Stats summarizes a record stream (used by tests and the harness).
type Stats struct {
	Ops          int
	Reads        int
	Writes       int
	Trims        int
	PagesWritten int
	Span         simclock.Duration
	UniqueLPNs   int
}

// Summarize computes stream statistics.
func Summarize(recs []Record) Stats {
	s := Stats{Ops: len(recs)}
	seen := map[uint64]struct{}{}
	for _, r := range recs {
		switch r.Op {
		case OpRead:
			s.Reads++
		case OpWrite:
			s.Writes++
			s.PagesWritten += r.Pages
		case OpTrim:
			s.Trims++
		}
		for p := 0; p < r.Pages; p++ {
			seen[r.LPN+uint64(p)] = struct{}{}
		}
	}
	s.UniqueLPNs = len(seen)
	if len(recs) > 1 {
		s.Span = recs[len(recs)-1].At.Sub(recs[0].At)
	}
	return s
}

// SortByTime orders records by timestamp (parsers of merged traces use it).
func SortByTime(recs []Record) {
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].At < recs[j].At })
}
