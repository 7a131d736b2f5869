// Package workload supplies the I/O workloads the evaluation replays:
// parameterised synthetic generators for the twelve workloads named in
// Figure 2 (hm, src, ts, wdev, rsrch, stg, usr from MSR-Cambridge;
// fiu-res, email, online, web, webusers from FIU).
//
// The real traces are not redistributable here, so each named workload is
// approximated by a generator matched on the characteristics that drive
// RSSD's retention behaviour: write fraction, daily write volume, working
// set size, access skew, request size, trim rate, and content
// compressibility.
package workload

import (
	"math/rand"

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
