// Package experiment implements the evaluation harness: the paper's
// tables, figures and claims that the repo benchmark does not already
// measure. Registry describes each experiment once — name, title, the
// flags it reads with their defaults, and its run — and cmd/rssdbench
// walks it; the root-level Go benchmarks call the runs directly.
//
// README.md describes what the experiments reproduce and how to run
// them; rssdbench -json records each one's rows in BENCH_<name>.json.
package experiment

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/attack"
	"repro/internal/ftl"
	"repro/internal/host"
	"repro/internal/nand"
	"repro/internal/simclock"
)

// Scale selects how much work experiments do. Small keeps unit tests and
// rssdbench -short quick; Full is what rssdbench runs otherwise.
type Scale struct {
	// Blocks scales the simulated device (blocks per plane).
	BlocksPerPlane int
	// PagesPerBlock and PageSize fix block geometry.
	PagesPerBlock int
	PageSize      int
	// TraceOps is the number of trace operations replayed per workload.
	TraceOps int
	// SeedFiles is the user corpus size for attack experiments.
	SeedFiles    int
	MaxFilePages int
}

// SmallScale returns the configuration used by `go test`.
func SmallScale() Scale {
	return Scale{
		BlocksPerPlane: 64, PagesPerBlock: 8, PageSize: 512,
		TraceOps: 4000, SeedFiles: 20, MaxFilePages: 3,
	}
}

// FullScale returns the configuration used by cmd/rssdbench.
func FullScale() Scale {
	return Scale{
		BlocksPerPlane: 256, PagesPerBlock: 32, PageSize: 4096,
		TraceOps: 30000, SeedFiles: 60, MaxFilePages: 6,
	}
}

// ftlConfig builds the standard experiment FTL geometry.
func (s Scale) ftlConfig() ftl.Config {
	return ftl.Config{
		NAND: nand.Config{
			Geometry: nand.Geometry{
				Channels: 4, ChipsPerChannel: 2, DiesPerChip: 1, PlanesPerDie: 1,
				BlocksPerPlane: s.BlocksPerPlane, PagesPerBlock: s.PagesPerBlock,
				PageSize: s.PageSize,
			},
			Timing: nand.DefaultTiming(),
		},
		OverProvision: 0.125,
		GCLowWater:    3,
		GCHighWater:   6,
	}
}

// BaselineRig is a conventional FTL with a baseline retention policy.
type BaselineRig struct {
	FS  *host.FlatFS
	FTL *ftl.FTL
}

// NewBaselineRig wires an FTL + retainer + filesystem. attach is called
// with the constructed FTL so the retainer can reference it.
func NewBaselineRig(s Scale, ret ftl.Retainer, attach func(*ftl.FTL)) *BaselineRig {
	f := ftl.New(s.ftlConfig(), ret)
	if attach != nil {
		attach(f)
	}
	return &BaselineRig{FS: host.NewFlatFS(f, simclock.NewClock()), FTL: f}
}

// SystemName identifies a system under test in the defense matrix.
type SystemName string

// Systems under comparison in Table 1.
const (
	SysLocalSSD   SystemName = "LocalSSD"
	SysFlashGuard SystemName = "FlashGuard~"
	SysTimeSSD    SystemName = "TimeSSD~"
	SysRSSD       SystemName = "RSSD"
)

// AttackName identifies an attack scenario.
type AttackName string

// Attack scenarios.
const (
	AtkEncryptor AttackName = "encryptor"
	AtkGC        AttackName = "gc-attack"
	AtkTiming    AttackName = "timing-attack"
	AtkTrimming  AttackName = "trimming-attack"
)

// AllAttacks lists the matrix's attack scenarios.
var AllAttacks = []AttackName{AtkEncryptor, AtkGC, AtkTiming, AtkTrimming}

// AllSystems lists the matrix's systems.
var AllSystems = []SystemName{SysLocalSSD, SysFlashGuard, SysTimeSSD, SysRSSD}

// makeAttack constructs an attack instance for the matrix. Timing spans
// ~10 simulated days so it outlasts TimeSSD's 3-day window, as the paper's
// timing attack outlasts bounded retention.
func makeAttack(name AttackName) attack.Attack {
	key := [32]byte{0xA7, 1}
	switch name {
	case AtkGC:
		return &attack.GCAttack{Key: key, Rounds: 2}
	case AtkTiming:
		return &attack.TimingAttack{
			Key: key, FilesPerBurst: 2,
			BurstInterval: 24 * simclock.Hour, CoverOpsPerOp: 2,
		}
	case AtkTrimming:
		return &attack.TrimmingAttack{Key: key}
	default:
		return &attack.Encryptor{Key: key}
	}
}

// expectedPages flattens a file snapshot into per-LPN expected contents.
func expectedPages(snapshot map[string][]byte, extents map[string][]uint64, pageSize int) map[uint64][]byte {
	want := map[uint64][]byte{}
	for name, data := range snapshot {
		for i, lpn := range extents[name] {
			page := make([]byte, pageSize)
			if off := i * pageSize; off < len(data) {
				copy(page, data[off:])
			}
			want[lpn] = page
		}
	}
	return want
}

// seedAndSnapshot seeds the corpus and captures content + layout.
func seedAndSnapshot(fs *host.FlatFS, rng *rand.Rand, s Scale) (map[string][]byte, map[string][]uint64, error) {
	_, snap, err := attack.Seed(fs, rng, s.SeedFiles, s.MaxFilePages)
	if err != nil {
		return nil, nil, err
	}
	extents := map[string][]uint64{}
	for name := range snap {
		pages, err := fs.Extents(name)
		if err != nil {
			return nil, nil, err
		}
		extents[name] = pages
	}
	return snap, extents, nil
}

// grade maps a recoverable fraction to the paper's Table 1 symbols.
func grade(frac float64) string {
	switch {
	case frac >= 0.99:
		return "full"
	case frac > 0.10:
		return "partial"
	default:
		return "none"
	}
}

// verdicts collects the checks a run holds its rows to. A run returns its
// rows together with err, so a failed check is printed and recorded with
// the rows it failed on, and rssdbench exits 1.
type verdicts []string

// check records the failure format describes unless ok holds.
func (v *verdicts) check(ok bool, format string, args ...any) {
	if !ok {
		*v = append(*v, fmt.Sprintf(format, args...))
	}
}

// err names every failed check under the heading format gives, or is nil
// when all held.
func (v verdicts) err(format string, args ...any) error {
	if len(v) == 0 {
		return nil
	}
	return fmt.Errorf("%s failed:\n  %s", fmt.Sprintf(format, args...), strings.Join(v, "\n  "))
}
