package experiment

import (
	"flag"
	"fmt"
	"slices"
	"strings"

	"repro/internal/remote"
)

// Options are the values of the command-line flags an experiment may read.
// Short is the one size switch: it picks SmallScale over FullScale and an
// entry's Short defaults over its Full ones.
type Options struct {
	Short   bool
	Devices int
	Servers int
	Seed    int64
	Backend string
}

// Bind registers every option on fs as a flag that writes into o, with o's
// current values as the defaults.
func (o *Options) Bind(fs *flag.FlagSet) {
	fs.BoolVar(&o.Short, "short", o.Short, "CI smoke size: small scale and each experiment's -short defaults")
	fs.IntVar(&o.Devices, "devices", o.Devices, "device count"+readBy("devices"))
	fs.IntVar(&o.Servers, "servers", o.Servers, "ingest server count (at least 2)"+readBy("servers"))
	fs.Int64Var(&o.Seed, "seed", o.Seed, "chaos schedule seed; every fault draw replays from it"+readBy("seed"))
	fs.StringVar(&o.Backend, "backend", o.Backend, "storage tier(s): mem, dir, s3sim, a comma-separated list, or all"+readBy("backend"))
}

// flags is a flag set bound to o, for setting and reading options by name.
func (o *Options) flags() *flag.FlagSet {
	fs := flag.NewFlagSet("options", flag.ContinueOnError)
	o.Bind(fs)
	return fs
}

func (o Options) scale() Scale {
	if o.Short {
		return SmallScale()
	}
	return FullScale()
}

// An Experiment is one entry of the evaluation. rssdbench's flag checks,
// its output and the BENCH_<name>.json headers all derive from it.
type Experiment struct {
	Name  string
	Title string
	// Reads names the flags Run reads besides -short; Full and Short hold
	// their defaults at each size.
	Reads       []string
	Full, Short Options
	// Run returns the rows BENCH_<name>.json records; rssdbench prints them
	// through metrics.Render. A run whose rows fail its verdicts returns
	// them together with the error naming each failure.
	Run func(o Options) (rows any, err error)
}

// Registry is every experiment, in the order -exp all runs them.
var Registry = []Experiment{
	{
		Name:  "fig2",
		Title: "Figure 2 — data retention time (days) on a 512 GiB SSD, 7% OP, 1 TiB remote budget",
		Run: func(o Options) (any, error) {
			return Fig2Retention(o.scale())
		},
	},
	{
		Name:  "table1",
		Title: "Table 1 — defense matrix (attack replays; recovery graded none/partial/full)",
		Run: func(o Options) (any, error) {
			return DefenseMatrix(o.scale())
		},
	},
	{
		Name:  "perf",
		Title: "Claims P1 and P2 — latency, write amplification and retention backlog, plain FTL vs RSSD (trace-paced replay)",
		Run: func(o Options) (any, error) {
			return PerfOverhead(o.scale(), []string{"hm", "src", "usr", "web"})
		},
	},
	{
		Name:  "detection",
		Title: "Offloaded detection — coverage and latency across six attack variants",
		Run: func(o Options) (any, error) {
			return DetectionLatency(o.scale())
		},
	},
	{
		Name:  "fleet",
		Title: "Fleet — async offload, sharded ingest and streaming detection over a cluster: placement, failover and the scaling curve",
		Reads: []string{"devices", "servers"},
		Full:  Options{Devices: 512, Servers: 8},
		Short: Options{Devices: 64, Servers: 4},
		Run: func(o Options) (any, error) {
			return Fleet(o.scale(), o.Devices, o.Servers)
		},
	},
	{
		Name:  "retention",
		Title: "Retention tiers — the fleet workload against each storage backend (compressed offload wire)",
		Reads: []string{"devices", "backend"},
		Full:  Options{Devices: 8, Backend: "all"},
		Short: Options{Devices: 2, Backend: "all"},
		Run: func(o Options) (any, error) {
			backends := RetentionBackends
			if o.Backend != "all" {
				backends = strings.Split(o.Backend, ",")
				for i, name := range backends {
					backends[i] = strings.TrimSpace(name)
					if !slices.Contains(remote.Backends(), backends[i]) {
						return nil, fmt.Errorf("unknown backend %q (have %v)", backends[i], remote.Backends())
					}
				}
			}
			return Retention(o.scale(), o.Devices, backends)
		},
	},
	{
		Name:  "recovery",
		Title: "Fleet recovery — power-cycle every device, concurrent dedup + checkpoint-delta streamed restores from one server",
		Reads: []string{"devices"},
		Full:  Options{Devices: 8},
		Short: Options{Devices: 2},
		Run: func(o Options) (any, error) {
			return FleetRecovery(o.scale(), o.Devices)
		},
	},
	{
		Name:  "dedup",
		Title: "Dedup restore — content-addressed store + checkpoint-anchored delta vs full image, measured devices + scaling model",
		Reads: []string{"devices"},
		Full:  Options{Devices: 8},
		Short: Options{Devices: 2},
		Run: func(o Options) (any, error) {
			return DedupRestore(o.scale(), o.Devices)
		},
	},
	{
		Name:  "soak",
		Title: "Chaos soak — waves of a device fleet under seeded fault injection with continuous invariants",
		Reads: []string{"devices", "servers", "seed"},
		Full:  Options{Devices: 16, Servers: 3, Seed: 1},
		Short: Options{Devices: 3, Servers: 3, Seed: 1},
		Run: func(o Options) (any, error) {
			waves := 16
			if o.Short {
				waves = 3
			}
			return Soak(o.scale(), SoakOptions{
				Devices: o.Devices, Servers: o.Servers, Waves: waves, Seed: o.Seed, Short: o.Short,
			})
		},
	},
}

// Lookup returns the registry entry called name.
func Lookup(name string) (*Experiment, bool) {
	for i := range Registry {
		if Registry[i].Name == name {
			return &Registry[i], true
		}
	}
	return nil, false
}

// Names lists the registry in run order.
func Names() []string {
	names := make([]string, len(Registry))
	for i, e := range Registry {
		names[i] = e.Name
	}
	return names
}

// readers lists the entries that read flag name.
func readers(name string) []string {
	var names []string
	for _, e := range Registry {
		if slices.Contains(e.Reads, name) {
			names = append(names, e.Name)
		}
	}
	return names
}

func readBy(name string) string {
	return " (read by " + strings.Join(readers(name), ", ") + ")"
}

// Resolve returns the options e runs with: its defaults at the size
// given.Short picks, overridden by given's value of every option flag named
// in set (other names are skipped), each of which e must read.
func (e *Experiment) Resolve(given Options, set []string) (Options, error) {
	o := e.Full
	if given.Short {
		o = e.Short
	}
	o.Short = given.Short
	src, dst := given.flags(), o.flags()
	for _, name := range set {
		if name == "short" || src.Lookup(name) == nil {
			continue
		}
		if !slices.Contains(e.Reads, name) {
			return o, fmt.Errorf("-%s is not read by -exp %s (read by: %s)", name, e.Name, strings.Join(readers(name), ", "))
		}
		if err := dst.Set(name, src.Lookup(name).Value.String()); err != nil {
			return o, err
		}
	}
	if slices.Contains(e.Reads, "devices") && o.Devices < 1 || slices.Contains(e.Reads, "servers") && o.Servers < 1 {
		return o, fmt.Errorf("-exp %s needs at least one device and one server", e.Name)
	}
	return o, nil
}

// Flags is the flags e read in a run with o, by name, as the run's
// BENCH_<name>.json header records them.
func (e *Experiment) Flags(o Options) map[string]any {
	fs := o.flags()
	m := make(map[string]any, len(e.Reads))
	for _, name := range e.Reads {
		m[name] = fs.Lookup(name).Value.(flag.Getter).Get()
	}
	return m
}
