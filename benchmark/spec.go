package main

import (
	"runtime"

	"repro/internal/simclock"
)

// frontKind is how phase A's benign block traffic reaches the device.
type frontKind int

const (
	frontNVMe  frontKind = iota // nvme.MultiQueue commands
	frontBatch                  // SubmitBatch on the device, no front
)

type attackKind int

const (
	atkEncryptor attackKind = iota
	atkTiming
	atkTrimming
	atkGC
)

func (a attackKind) String() string {
	return [...]string{"encryptor", "timing-attack", "trimming-attack", "gc-attack"}[a]
}

// nvmeQueues is the number of queue pairs of the NVMe front, one per core
// of the box the benchmark is sized for.
const nvmeQueues = 2

// coverEditFrac is the share of benign file-traffic steps that write, the
// value attack.TimingAttack gives its own cover.
const coverEditFrac = 0.2

// shapeSeed labels the stream the cover traffic and the attack models draw
// from (gen.go, genFiles).
const shapeSeed = 0x72737364

// forensicPasses is how often phase C analyses each device per round: one
// pass of the shortest workload takes 60 ms, too short a sample.
const forensicPasses = 2

// spec fixes one workload: every size and every simulated-time constant.
// Round length is part of each metric's definition (forensic.Timeline is
// superlinear in the number of entries), so nothing here is derived at run
// time.
type spec struct {
	name string
	why  string

	devices        int
	blocksPerPlane int // device size; 8 chips x 32 pages per block
	front          frontKind

	// Block trace over LPNs [0, wsPages); precondPages of them written once
	// in set-up. The top trimPages take the trace's trims and nothing else.
	wsPages      int
	precondPages int
	trimPages    int
	records      int
	// gapUs is the arrival gap in simulated microseconds. It is set so the
	// plain FTL under the same requests keeps its one open block's chip
	// about 0.7 busy at HEAD: dense enough to queue, sparse enough to drain.
	gapUs       int
	writeFrac   float64
	trimFrac    float64
	maxReqPages int
	zipfS       float64
	randomFrac  float64
	sharedFrac  float64 // share of written pages drawn from the fleet pool
	poolPages   int

	// Filesystem window [fsBase, fsBase+fsPages) and what lives in it.
	fsBase, fsPages                int
	corpusFiles                    int
	corpusMinPages, corpusMaxPages int
	coverSteps                     int

	attack        attackKind
	attacked      []int // device indexes the attack hits
	floodRounds   int
	filesPerBurst int
	coverPerFile  int
	burstInterval simclock.Duration
}

// procs is the number of Ps a run of the workload gets. The fleet workload
// gets every core: its host goroutines, transfer goroutines and the server's
// lanes contend for the dedup index, the store shards and the NIC arbiter,
// and a change in that contention has to show. A single device runs on one
// P: its few goroutines hand work to each other, a second P only adds
// overlap, and on the 2-core box the sizes were fixed on that overlap moved
// identical runs apart by 15 % on a day the second vCPU came and went.
func (sp *spec) procs() int {
	if sp.devices == 1 {
		return 1
	}
	return runtime.NumCPU()
}

// drivers is the number of host goroutines of phase A: one per P, or one per
// device if there are fewer.
func (sp *spec) drivers() int {
	return min(sp.procs(), sp.devices)
}

var specs = []*spec{
	{
		name: "write_offload",
		why:  "85 % writes of unshared 35 %-random pages via nvme.MultiQueue, then an in-place encryptor: core hash and entropy, deflate, server decode and verify. One P, so a gain from overlap alone does not show",

		devices: 1, blocksPerPlane: 64, front: frontNVMe,
		wsPages: 8192, precondPages: 8192, trimPages: 1024, records: 6000, gapUs: 1500,
		writeFrac: 0.85, trimFrac: 0.01, maxReqPages: 3, zipfS: 1.1, randomFrac: 0.35,
		fsBase: 8192, fsPages: 4096, corpusFiles: 256, corpusMinPages: 2, corpusMaxPages: 6,
		attack: atkEncryptor, attacked: []int{0},
	},
	{
		name: "read_mostly",
		why:  "90 % logged reads over a quarter of the device, then a slow timing attack under cover traffic: entry-heavy, page-light segments; ftl/nand reads, oplog append, detect. One P; the codec idles",

		devices: 1, blocksPerPlane: 64, front: frontNVMe,
		wsPages: 3584, precondPages: 3584, trimPages: 512, records: 22000, gapUs: 150,
		writeFrac: 0.09, trimFrac: 0.01, maxReqPages: 3, zipfS: 1.1, randomFrac: 0.35,
		fsBase: 8192, fsPages: 4096, corpusFiles: 256, corpusMinPages: 2, corpusMaxPages: 6,
		attack: atkTiming, attacked: []int{0},
		filesPerBurst: 4, coverPerFile: 2, burstInterval: 6 * simclock.Hour,
	},
	{
		name: "ingest_fanin",
		why:  "8 devices on one server and one NIC arbiter, on every core, straight into SubmitBatch, 60 % of pages fleet-shared, trimming attack on 2: remote lane, dedup, netsim, frame crypto and their locks",

		devices: 8, blocksPerPlane: 16, front: frontBatch,
		wsPages: 2048, precondPages: 2048, trimPages: 256, records: 1200, gapUs: 1500,
		writeFrac: 0.85, trimFrac: 0.01, maxReqPages: 3, zipfS: 1.1, randomFrac: 0.35,
		sharedFrac: 0.6, poolPages: 512,
		fsBase: 2048, fsPages: 1024, corpusFiles: 48, corpusMinPages: 2, corpusMaxPages: 6,
		attack: atkTrimming, attacked: []int{2, 5},
	},
	{
		name: "attack_recover",
		why:  "recorded host.FlatFS cover traffic beside a block trace, then a gc-attack flood of ciphertext (stored codec, not deflate): ftl GC, forensic, recovery, the ref-chunk restore stream. One P",

		devices: 1, blocksPerPlane: 64, front: frontBatch,
		wsPages: 6144, precondPages: 6144, trimPages: 512, records: 3000, gapUs: 900,
		writeFrac: 0.5, trimFrac: 0.01, maxReqPages: 3, zipfS: 1.1, randomFrac: 0.35,
		fsBase: 6144, fsPages: 6144, corpusFiles: 320, corpusMinPages: 2, corpusMaxPages: 6,
		coverSteps: 1600,
		attack:     atkGC, attacked: []int{0}, floodRounds: 2,
	},
}

func specByName(name string) *spec {
	for _, sp := range specs {
		if sp.name == name {
			return sp
		}
	}
	return nil
}

// tiny shrinks a workload for the package's own test: same shape, a few
// percent of the work, at most two devices. Its numbers mean nothing outside
// the test.
func (sp *spec) tiny() *spec {
	t := *sp
	t.blocksPerPlane = 16
	t.records = sp.records / 40
	t.wsPages, t.precondPages, t.trimPages = 512, 512, 64
	t.fsBase, t.fsPages = 512, 768
	t.corpusFiles = 32
	t.coverSteps = sp.coverSteps / 20
	t.poolPages = sp.poolPages / 8
	if t.devices > 2 {
		t.devices, t.attacked = 2, []int{1}
	}
	return &t
}

// metricClass is how a metric is expected to repeat: wall-clock metrics
// carry noise; modeled and count metrics repeat exactly for a given seed.
type metricClass byte

const (
	wall    metricClass = 'W'
	modeled metricClass = 'M'
	count   metricClass = 'C'
	// approx is a count the scheduler perturbs (allocations made by
	// goroutines that race): it repeats within its bound, not exactly.
	approx metricClass = 'A'
)

// metricDef describes one reported metric. BENCHMARK.json repeats name,
// unit, better and (end to end) bound; the test checks the two agree.
type metricDef struct {
	name   string
	unit   string
	better string
	class  metricClass
	bound  float64 // end to end only
	doc    string
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower", wall, 0.25, "median over rounds of input generation + shadow + rig build + preconditioning"},
	{"host_pages_per_s", "1/s", "higher", wall, 0.25, "host pages completed / wall of phase A (replay, attack, drain to durable)"},
	{"ingest_pages_per_s", "1/s", "higher", wall, 0.25, "pages in the re-pushed blobs / wall of phase B (Client.PushSegmentBlobs, window 8)"},
	{"forensic_entries_per_s", "1/s", "higher", wall, 0.25, "timeline entries / wall of phase C (Timeline, VerifyChain, AttackWindow)"},
	{"restore_pages_per_s", "1/s", "higher", wall, 0.25, "pages rolled back / wall of phase D (Reopen + RestoreImage, dedup + delta)"},
	{"cpu_us_per_page", "us", "lower", wall, 0.25, "process user+sys CPU over phases A-D / host pages"},
	{"allocs_per_page", "count", "lower", approx, 0.02, "mallocs over phases A-D / host pages"},
	{"live_heap_mb", "MB", "lower", wall, 0.03, "HeapAlloc after a forced GC at the end of phase A, inputs released"},
	{"host_sim_us_per_op", "us", "lower", modeled, 0.15, "mean modeled latency per host request, from its due time"},
	{"host_sim_us_p99", "us", "lower", modeled, 0.25, "p99 of the same, latencies pooled over the rounds"},
	{"offload_ack_sim_us", "us", "lower", modeled, 0.12, "Stats.OffloadAckTime / OffloadSegments over phase A"},
	{"restore_rto_sim_ms", "ms", "lower", modeled, 0.03, "RestoreReport.RTO"},
	{"wire_bytes_per_user_byte", "B/B", "lower", count, 0.02, "OffloadBytesWire / host bytes written over phase A"},
	{"restore_wire_bytes_per_page", "B", "lower", count, 0.02, "RestoreReport.BytesWire / pages rolled back"},
	{"waf", "ratio", "lower", count, 0.02, "NAND programs / host page writes over phase A"},
	{"detect_lag_entries", "count", "lower", count, 0.05, "log entries from the attack's first operation to the alert"},
}
