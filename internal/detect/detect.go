// Package detect implements the offloaded ransomware-detection pipeline.
//
// RSSD does not detect ransomware on the device: it conservatively retains
// everything and ships entropy-stamped operation logs to the remote
// server, where detection algorithms with real computing resources run —
// and can be upgraded without touching the firmware. This package is that
// server-side pipeline. It combines four signals:
//
//   - window entropy: the fraction of recent writes carrying
//     ciphertext-like entropy,
//   - read-then-overwrite: pages read shortly before being overwritten
//     with high-entropy data (the classic in-place encryptor),
//   - trim bursts: dense trims following reads (the trimming attack's
//     create-ciphertext-then-trim-plaintext pattern),
//   - a cumulative victim counter that is deliberately rate-independent:
//     however slowly a timing attack proceeds, each encrypted page
//     advances the counter and eventually crosses the threshold.
package detect

import (
	"fmt"
	"sync"

	"repro/internal/entropy"
	"repro/internal/ftl"
	"repro/internal/oplog"
	"repro/internal/remote"
	"repro/internal/simclock"
)

// Alert reports suspected ransomware activity.
type Alert struct {
	DeviceID uint64
	AtSeq    uint64 // log sequence of the entry that crossed the threshold
	At       simclock.Time
	Score    float64
	Reasons  []string
}

func (a Alert) String() string {
	return fmt.Sprintf("device %d: ransomware suspected at seq %d (%v), score %.2f: %v",
		a.DeviceID, a.AtSeq, a.At, a.Score, a.Reasons)
}

// Config tunes the ensemble.
type Config struct {
	// Window is the number of recent operations scored together.
	Window int
	// Threshold is the window score that raises an alert (0..1).
	Threshold float64
	// MinEvents is the minimum count of suspicious events in the window
	// before a score can alert, suppressing small-sample noise.
	MinEvents int
	// ReadHorizon is how many operations back a read still "pairs" with
	// an overwrite of the same LPN.
	ReadHorizon uint64
	// CumulativeVictims alerts when this many distinct pages have ever
	// been read-then-encrypted or read-then-trimmed, however slowly.
	CumulativeVictims int
	// Weights for the window ensemble.
	WeightEntropy  float64
	WeightReadOW   float64
	WeightTrim     float64
	WeightZeroWipe float64
	// PageSize enables the zero-wipe signal: overwrites whose content is
	// exactly one zero page (wiper malware writes low-entropy data that
	// the entropy signal cannot see). Zero disables the signal.
	PageSize int
}

// DefaultConfig returns thresholds tuned against the benign cover-traffic
// corpus (no false positives) while catching all four attack models.
func DefaultConfig() Config {
	return Config{
		Window:            64,
		Threshold:         0.35,
		MinEvents:         8,
		ReadHorizon:       512,
		CumulativeVictims: 64,
		// Benign traffic scores ~0.01 on this ensemble (its writes are
		// low entropy, its trims isolated), so 0.35 keeps a wide margin
		// while catching the partial encryptor's thinner signal.
		// Zero-wipes get full weight: a page-exact zero overwrite of
		// live data essentially never occurs benignly.
		WeightEntropy:  0.4,
		WeightReadOW:   0.8,
		WeightTrim:     0.2,
		WeightZeroWipe: 1.0,
		PageSize:       4096,
	}
}

// event is the per-operation feature vector kept in the sliding window.
type event struct {
	highEntOverwrite bool
	readThenEncrypt  bool
	readThenTrim     bool
	zeroWipe         bool
}

type devState struct {
	mu          sync.Mutex
	recentReads map[uint64]uint64 // lpn -> last read seq
	window      []event
	wHead       int
	wCount      int
	// counts within the current window
	nHighEnt, nReadOW, nTrim, nZero int
	// cumulative, rate-independent victim set
	victims map[uint64]struct{}
	alerted bool
}

// dirShards splits the device directory so directory lookups from a fleet
// of ingest workers don't all contend on one lock. Power of two for cheap
// masking; 16 keeps contention negligible out to the 512-device target.
const dirShards = 16

// deviceShard is one slice of the device directory.
type deviceShard struct {
	mu      sync.RWMutex
	devices map[uint64]*devState
}

// Engine consumes operation-log entries (typically via a remote.Store
// subscription) and raises alerts. Like the remote store it is sharded
// per device: the directory itself is split across dirShards locks and
// each device's sliding window sits behind its own lock, so a fleet of
// sessions streams through detection concurrently — one device's analysis
// never stalls another's ingest, and a saturated ingest lane never
// serializes on a single directory mutex.
type Engine struct {
	cfg      Config
	zeroHash [oplog.HashSize]byte
	zeroOK   bool

	shards [dirShards]deviceShard

	alertMu sync.Mutex
	alerts  []Alert
	// OnAlert, when set, is invoked (outside the locks) for each alert.
	OnAlert func(Alert)
}

// NewEngine returns a detection engine.
func NewEngine(cfg Config) *Engine {
	if cfg.Window <= 0 {
		cfg = DefaultConfig()
	}
	e := &Engine{cfg: cfg}
	for i := range e.shards {
		e.shards[i].devices = map[uint64]*devState{}
	}
	if cfg.PageSize > 0 {
		e.zeroHash = oplog.HashData(make([]byte, cfg.PageSize))
		e.zeroOK = true
	}
	return e
}

// Attach subscribes the engine to a remote store so every ingested
// segment is analyzed as it streams in — the paper's "offload detection to
// remote servers", run at ingest time rather than as after-the-fact batch
// queries.
func (e *Engine) Attach(store *remote.Store) {
	store.Subscribe(func(deviceID uint64, seg *oplog.Segment) {
		e.Observe(deviceID, seg.Entries)
	})
}

// Alerts returns all alerts raised so far.
func (e *Engine) Alerts() []Alert {
	e.alertMu.Lock()
	defer e.alertMu.Unlock()
	return append([]Alert(nil), e.alerts...)
}

// AlertsFor returns the alerts raised against one device.
func (e *Engine) AlertsFor(deviceID uint64) []Alert {
	e.alertMu.Lock()
	defer e.alertMu.Unlock()
	var out []Alert
	for _, a := range e.alerts {
		if a.DeviceID == deviceID {
			out = append(out, a)
		}
	}
	return out
}

// Reset clears a device's alert latch (after an investigation concludes).
func (e *Engine) Reset(deviceID uint64) {
	sh := &e.shards[deviceID&(dirShards-1)]
	sh.mu.RLock()
	d, ok := sh.devices[deviceID]
	sh.mu.RUnlock()
	if ok {
		d.mu.Lock()
		d.alerted = false
		d.mu.Unlock()
	}
}

// Handoff moves one device's detection state — sliding window, recent-read
// horizon, cumulative victim set, alert latch — from this engine to dst.
// The fleet control plane calls it when failover or rebalancing moves a
// device to a server with its own engine: detection must continue
// mid-window at the new server, not restart from an empty state a slow
// attacker could reset by riding out a server kill. The state moves by
// pointer, so an in-flight Observe holding the device lock completes
// before the new engine's first Observe takes it. A device never observed
// here is a no-op; if dst somehow already has state for the device (a
// stale double-move), dst's live state wins and the carried copy is
// dropped.
func (e *Engine) Handoff(deviceID uint64, dst *Engine) {
	if dst == nil || dst == e {
		return
	}
	sh := &e.shards[deviceID&(dirShards-1)]
	sh.mu.Lock()
	d, ok := sh.devices[deviceID]
	delete(sh.devices, deviceID)
	sh.mu.Unlock()
	if !ok {
		return
	}
	dsh := &dst.shards[deviceID&(dirShards-1)]
	dsh.mu.Lock()
	if _, exists := dsh.devices[deviceID]; !exists {
		dsh.devices[deviceID] = d
	}
	dsh.mu.Unlock()
}

func (e *Engine) dev(id uint64) *devState {
	sh := &e.shards[id&(dirShards-1)]
	sh.mu.RLock()
	d, ok := sh.devices[id]
	sh.mu.RUnlock()
	if ok {
		return d
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if d, ok = sh.devices[id]; !ok {
		d = &devState{
			recentReads: map[uint64]uint64{},
			window:      make([]event, e.cfg.Window),
			victims:     map[uint64]struct{}{},
		}
		sh.devices[id] = d
	}
	return d
}

// Observe feeds entries (in log order) through the ensemble. Only the
// device's own shard is locked, so a fleet streams concurrently.
func (e *Engine) Observe(deviceID uint64, entries []oplog.Entry) {
	var fired []Alert
	d := e.dev(deviceID)
	d.mu.Lock()
	for i := range entries {
		if a, ok := e.observeOne(deviceID, d, &entries[i]); ok {
			fired = append(fired, a)
		}
	}
	d.mu.Unlock()
	if e.OnAlert != nil {
		for _, a := range fired {
			e.OnAlert(a)
		}
	}
}

func (e *Engine) observeOne(deviceID uint64, d *devState, en *oplog.Entry) (Alert, bool) {
	var ev event
	switch en.Kind {
	case oplog.KindRead:
		d.recentReads[en.LPN] = en.Seq
		// Bound the map: forget reads beyond the horizon lazily by size.
		if len(d.recentReads) > int(e.cfg.ReadHorizon)*4 {
			for lpn, seq := range d.recentReads {
				if en.Seq-seq > e.cfg.ReadHorizon {
					delete(d.recentReads, lpn)
				}
			}
		}
		// Reads enter the window as benign events so the window score is
		// a true *rate*: a slow attacker buried in read-heavy traffic
		// dilutes it (and must be caught by the cumulative counter).
		e.push(d, event{})
		return Alert{}, false
	case oplog.KindWrite:
		high := entropy.IsHigh(float64(en.Entropy))
		overwrite := en.OldPPN != ftl.NoPPN
		ev.highEntOverwrite = high && overwrite
		if e.zeroOK && overwrite && en.DataHash == e.zeroHash {
			// A wiper destroying data with zeroes: invisible to the
			// entropy signal, unmistakable by content hash.
			ev.zeroWipe = true
			d.victims[en.LPN] = struct{}{}
		}
		if seq, ok := d.recentReads[en.LPN]; ok && en.Seq-seq <= e.cfg.ReadHorizon && high {
			ev.readThenEncrypt = true
			d.victims[en.LPN] = struct{}{}
		}
	case oplog.KindTrim:
		if seq, ok := d.recentReads[en.LPN]; ok && en.Seq-seq <= e.cfg.ReadHorizon {
			ev.readThenTrim = true
			d.victims[en.LPN] = struct{}{}
		}
	default:
		return Alert{}, false
	}
	e.push(d, ev)

	if d.alerted {
		return Alert{}, false
	}
	score, reasons := e.score(d)
	events := d.nHighEnt + d.nReadOW + d.nTrim + d.nZero
	if score >= e.cfg.Threshold && events >= e.cfg.MinEvents {
		return e.fire(deviceID, d, en, score, reasons), true
	}
	if len(d.victims) >= e.cfg.CumulativeVictims {
		return e.fire(deviceID, d, en, 1.0,
			[]string{fmt.Sprintf("cumulative: %d pages read-then-encrypted/trimmed", len(d.victims))}), true
	}
	return Alert{}, false
}

func (e *Engine) fire(deviceID uint64, d *devState, en *oplog.Entry, score float64, reasons []string) Alert {
	d.alerted = true
	a := Alert{DeviceID: deviceID, AtSeq: en.Seq, At: en.At, Score: score, Reasons: reasons}
	e.alertMu.Lock()
	e.alerts = append(e.alerts, a)
	e.alertMu.Unlock()
	return a
}

// push adds an event to the ring window, updating counts.
func (e *Engine) push(d *devState, ev event) {
	if d.wCount == len(d.window) {
		old := d.window[d.wHead]
		if old.highEntOverwrite {
			d.nHighEnt--
		}
		if old.readThenEncrypt {
			d.nReadOW--
		}
		if old.readThenTrim {
			d.nTrim--
		}
		if old.zeroWipe {
			d.nZero--
		}
	} else {
		d.wCount++
	}
	d.window[d.wHead] = ev
	d.wHead = (d.wHead + 1) % len(d.window)
	if ev.highEntOverwrite {
		d.nHighEnt++
	}
	if ev.readThenEncrypt {
		d.nReadOW++
	}
	if ev.readThenTrim {
		d.nTrim++
	}
	if ev.zeroWipe {
		d.nZero++
	}
}

// score computes the weighted window score and its explanation.
func (e *Engine) score(d *devState) (float64, []string) {
	if d.wCount == 0 {
		return 0, nil
	}
	n := float64(d.wCount)
	fEnt := float64(d.nHighEnt) / n
	fROW := float64(d.nReadOW) / n
	fTrim := float64(d.nTrim) / n
	fZero := float64(d.nZero) / n
	score := e.cfg.WeightEntropy*fEnt + e.cfg.WeightReadOW*fROW +
		e.cfg.WeightTrim*fTrim + e.cfg.WeightZeroWipe*fZero
	var reasons []string
	if fEnt > 0.25 {
		reasons = append(reasons, fmt.Sprintf("high-entropy overwrites %.0f%% of window", fEnt*100))
	}
	if fROW > 0.25 {
		reasons = append(reasons, fmt.Sprintf("read-then-encrypt %.0f%% of window", fROW*100))
	}
	if fTrim > 0.25 {
		reasons = append(reasons, fmt.Sprintf("read-then-trim %.0f%% of window", fTrim*100))
	}
	if fZero > 0.25 {
		reasons = append(reasons, fmt.Sprintf("zero-wipe overwrites %.0f%% of window", fZero*100))
	}
	return score, reasons
}
