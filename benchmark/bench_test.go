package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
	"time"

	"repro/internal/bufpool"
)

// The tests run every workload shrunk (spec.tiny): they check the harness,
// not the program's speed. Wall-clock comparisons use planted delays several
// times the size of what they are compared with.

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

// TestBenchmarkJSONMatchesTables: every name, unit, direction and bound in
// BENCHMARK.json is the one the code reports under.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code has %d", len(bj.Workloads), len(specs))
	}
	for i, w := range bj.Workloads {
		if w.Name != specs[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in code", i, w.Name, specs[i].name)
		}
	}
	check := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the code has %d", kind, len(got), len(want))
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s %d: BENCHMARK.json has %s/%s/%s, the code %s/%s/%s", kind, i, g.Name, g.Unit, g.Better, w.name, w.unit, w.better)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != w.bound):
				t.Errorf("%s %s: bound in BENCHMARK.json does not match the code's %g", kind, w.name, w.bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s %s: a per-layer metric has no bound", kind, w.name)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd, true)
	check("per_layer", bj.PerLayer, perLayer, false)
}

type tinyKey struct {
	name  string
	trace bool
	plant plants
}

// tinyRuns remembers the first run of each configuration: the unplanted runs
// are the baselines several tests compare against.
var tinyRuns = map[tinyKey]*runResult{}

func tinyRun(t *testing.T, name string, trace bool, pl plants) *runResult {
	t.Helper()
	if rr := tinyRuns[tinyKey{name, trace, pl}]; rr != nil {
		return rr
	}
	rr := freshTinyRun(t, name, trace, pl)
	tinyRuns[tinyKey{name, trace, pl}] = rr
	return rr
}

func freshTinyRun(t *testing.T, name string, trace bool, pl plants) *runResult {
	t.Helper()
	// Two rounds where the test compares rounds; a traced run, which adds an
	// untraced round after each, gets one.
	rounds := 2
	if trace {
		rounds = 1
	}
	rr, err := runOnce(options{sp: specByName(name).tiny(), seed: 7, rounds: rounds, trace: trace, plant: pl, outDir: t.TempDir()}, io.Discard)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if rr.failed != 0 {
		t.Fatalf("%s: %d of %d checked operations failed", name, rr.failed, rr.attempted)
	}
	return rr
}

// metric finds a reported metric by name, end to end or per layer.
func (rr *runResult) metric(t *testing.T, name string) *sample {
	t.Helper()
	for _, set := range [][]*sample{rr.samples, rr.endToEnd} {
		for _, s := range set {
			if s.def.name == name {
				return s
			}
		}
	}
	t.Fatalf("metric %s not reported", name)
	return nil
}

// TestEveryWorkloadReportsAndRepeats: each workload reports all end-to-end
// metrics with nothing failing, and a second run of the same seed reproduces
// every modeled and count metric exactly.
func TestEveryWorkloadReportsAndRepeats(t *testing.T) {
	for _, sp := range specs {
		first := tinyRun(t, sp.name, false, plants{})
		second := freshTinyRun(t, sp.name, false, plants{})
		for _, def := range endToEnd {
			a, b := first.metric(t, def.name), second.metric(t, def.name)
			if a.value() == 0 {
				t.Errorf("%s: %s is 0", sp.name, def.name)
			}
			if def.exactClass() && a.value() != b.value() {
				t.Errorf("%s: %s differs between runs of one seed: %v vs %v", sp.name, def.name, a.value(), b.value())
			}
		}
	}
}

// TestTracedRunBudget: the traced run reports every per-layer metric, the
// host goroutine's spans account for its phase-A wall, and no pooled buffer
// leaks.
func TestTracedRunBudget(t *testing.T) {
	for _, name := range []string{"write_offload", "ingest_fanin"} {
		rr := tinyRun(t, name, true, plants{})
		if len(rr.samples) != len(perLayer) {
			t.Fatalf("%s: %d per-layer metrics reported, want %d", name, len(rr.samples), len(perLayer))
		}
		if share := rr.metric(t, "budget.host_sum_share").value(); share < 0.95 || share > 1.05 {
			t.Errorf("%s: host spans cover %.3f of the host goroutines' phase-A wall, want within 5 %% of 1", name, share)
		}
		if d := rr.metric(t, "bufpool.outstanding_delta").value(); d != 0 {
			t.Errorf("%s: %v pooled buffers outstanding", name, d)
		}
		if v := rr.metric(t, "core.submit_ns_per_page").value(); v <= 0 {
			t.Errorf("%s: core.submit_ns_per_page is %v", name, v)
		}
	}
}

// TestPlantMovesWhatItShould is the evidence that the benchmark measures the
// program: a delay planted inside a seam shows up, at its size, in the
// metric of the layer behind that seam; it worsens the end-to-end metric the
// layer map predicts; and it leaves alone a metric whose phase never crosses
// the seam.
func TestPlantMovesWhatItShould(t *testing.T) {
	if bufpool.RaceEnabled {
		t.Skip("compares wall-clock times, which the race detector stretches unevenly")
	}
	cases := []struct {
		seam      string
		plant     plants
		workload  string
		layer     string        // must grow by about grow
		grow      time.Duration // per unit of the layer metric
		predicted string        // end-to-end metric that must worsen
		control   string        // end-to-end metric of a phase that bypasses the seam
	}{
		{"BlockDevice", plants{dev: 80 * time.Microsecond}, "attack_recover",
			"core.submit_ns_per_page", 80 * time.Microsecond, "host_pages_per_s", "forensic_entries_per_s"},
		{"conn", plants{conn: 100 * time.Microsecond}, "write_offload",
			"nvmeoe.conn_write_ns_per_kb", 100 * time.Microsecond, "ingest_pages_per_s", "forensic_entries_per_s"},
		{"Subscribe", plants{subscribe: 50 * time.Microsecond}, "read_mostly",
			"detect.observe_ns_per_entry", 50 * time.Microsecond, "ingest_pages_per_s", "forensic_entries_per_s"},
	}
	for _, c := range cases {
		// Both sides traced, so the comparison carries the same tracing cost.
		base, planted := tinyRun(t, c.workload, true, plants{}), tinyRun(t, c.workload, true, c.plant)
		if b, p := base.metric(t, c.predicted).value(), planted.metric(t, c.predicted).value(); p > 0.7*b {
			t.Errorf("%s on %s: %s went from %.0f to %.0f, want it at least 30 %% worse", c.seam, c.workload, c.predicted, b, p)
		}
		if b, p := base.metric(t, c.control).value(), planted.metric(t, c.control).value(); p < 0.6*b {
			t.Errorf("%s on %s: control %s went from %.0f to %.0f though its phase bypasses the seam", c.seam, c.workload, c.control, b, p)
		}
		got := planted.metric(t, c.layer).value() - base.metric(t, c.layer).value()
		if want := float64(c.grow); got < 0.8*want || got > 1.5*want {
			t.Errorf("%s on %s: %s grew by %.0f ns, planted %.0f ns", c.seam, c.workload, c.layer, got, want)
		}
	}
}
