package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// sample is one metric's value over the rounds of a run.
type sample struct {
	def metricDef
	// values holds one value per round for a wall-clock metric; for a
	// modeled or count metric, one per round of the run's first fixed rounds,
	// or a single value pooled over them.
	values []float64
	timedS float64 // wall seconds the metric's phase ran for, summed over rounds (wall metrics)
}

// quartiles mirrors Python's statistics.quantiles(v, n=4), the method the
// driver judges spreads by; the second quartile is the median.
func quartiles(v []float64) (q1, q2, q3 float64) {
	if len(v) == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

func median(v []float64) float64 {
	_, q2, _ := quartiles(v)
	return q2
}

// exactClass reports whether the metric must repeat exactly for a seed.
func (d *metricDef) exactClass() bool { return d.class == modeled || d.class == count }

// value is what the run reports for the metric. A wall-clock metric is the
// median over all rounds. Every round draws its own inputs, so a modeled or
// count metric is the mean over a fixed number of rounds: it then does not
// depend on how many rounds the time budget allowed, repeats exactly for a
// seed, and moves between seeds by a fraction of what one round's draw does.
func (s *sample) value() float64 {
	if !s.def.exactClass() {
		return median(s.values)
	}
	var sum float64
	for _, v := range s.values {
		sum += v
	}
	return ratio(sum, float64(len(s.values)))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// percentile returns the p-th percentile of v by nearest rank.
func percentile(v []int64, p float64) int64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]int64(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[max(idx, 0)]
}

// endToEndSamples turns the rounds into the 16 end-to-end metrics. Each
// wall-clock metric is a per-round rate; modeled and count metrics are taken
// from the first fixed rounds only.
func endToEndSamples(rounds []*roundResult, fixed int) []*sample {
	out := make([]*sample, len(endToEnd))
	for i, def := range endToEnd {
		out[i] = &sample{def: def}
	}
	var pooledLat []int64
	for i, r := range rounds {
		add := func(name string, v, timed float64) {
			for _, s := range out {
				if s.def.name == name {
					if i < fixed || !s.def.exactClass() {
						s.values = append(s.values, v)
						s.timedS += timed
					}
					return
				}
			}
			panic("unknown metric " + name)
		}
		if i < fixed {
			pooledLat = append(pooledLat, r.lat...)
		}
		var latSum int64
		for _, l := range r.lat {
			latSum += l
		}
		timed := (r.wallA + r.wallB + r.wallC + r.wallD).Seconds()
		add("setup_s", r.setup.Seconds(), r.setup.Seconds())
		add("host_pages_per_s", ratio(float64(r.hostPages), r.wallA.Seconds()), r.wallA.Seconds())
		add("ingest_pages_per_s", ratio(float64(r.ingestPages), r.wallB.Seconds()), r.wallB.Seconds())
		add("forensic_entries_per_s", ratio(float64(r.entries), r.wallC.Seconds()), r.wallC.Seconds())
		add("restore_pages_per_s", ratio(float64(r.rolledBack), r.wallD.Seconds()), r.wallD.Seconds())
		add("cpu_us_per_page", ratio(float64(r.cpuNs)/1e3, float64(r.hostPages)), timed)
		add("allocs_per_page", ratio(float64(r.mallocs), float64(r.hostPages)), 0)
		add("live_heap_mb", float64(r.liveHeap)/(1<<20), 0)
		add("host_sim_us_per_op", ratio(float64(latSum)/1e3, float64(len(r.lat))), 0)
		add("offload_ack_sim_us", ratio(float64(r.ackTime)/1e3, float64(r.ackSegments)), 0)
		add("restore_rto_sim_ms", ratio(float64(r.rto)/1e6, float64(r.attacks)), 0)
		add("wire_bytes_per_user_byte", ratio(float64(r.wireBytes), float64(r.userBytes)), 0)
		add("restore_wire_bytes_per_page", ratio(float64(r.restoreWire), float64(r.rolledBack)), 0)
		add("waf", ratio(float64(r.programs), float64(r.hostWrites)), 0)
		add("detect_lag_entries", ratio(float64(r.detectLag), float64(r.attacks)), 0)
	}
	for _, s := range out {
		if s.def.name == "host_sim_us_p99" {
			s.values = []float64{float64(percentile(pooledLat, 99)) / 1e3}
		}
	}
	return out
}

// layerSamples collects the traced rounds' per-layer metrics in the order
// perLayer lists them, modeled and count metrics from the first fixed rounds.
func layerSamples(rounds []*roundResult, fixed int) []*sample {
	out := make([]*sample, len(perLayer))
	for i, def := range perLayer {
		s := &sample{def: def}
		for k, r := range rounds {
			if k < fixed || !def.exactClass() {
				s.values = append(s.values, r.layers[def.name])
			}
		}
		out[i] = s
	}
	return out
}

// printSamples writes the human-readable table.
func printSamples(w io.Writer, samples []*sample) {
	fmt.Fprintf(w, "%-38s %-7s %-6s %1s %16s %14s %14s %3s %8s\n",
		"metric", "unit", "better", "c", "value", "q1", "q3", "n", "timed_s")
	for _, s := range samples {
		q1, _, q3 := quartiles(s.values)
		fmt.Fprintf(w, "%-38s %-7s %-6s %c %16.6g %14.6g %14.6g %3d %8.3f\n",
			s.def.name, s.def.unit, s.def.better, s.def.class, s.value(), q1, q3, len(s.values), s.timedS)
	}
}

// resultLine is the last line of standard output, the contract with the
// driver.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func writeResult(w io.Writer, samples []*sample, attempted, failed int64, correct bool) error {
	line := resultLine{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, s := range samples {
		line.Metrics[s.def.name] = metricValue{Value: s.value(), Unit: s.def.unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
