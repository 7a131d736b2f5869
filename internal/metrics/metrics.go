// Package metrics provides the counters, histograms, and latency
// percentile tracking the benchmark harness reports. Everything works on
// simulated durations, so percentiles describe device behaviour rather
// than Go runtime behaviour.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/simclock"
)

// Histogram collects simulated latency samples and reports percentiles.
// It keeps exact samples up to a cap, then switches to reservoir sampling
// with a deterministic stride so long runs stay bounded in memory.
type Histogram struct {
	samples []simclock.Duration
	count   uint64
	sum     simclock.Duration
	max     simclock.Duration
	cap     int
	stride  uint64
	sorted  bool
}

// NewHistogram returns a histogram retaining at most capSamples exact
// samples (default 1<<16 when zero).
func NewHistogram(capSamples int) *Histogram {
	if capSamples <= 0 {
		capSamples = 1 << 16
	}
	return &Histogram{cap: capSamples, stride: 1}
}

// Observe records one sample.
func (h *Histogram) Observe(d simclock.Duration) {
	h.count++
	h.sum += d
	if d > h.max {
		h.max = d
	}
	if h.count%h.stride != 0 {
		return
	}
	if len(h.samples) >= h.cap {
		// Thin the reservoir: keep every other sample, double the stride.
		kept := h.samples[:0]
		for i := 0; i < len(h.samples); i += 2 {
			kept = append(kept, h.samples[i])
		}
		h.samples = kept
		h.stride *= 2
	}
	h.samples = append(h.samples, d)
	h.sorted = false
}

// Mean returns the mean of all observed samples.
func (h *Histogram) Mean() simclock.Duration {
	if h.count == 0 {
		return 0
	}
	return simclock.Duration(int64(h.sum) / int64(h.count))
}

// Max returns the largest observed sample.
func (h *Histogram) Max() simclock.Duration { return h.max }

// Percentile returns the p-th percentile (0 < p <= 100) of the retained
// samples.
func (h *Histogram) Percentile(p float64) simclock.Duration {
	if len(h.samples) == 0 {
		return 0
	}
	if !h.sorted {
		sort.Slice(h.samples, func(i, j int) bool { return h.samples[i] < h.samples[j] })
		h.sorted = true
	}
	if p <= 0 {
		return h.samples[0]
	}
	if p >= 100 {
		return h.samples[len(h.samples)-1]
	}
	idx := int(math.Ceil(p/100*float64(len(h.samples)))) - 1
	if idx < 0 {
		idx = 0
	}
	return h.samples[idx]
}

// String renders a one-line summary.
func (h *Histogram) String() string {
	if h.count == 0 {
		return "no samples"
	}
	return fmt.Sprintf("n=%d mean=%v p50=%v p99=%v max=%v",
		h.count, h.Mean(), h.Percentile(50), h.Percentile(99), h.Max())
}

// Table formats aligned text tables for the benchmark harness output —
// the rows the paper's tables and figures are compared against.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable returns a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{header: header} }

// AddRow appends one row; values are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, hd := range t.header {
		widths[i] = len(hd)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}
