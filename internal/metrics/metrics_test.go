package metrics

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/simclock"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(0)
	for i := 1; i <= 100; i++ {
		h.Observe(simclock.Duration(i) * simclock.Microsecond)
	}
	if h.count != 100 {
		t.Fatalf("count = %d", h.count)
	}
	if got := h.Mean(); got != simclock.Duration(50500) {
		t.Fatalf("mean = %v", got)
	}
	if got := h.Max(); got != 100*simclock.Microsecond {
		t.Fatalf("max = %v", got)
	}
	if got := h.Percentile(50); got != 50*simclock.Microsecond {
		t.Fatalf("p50 = %v", got)
	}
	if got := h.Percentile(99); got != 99*simclock.Microsecond {
		t.Fatalf("p99 = %v", got)
	}
	if got := h.Percentile(100); got != 100*simclock.Microsecond {
		t.Fatalf("p100 = %v", got)
	}
	if got := h.Percentile(0); got != simclock.Microsecond {
		t.Fatalf("p0 = %v", got)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram(10)
	if h.Mean() != 0 || h.Max() != 0 || h.Percentile(50) != 0 {
		t.Fatal("empty histogram not zeroed")
	}
	if h.String() != "no samples" {
		t.Fatalf("String = %q", h.String())
	}
}

func TestHistogramThinning(t *testing.T) {
	h := NewHistogram(64)
	for i := 0; i < 10000; i++ {
		h.Observe(simclock.Duration(i))
	}
	if h.count != 10000 {
		t.Fatalf("count = %d", h.count)
	}
	if len(h.samples) > 128 {
		t.Fatalf("reservoir grew to %d", len(h.samples))
	}
	// Percentiles remain approximately correct after thinning.
	p50 := float64(h.Percentile(50))
	if p50 < 3000 || p50 > 7000 {
		t.Fatalf("thinned p50 = %v, want ~5000", p50)
	}
}

func TestHistogramStringFormat(t *testing.T) {
	h := NewHistogram(0)
	h.Observe(simclock.Millisecond)
	s := h.String()
	if !strings.Contains(s, "n=1") || !strings.Contains(s, "mean=1ms") {
		t.Fatalf("String = %q", s)
	}
}

func TestTableAlignment(t *testing.T) {
	tb := NewTable("workload", "days", "winner")
	tb.AddRow("hm_0", 3.14159, "RSSD")
	tb.AddRow("websrv", 200, "RSSD")
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "workload  days") {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.Contains(lines[2], "3.14") {
		t.Fatalf("float not formatted: %q", lines[2])
	}
}

// Property: percentiles are monotonically non-decreasing in p.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []uint16, a, b uint8) bool {
		if len(raw) == 0 {
			return true
		}
		h := NewHistogram(0)
		for _, v := range raw {
			h.Observe(simclock.Duration(v))
		}
		pa, pb := float64(a%101), float64(b%101)
		if pa > pb {
			pa, pb = pb, pa
		}
		return h.Percentile(pa) <= h.Percentile(pb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: min <= mean <= max always (p0 is the minimum while nothing
// is thinned).
func TestMeanBoundsProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		h := NewHistogram(0)
		for _, v := range raw {
			h.Observe(simclock.Duration(v))
		}
		return h.Percentile(0) <= h.Mean() && h.Mean() <= h.Max()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

type renderLat struct {
	Mean simclock.Duration
	Hits int `json:"hits"`
}

type renderRow struct {
	Name  string `json:"name"`
	Plain renderLat
	Ratio float64
	Next  *renderLat
	Skip  int `json:"-"`
}

type renderRun struct {
	Seed    int64 `json:"seed"`
	Rows    []renderRow
	Summary renderLat
	Cost    float64
	Cluster *renderRun
	Notes   []string `json:"notes,omitempty"`
}

// TestRenderDerivesFromRows covers what Render derives from a run's types:
// JSON-key names, a nested struct flattened into dotted columns and lines, a
// titled sub-table, a String() value, floats to four significant digits,
// nil pointers as "-", and an empty omitempty field left out.
func TestRenderDerivesFromRows(t *testing.T) {
	run := renderRun{
		Seed: 3,
		Rows: []renderRow{
			{Name: "a", Plain: renderLat{Mean: 1500 * simclock.Microsecond, Hits: 2}, Ratio: 12345.6, Skip: 9},
			{Name: "bb", Ratio: 0.5, Next: &renderLat{Mean: 2 * simclock.Day, Hits: 7}},
		},
		Summary: renderLat{Mean: simclock.Millisecond, Hits: 4},
		Cost:    0.00012344,
	}
	got := Render(run)
	want := "seed: 3\n" +
		"Rows:\n" +
		"name  Plain.Mean  Plain.hits  Ratio   Next.Mean  Next.hits\n" +
		"----  ----------  ----------  ------  ---------  ---------\n" +
		"a     1.5ms       2           12346   -          -\n" +
		"bb    0s          0           0.5000  2d0s       7\n" +
		"Summary.Mean: 1ms\n" +
		"Summary.hits: 4\n" +
		"Cost: 0.0001234\n" +
		"Cluster: -\n"
	if got != want {
		t.Fatalf("Render:\n%s\nwant:\n%s", got, want)
	}
	if got := Render(run.Rows[1:]); !strings.HasPrefix(got, "name  Plain.Mean") || strings.Contains(got, "Rows") {
		t.Fatalf("a slice renders as one untitled table:\n%s", got)
	}
	if got := Render((*renderRun)(nil)); got != "-\n" {
		t.Fatalf("nil run: %q", got)
	}
}
