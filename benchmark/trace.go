package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. Spans of one request share
// (round, dev); parent links a span to the host-goroutine span that made
// the call (0: none, or another goroutine). n is the work the call carried:
// pages, bytes or entries, by name.
type span struct {
	name       string
	round, dev int
	id, parent int64
	n          int64
	start, end int64 // ns since the run's origin
}

// tracer keeps the traced run's spans in memory; they are written out when
// the run ends. A nil tracer records nothing. Only the seams add spans, and
// only inside timed phases (seams.live).
type tracer struct {
	origin time.Time
	round  atomic.Int64
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now(), spans: make([]span, 0, 1<<18)} }

// add records a span under a fresh id.
func (t *tracer) add(name string, dev int, n, parent int64, t0, t1 time.Time) {
	if t == nil {
		return
	}
	t.addID(t.nextID.Add(1), name, dev, n, parent, t0, t1)
}

// addID records a span whose id was reserved when it opened, so that spans
// closed before it could already name it as their parent.
func (t *tracer) addID(id int64, name string, dev int, n, parent int64, t0, t1 time.Time) {
	t.mu.Lock()
	t.spans = append(t.spans, span{
		name: name, round: int(t.round.Load()), dev: dev, id: id, parent: parent, n: n,
		start: int64(t0.Sub(t.origin)), end: int64(t1.Sub(t.origin)),
	})
	t.mu.Unlock()
}

// write stores the spans as CSV under dir.
func (t *tracer) write(dir, workload string, seed uint64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-%d.csv", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,parent,name,round,device,n,start_ns,end_ns")
	for _, s := range t.spans {
		fmt.Fprintf(w, "%d,%d,%s,%d,%d,%d,%d,%d\n", s.id, s.parent, s.name, s.round, s.dev, s.n, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// hostTrack follows one device's host goroutine through the nested layers
// of phase A (the NVMe front or a drain, then the device seam) and splits
// each span into self time and time in its children. A nil hostTrack is the
// untraced run: begin and end cost one comparison.
type hostTrack struct {
	tr    *tracer
	dev   int
	stack []openSpan
	self  map[string]*layerTime
}

type openSpan struct {
	name  string
	id    int64
	start time.Time
	child int64 // ns spent in spans opened under this one
}

// layerTime sums one span name over a round.
type layerTime struct {
	calls       int64
	incl, selfT int64 // ns
}

func (h *hostTrack) begin(name string) {
	if h == nil {
		return
	}
	var id int64
	if h.tr != nil {
		id = h.tr.nextID.Add(1)
	}
	h.stack = append(h.stack, openSpan{name: name, id: id, start: time.Now()})
}

// end closes the innermost span, carrying n units of work, and returns its
// inclusive duration in ns.
func (h *hostTrack) end(n int64) int64 {
	if h == nil {
		return 0
	}
	now := time.Now()
	top := h.stack[len(h.stack)-1]
	h.stack = h.stack[:len(h.stack)-1]
	dur := int64(now.Sub(top.start))
	var parent int64
	if len(h.stack) > 0 {
		h.stack[len(h.stack)-1].child += dur
		parent = h.stack[len(h.stack)-1].id
	}
	if h.tr == nil {
		return dur
	}
	lt := h.self[top.name]
	if lt == nil {
		if h.self == nil {
			h.self = map[string]*layerTime{}
		}
		lt = &layerTime{}
		h.self[top.name] = lt
	}
	lt.calls++
	lt.incl += dur
	lt.selfT += dur - top.child
	h.tr.addID(top.id, top.name, h.dev, n, parent, top.start, now)
	return dur
}

func (h *hostTrack) layer(name string) layerTime {
	if h == nil || h.self[name] == nil {
		return layerTime{}
	}
	return *h.self[name]
}
