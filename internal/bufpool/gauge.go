package bufpool

// The outstanding-buffer gauge: every Get increments its size class, every
// Release decrements the class the rental was issued at. In a quiesced
// process (no codec or ingest work in flight) the gauge equals whatever
// buffers the program is still holding — so a soak or experiment that
// snapshots it at startup and re-checks after draining its pipelines gets a
// leak detector: a non-zero delta is a Get whose Release never ran.

// Gauge is a point-in-time snapshot of outstanding (rented, unreleased)
// buffers per size class.
type Gauge struct {
	// PerClass[i] counts outstanding rentals of class i (capacity
	// 1<<(minClassShift+i)); Oversize counts above-max rentals that never
	// pool but still balance through Release.
	PerClass [numClasses]int64
	Oversize int64
}

// Outstanding snapshots the Get/Release balance per size class. The
// snapshot is not atomic across classes; callers wanting an exact reading
// must quiesce first (drain pipelines, close sessions).
func Outstanding() Gauge {
	var g Gauge
	for i := range g.PerClass {
		g.PerClass[i] = outstanding[i].Load()
	}
	g.Oversize = oversizeOut.Load()
	return g
}

// Total sums the gauge across classes.
func (g Gauge) Total() int64 {
	t := g.Oversize
	for _, v := range g.PerClass {
		t += v
	}
	return t
}

// Sub returns the per-class delta g - base.
func (g Gauge) Sub(base Gauge) Gauge {
	d := Gauge{Oversize: g.Oversize - base.Oversize}
	for i := range d.PerClass {
		d.PerClass[i] = g.PerClass[i] - base.PerClass[i]
	}
	return d
}
