// Package simclock provides the discrete simulated time base used by every
// device-level component in this repository.
//
// The RSSD paper reports device latencies (flash program/read/erase times,
// NVMe-oE round trips) and long-horizon quantities (data retention time in
// days). Neither can be tied to wall-clock time in a reproducible test
// suite, so all device components account time in virtual nanoseconds. A
// Clock is advanced explicitly by the simulation driver; hardware resources
// (flash chips, transport links) track their own next-free timestamps
// against it.
package simclock

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Time is a point in simulated time, in nanoseconds since the start of the
// simulation. The zero Time is the simulation epoch.
type Time int64

// Duration is a span of simulated time in nanoseconds. It deliberately
// mirrors time.Duration so the familiar unit constants below read the same.
type Duration int64

// Common durations, in simulated nanoseconds.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
	Minute               = 60 * Second
	Hour                 = 60 * Minute
	Day                  = 24 * Hour
)

// Add returns the time t+d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Max returns the later of t and u.
func Max(t, u Time) Time {
	if t > u {
		return t
	}
	return u
}

// Seconds returns the duration as a floating-point number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Days returns the duration as a floating-point number of days. Figure 2 of
// the paper reports retention time in days; this is the unit used there.
func (d Duration) Days() float64 { return float64(d) / float64(Day) }

// String formats the duration using time.Duration notation for durations
// under a day and a "XdYh" form above it, which keeps multi-month retention
// times readable.
func (d Duration) String() string {
	if d < Day && d > -Day {
		return time.Duration(d).String()
	}
	days := d / Day
	rem := time.Duration(d % Day)
	return fmt.Sprintf("%dd%s", days, rem.Truncate(time.Minute))
}

// String formats the time as an offset from the simulation epoch.
func (t Time) String() string { return "T+" + Duration(t).String() }

// Clock is a monotonic simulated clock. It is safe for concurrent use: the
// offload path (NVMe-oE client) reads the clock from a different goroutine
// than the I/O path that advances it.
type Clock struct {
	now atomic.Int64
}

// NewClock returns a clock positioned at the simulation epoch.
func NewClock() *Clock { return &Clock{} }

// Now returns the current simulated time.
func (c *Clock) Now() Time { return Time(c.now.Load()) }

// Advance moves the clock forward by d and returns the new time. Negative
// durations are ignored: simulated time is monotonic by construction.
func (c *Clock) Advance(d Duration) Time {
	if d <= 0 {
		return c.Now()
	}
	return Time(c.now.Add(int64(d)))
}

// AdvanceTo moves the clock forward to t if t is in the future; it never
// moves the clock backwards. It returns the resulting current time.
func (c *Clock) AdvanceTo(t Time) Time {
	for {
		cur := c.now.Load()
		if int64(t) <= cur {
			return Time(cur)
		}
		if c.now.CompareAndSwap(cur, int64(t)) {
			return t
		}
	}
}
