package simclock

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestClockStartsAtEpoch(t *testing.T) {
	c := NewClock()
	if got := c.Now(); got != 0 {
		t.Fatalf("new clock at %v, want epoch", got)
	}
}

func TestAdvance(t *testing.T) {
	c := NewClock()
	if got := c.Advance(5 * Microsecond); got != Time(5000) {
		t.Fatalf("Advance = %v, want 5000ns", got)
	}
	if got := c.Advance(Millisecond); got != Time(1005000) {
		t.Fatalf("Advance = %v, want 1005000ns", got)
	}
}

func TestAdvanceIgnoresNegative(t *testing.T) {
	c := NewClock()
	c.Advance(Second)
	if got := c.Advance(-Minute); got != Time(Second) {
		t.Fatalf("negative Advance moved clock to %v", got)
	}
	if got := c.Advance(0); got != Time(Second) {
		t.Fatalf("zero Advance moved clock to %v", got)
	}
}

func TestAdvanceToIsMonotonic(t *testing.T) {
	c := NewClock()
	c.AdvanceTo(Time(100))
	if got := c.AdvanceTo(Time(50)); got != Time(100) {
		t.Fatalf("AdvanceTo went backwards: %v", got)
	}
	if got := c.AdvanceTo(Time(200)); got != Time(200) {
		t.Fatalf("AdvanceTo = %v, want 200", got)
	}
}

func TestAdvanceToConcurrent(t *testing.T) {
	c := NewClock()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.AdvanceTo(Time(i*1000 + j))
			}
		}(i)
	}
	wg.Wait()
	if got := c.Now(); got != Time(15999) {
		t.Fatalf("concurrent AdvanceTo ended at %v, want 15999", got)
	}
}

func TestTimeArithmetic(t *testing.T) {
	t0 := Time(0).Add(3 * Day)
	if got := t0.Sub(Time(Day)); got != 2*Day {
		t.Fatalf("Sub = %v, want 2 days", got)
	}
	if got := Max(t0, Time(5)); got != t0 {
		t.Fatalf("Max = %v", got)
	}
}

func TestDurationDays(t *testing.T) {
	if got := (36 * Hour).Days(); got != 1.5 {
		t.Fatalf("Days = %v, want 1.5", got)
	}
	if got := (210 * Day).Days(); got != 210 {
		t.Fatalf("Days = %v, want 210", got)
	}
}

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{50 * Microsecond, "50µs"},
		{3 * Millisecond, "3ms"},
		{90 * Minute, "1h30m0s"},
		{2*Day + 3*Hour, "2d3h0m0s"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.d), got, c.want)
		}
	}
}

// Property: Advance by any sequence of non-negative durations equals the sum.
func TestAdvanceSumProperty(t *testing.T) {
	f := func(steps []uint16) bool {
		c := NewClock()
		var sum int64
		for _, s := range steps {
			c.Advance(Duration(s))
			sum += int64(s)
		}
		return c.Now() == Time(sum)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Max ordering laws.
func TestMaxMinProperty(t *testing.T) {
	f := func(a, b int64) bool {
		x, y := Time(a), Time(b)
		return Max(x, y) == Max(y, x) &&
			Max(x, y) >= x && Max(x, y) >= y
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
