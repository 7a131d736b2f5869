package workload

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/entropy"
	"repro/internal/simclock"
)

func TestAllTwelveProfilesPresent(t *testing.T) {
	want := []string{"hm", "src", "ts", "wdev", "rsrch", "stg", "usr", "fiu-res", "email", "online", "web", "webusers"}
	if len(Profiles) != len(want) {
		t.Fatalf("profiles = %v", Profiles)
	}
	for i := range want {
		if Profiles[i].Name != want[i] {
			t.Fatalf("profile %d = %s, want %s", i, Profiles[i].Name, want[i])
		}
	}
	if _, ok := ProfileByName("email"); !ok {
		t.Fatal("lookup failed")
	}
	if _, ok := ProfileByName("nope"); ok {
		t.Fatal("bogus lookup succeeded")
	}
}

func TestGeneratorMatchesProfileMix(t *testing.T) {
	prof, _ := ProfileByName("hm")
	g := NewGenerator(prof, 4096, 1<<20, 1)
	const ops = 20000
	counts := map[OpType]int{}
	for i := 0; i < ops; i++ {
		counts[g.Next().Op]++
	}
	gotWrite := float64(counts[OpWrite]) / ops
	if math.Abs(gotWrite-prof.WriteFrac) > 0.02 {
		t.Fatalf("write frac = %v, want ~%v", gotWrite, prof.WriteFrac)
	}
	gotTrim := float64(counts[OpTrim]) / ops
	if math.Abs(gotTrim-prof.TrimFrac) > 0.01 {
		t.Fatalf("trim frac = %v, want ~%v", gotTrim, prof.TrimFrac)
	}
}

func TestGeneratorTimestampsMatchDailyVolume(t *testing.T) {
	prof, _ := ProfileByName("src") // 12 GiB/day
	g := NewGenerator(prof, 4096, 1<<20, 2)
	first := g.Next()
	last, pagesWritten := first, 0
	if first.Op == OpWrite {
		pagesWritten += first.Pages
	}
	for i := 1; i < 50000; i++ {
		last = g.Next()
		if last.Op == OpWrite {
			pagesWritten += last.Pages
		}
	}
	days := last.At.Sub(first.At).Days()
	if days <= 0 {
		t.Fatal("no time span")
	}
	gibPerDay := float64(pagesWritten) * 4096 / float64(1<<30) / days
	if gibPerDay < prof.DailyWriteGiB*0.6 || gibPerDay > prof.DailyWriteGiB*1.6 {
		t.Fatalf("daily volume = %.1f GiB/day, want ~%.1f", gibPerDay, prof.DailyWriteGiB)
	}
}

func TestGeneratorSkew(t *testing.T) {
	prof, _ := ProfileByName("rsrch") // heavily skewed
	g := NewGenerator(prof, 4096, 1<<20, 3)
	counts := map[uint64]int{}
	for i := 0; i < 20000; i++ {
		counts[g.Next().LPN]++
	}
	// The hottest page should be far hotter than the mean.
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	mean := 20000 / len(counts)
	if max < 10*mean {
		t.Fatalf("skew too flat: max=%d mean=%d", max, mean)
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	prof, _ := ProfileByName("web")
	a := NewGenerator(prof, 4096, 1<<20, 42)
	b := NewGenerator(prof, 4096, 1<<20, 42)
	for i := 0; i < 1000; i++ {
		if ra, rb := a.Next(), b.Next(); ra != rb {
			t.Fatalf("records diverge at %d", i)
		}
	}
}

func TestGeneratorContentCompressibility(t *testing.T) {
	low, _ := ProfileByName("rsrch") // RandomFrac 0.20
	high, _ := ProfileByName("web")  // RandomFrac 0.50
	gl := NewGenerator(low, 4096, 1<<20, 4)
	gh := NewGenerator(high, 4096, 1<<20, 4)
	el := entropy.Shannon(gl.Content())
	eh := entropy.Shannon(gh.Content())
	if el >= eh {
		t.Fatalf("entropy ordering: %v >= %v", el, eh)
	}
	if eh > 7.2 {
		t.Fatalf("web content classified as ciphertext: %v", eh)
	}
}

func TestGeneratorRespectsWorkingSet(t *testing.T) {
	prof, _ := ProfileByName("wdev") // 1 GiB working set
	wsPages := uint64(1 << 30 / 4096)
	g := NewGenerator(prof, 4096, 1<<30, 5)
	for i := 0; i < 10000; i++ {
		r := g.Next()
		if r.LPN+uint64(r.Pages) > wsPages {
			t.Fatalf("record outside working set: %+v", r)
		}
	}
}

// Property: generated records are always within bounds and time-ordered.
func TestGeneratorInvariantProperty(t *testing.T) {
	f := func(seed int64, profIdx uint8) bool {
		prof := Profiles[int(profIdx)%len(Profiles)]
		g := NewGenerator(prof, 4096, 1<<20, seed)
		prev := simclock.Time(-1)
		for i := 0; i < 200; i++ {
			r := g.Next()
			if r.Pages <= 0 || r.LPN+uint64(r.Pages) > 1<<20 {
				return false
			}
			if r.At <= prev {
				return false
			}
			prev = r.At
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
