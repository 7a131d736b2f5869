package entropy

import (
	"crypto/rand"
	"math"
	mrand "math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bufpool"
)

func TestShannonZeroes(t *testing.T) {
	if got := Shannon(make([]byte, 4096)); got != 0 {
		t.Fatalf("entropy of zeroes = %v, want 0", got)
	}
}

func TestShannonEmpty(t *testing.T) {
	if got := Shannon(nil); got != 0 {
		t.Fatalf("entropy of nil = %v", got)
	}
}

func TestShannonUniform(t *testing.T) {
	data := make([]byte, 256*16)
	for i := range data {
		data[i] = byte(i % 256)
	}
	if got := Shannon(data); math.Abs(got-8.0) > 1e-9 {
		t.Fatalf("entropy of uniform bytes = %v, want 8", got)
	}
}

func TestShannonRandomIsHigh(t *testing.T) {
	data := make([]byte, 4096)
	rand.Read(data)
	got := Shannon(data)
	if got < 7.9 {
		t.Fatalf("entropy of random 4KiB = %v, want > 7.9", got)
	}
	if !IsHigh(got) {
		t.Fatal("random data not classified high entropy")
	}
}

func TestTextLikeDataIsLow(t *testing.T) {
	text := []byte("the quick brown fox jumps over the lazy dog. ")
	data := make([]byte, 0, 4096)
	for len(data) < 4096 {
		data = append(data, text...)
	}
	got := Shannon(data[:4096])
	if got > 5 {
		t.Fatalf("entropy of text = %v, want < 5", got)
	}
	if IsHigh(got) {
		t.Fatal("text classified as high entropy")
	}
}

func TestSampledTracksFull(t *testing.T) {
	data := make([]byte, 4096)
	rand.Read(data)
	full := Shannon(data)
	sampled := Sampled(data, 512)
	if math.Abs(full-sampled) > 0.5 {
		t.Fatalf("sampled %v too far from full %v", sampled, full)
	}
}

func TestSampledSmallInput(t *testing.T) {
	data := []byte{1, 2, 3}
	if Sampled(data, 512) != Shannon(data) {
		t.Fatal("small input should use full entropy")
	}
}

// Property: entropy is always within [0, 8].
func TestEntropyBoundsProperty(t *testing.T) {
	f := func(data []byte) bool {
		e := Shannon(data)
		return e >= 0 && e <= 8+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: entropy is permutation-invariant (depends only on histogram).
func TestEntropyPermutationProperty(t *testing.T) {
	f := func(data []byte) bool {
		if len(data) < 2 {
			return true
		}
		rev := make([]byte, len(data))
		for i, b := range data {
			rev[len(data)-1-i] = b
		}
		return math.Abs(Shannon(data)-Shannon(rev)) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// sampledReference is Sampled as it was first written: copy the strided
// bytes out, then take Shannon of the copy, one logarithm per byte value. It
// is what Entry.Entropy — and with it every chain hash and every detector
// verdict — was computed by, so Sampled must agree with it to the bit.
func sampledReference(data []byte, max int) float64 {
	if max <= 0 || len(data) <= max {
		return Shannon(data)
	}
	stride := len(data) / max
	sample := make([]byte, 0, max)
	for i := 0; i < len(data) && len(sample) < max; i += stride {
		sample = append(sample, data[i])
	}
	return Shannon(sample)
}

func TestSampledMatchesReference(t *testing.T) {
	rng := mrand.New(mrand.NewSource(1))
	text := []byte("the quick brown fox jumps over the lazy dog. ")
	for trial := 0; trial < 20000; trial++ {
		data := make([]byte, rng.Intn(9001))
		switch trial % 3 {
		case 0:
			rng.Read(data)
		case 1:
			for i := 0; i < len(data); i += copy(data[i:], text) {
			}
		default:
			rng.Read(data[:len(data)/3])
		}
		max := 1 + rng.Intn(700)
		if trial%4 == 0 {
			max = 512
		}
		if got, want := Sampled(data, max), sampledReference(data, max); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%d bytes, max %d: Sampled = %v, reference %v", len(data), max, got, want)
		}
	}
}

func TestSampledSteadyStateAllocs(t *testing.T) {
	if bufpool.RaceEnabled {
		t.Skip("race instrumentation allocates; alloc assertions run in the non-race job")
	}
	page := make([]byte, 4096)
	mrand.New(mrand.NewSource(2)).Read(page)
	Sampled(page, 512) // builds the table
	if n := testing.AllocsPerRun(100, func() { Sampled(page, 512) }); n != 0 {
		t.Errorf("Sampled: %v allocs/op, want 0", n)
	}
}

func BenchmarkSampled(b *testing.B) {
	page := make([]byte, 4096)
	// The repo benchmark's page: 35 % random, the rest text.
	mrand.New(mrand.NewSource(3)).Read(page[:1433])
	for i := 1433; i < len(page); i += copy(page[i:], "status: nominal; next maintenance window pending approval. ") {
	}
	b.Run("table", func(b *testing.B) {
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			Sampled(page, 512)
		}
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			sampledReference(page, 512)
		}
	})
}
