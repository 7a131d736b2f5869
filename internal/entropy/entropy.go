// Package entropy estimates the Shannon entropy of page contents.
//
// RSSD's firmware stamps an entropy estimate into every operation-log
// entry as it logs a host write. Encrypted data is indistinguishable from
// random (entropy close to 8 bits/byte) while typical user data sits far
// lower, so the remote detection pipeline (internal/detect) uses these
// estimates to spot encryption ransomware — including the timing attack,
// whose writes are slow but still high-entropy.
package entropy

import (
	"math"
	"sync"
	"sync/atomic"
)

// Shannon returns the empirical Shannon entropy of data in bits per byte,
// in [0, 8]. An empty slice has zero entropy.
func Shannon(data []byte) float64 {
	if len(data) == 0 {
		return 0
	}
	var counts [256]int
	for _, b := range data {
		counts[b]++
	}
	total := float64(len(data))
	h := 0.0
	for _, c := range counts {
		if c == 0 {
			continue
		}
		p := float64(c) / total
		// The conversion rounds the product before it is subtracted (no
		// fused multiply-subtract), so every platform sums the same terms —
		// the ones Sampled takes from its table.
		h -= float64(p * math.Log2(p))
	}
	return h
}

// Sampled returns the Shannon entropy of up to max bytes of data, sampled
// with a fixed stride across the whole buffer. The device-side logging path
// uses it to bound per-write CPU cost, as firmware would: the strided bytes
// are counted where they lie, and each count's p·log2 p comes from a table
// built once per sample size, so a page costs max loads, 256 subtractions
// and no logarithm. The terms are Shannon's own, in Shannon's order: the
// result is bit for bit Shannon of the sampled bytes.
func Sampled(data []byte, max int) float64 {
	if max <= 0 || len(data) <= max {
		return Shannon(data)
	}
	// len(data) > max, so the stride fits max samples inside data.
	stride := len(data) / max
	var counts [256]int
	for i, end := 0, max*stride; i < end; i += stride {
		counts[data[i]]++
	}
	terms := termsFor(max)
	h := 0.0
	for _, c := range counts {
		h -= terms[c] // terms[0] is zero, where Shannon skips
	}
	return h
}

// termTables holds, per sample size n, p·log2 p for every count 0..n. The
// map is immutable once published: a reader loads it with no lock, a miss
// publishes a copy with one more size. Callers pass a constant or two.
var (
	termTables atomic.Pointer[map[int][]float64]
	termMu     sync.Mutex
)

func termsFor(n int) []float64 {
	if m := termTables.Load(); m != nil {
		if t, ok := (*m)[n]; ok {
			return t
		}
	}
	termMu.Lock()
	defer termMu.Unlock()
	next := map[int][]float64{}
	if m := termTables.Load(); m != nil {
		for k, v := range *m {
			next[k] = v
		}
	}
	t := make([]float64, n+1)
	total := float64(n)
	for c := 1; c <= n; c++ {
		p := float64(c) / total
		t[c] = p * math.Log2(p)
	}
	next[n] = t
	termTables.Store(&next)
	return t
}

// HighEntropy reports whether e (bits/byte) is in the range characteristic
// of encrypted or well-compressed content. 7.2 splits cleanly between
// ciphertext (> 7.9 for 4 KiB pages) and typical user data in our traces.
const HighEntropyThreshold = 7.2

// IsHigh reports whether an entropy estimate indicates ciphertext-like
// content.
func IsHigh(e float64) bool { return e >= HighEntropyThreshold }
