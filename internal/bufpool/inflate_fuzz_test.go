package bufpool

import (
	"bytes"
	"compress/flate"
	"io"
	"math/rand"
	"testing"
)

// fuzzRefCap bounds what the reference decoder may produce: DEFLATE expands
// up to 1032×, and a fuzzer finds that stream quickly.
const fuzzRefCap = 4 << 20

// FuzzInflate is the differential against compress/flate over arbitrary
// bytes: the same accept/reject verdict and, on accept, the same output —
// from the careful loop alone (no room), from both loops (room for the fast
// one) — and under any bound, not one byte beyond it.
//
//	go test -run xxx -fuzz FuzzInflate -fuzztime 30s ./internal/bufpool
func FuzzInflate(f *testing.F) {
	// Every block shape of testPayloads, cut to a size the fuzzer mutates
	// thousands of times a second; testdata/fuzz/FuzzInflate adds the
	// hand-built streams of inflate_handoff_test.go.
	for _, payload := range testPayloads(f) {
		payload = payload[:min(len(payload), 16<<10)]
		for _, level := range []int{flate.HuffmanOnly, flate.NoCompression, flate.BestSpeed, 9} {
			f.Add(deflateWith(f, level, payload), len(payload)/2)
		}
	}
	// The streams TestInflateMutationDifferential flips bits in.
	rng := rand.New(rand.NewSource(7))
	payload := bytes.Repeat([]byte("mutation corpus: pages, chains, hashes. "), 400)
	for _, level := range []int{flate.NoCompression, flate.BestSpeed, 9} {
		comp := deflateWith(f, level, payload)
		for trial := 0; trial < 20; trial++ {
			mut := append([]byte(nil), comp...)
			mut[rng.Intn(len(mut))] ^= 1 << uint(rng.Intn(8))
			f.Add(mut, trial*400)
		}
	}

	f.Fuzz(func(t *testing.T, comp []byte, max int) {
		want, wantErr := io.ReadAll(io.LimitReader(flate.NewReader(bytes.NewReader(comp)), fuzzRefCap+1))
		if len(want) > fuzzRefCap {
			t.Skip("expands past the reference cap")
		}
		for _, spare := range []int{0, len(want) + InflateSlack} {
			got, err := decodeInto(t, comp, spare)
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("spare %d: verdicts differ: stdlib err=%v, ours err=%v", spare, wantErr, err)
			}
			if err == nil && !bytes.Equal(got, want) {
				t.Fatalf("spare %d: both accept, outputs differ (%d vs %d bytes)", spare, len(want), len(got))
			}
		}

		if max < 0 {
			max = -(max + 1)
		}
		max %= len(want) + 2
		i := GetInflater()
		out, err := i.AppendLimited(make([]byte, 0, len(want)+InflateSlack), comp, max)
		i.Release()
		if len(out) > max {
			t.Fatalf("limit %d: %d bytes out", max, len(out))
		}
		if wantErr == nil && (err == nil) != (max >= len(want)) {
			t.Fatalf("limit %d on a valid stream of %d bytes: err=%v", max, len(want), err)
		}
		if err == nil && !bytes.Equal(out, want) {
			t.Fatalf("limit %d: accepted, output differs", max)
		}
	})
}
