package oplog

import (
	"errors"
	"runtime"
	"testing"

	"repro/internal/simclock"
)

// serialVerify is VerifyChain as one loop, the reference the sharded chain
// check must equal.
func serialVerify(entries []Entry, prev [HashSize]byte) error {
	for i := range entries {
		e := &entries[i]
		if e.PrevHash != prev {
			return &ChainError{Index: i, Seq: e.Seq, Reason: "previous-hash mismatch"}
		}
		if !e.Verify() {
			return &ChainError{Index: i, Seq: e.Seq, Reason: "entry hash mismatch"}
		}
		if i > 0 && e.Seq != entries[i-1].Seq+1 {
			return &ChainError{Index: i, Seq: e.Seq, Reason: "sequence gap"}
		}
		prev = e.Hash
	}
	return nil
}

// verifyChain is a chain of n entries of every kind from genesis.
func verifyChain(n int) []Entry {
	l := New()
	for i := range n {
		l.Append(Kind(1+i%int(KindRead)), simclock.Time(i*10), uint64(i*7%512), uint64(i), uint64(i+1),
			float32(i%80)/10, HashData([]byte{byte(i), byte(i >> 8)}))
	}
	return l.All()
}

// corrupt breaks entries[i] one of the ways it can be broken: a flipped bit
// of the hash it chains onto, as it lies or with the entry resealed onto it
// (so that only the link to the entry before catches it); a flipped bit of its
// body; or a sequence number one ahead with the entry resealed, so that only
// the sequence check (or, at index 0, the next entry's link) catches it.
func corrupt(entries []Entry, i, how int) {
	e := &entries[i]
	switch how {
	case 0, 1:
		e.PrevHash[3] ^= 0x10
		if how == 1 {
			e.Seal(e.PrevHash)
		}
	case 2:
		e.LPN ^= 1
	case 3:
		e.Seq++
		e.Seal(e.PrevHash)
	}
}

const corruptions = 4

// TestVerifyChainShardsMatchSerial: the sharded VerifyChain reports what the
// one loop reports — nil, or the same index, sequence and reason — for chains
// around the shard threshold and across several shards, broken at every shard
// boundary of every tested P and one entry either side of it, and broken a
// second time behind the first, at GOMAXPROCS 1, 2, 3 and 8.
func TestVerifyChainShardsMatchSerial(t *testing.T) {
	procs := []int{1, 2, 3, 8}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, n := range []int{0, 1, 1023, 1024, 1025, 4096, 10_000} {
		chain := verifyChain(n)
		at := map[int]bool{0: true, n - 1: true}
		for _, p := range procs {
			shards := min(p, n/verifyShardEntries)
			for k := 1; k < shards; k++ {
				b := k * n / shards
				at[b-1], at[b], at[b+1] = true, true, true
			}
		}
		check := func(what string, entries []Entry) {
			t.Helper()
			want := serialVerify(entries, [HashSize]byte{})
			for _, p := range procs {
				runtime.GOMAXPROCS(p)
				got := VerifyChain(entries, [HashSize]byte{})
				var g, w *ChainError
				if (got == nil) != (want == nil) || got != nil && !(errors.As(got, &g) && errors.As(want, &w) && *g == *w) {
					t.Fatalf("n=%d, %s, GOMAXPROCS %d: %v, serial %v", n, what, p, got, want)
				}
			}
		}
		check("intact", chain)
		for i := range at {
			if i < 0 || i >= n {
				continue
			}
			for how := range corruptions {
				broken := append([]Entry(nil), chain...)
				corrupt(broken, i, how)
				check("one break", broken)
				// A second break behind the first, in a later shard where
				// there is one: what the first hides must stay hidden.
				if j := i + 1 + (i*7919+n/3)%max(n-i-1, 1); j < n {
					corrupt(broken, j, (how+1)%corruptions)
					check("two breaks", broken)
				}
			}
		}
	}
}

// BenchmarkVerifyChain is the whole-timeline check the forensic sweep makes
// once per device: a 10 000-entry chain from genesis, sharded across -cpu.
//
//	go test -run xxx -bench VerifyChain -cpu 1,2 ./internal/oplog
func BenchmarkVerifyChain(b *testing.B) {
	const n = 10_000
	chain := verifyChain(n)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if err := VerifyChain(chain, [HashSize]byte{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/entry")
}
