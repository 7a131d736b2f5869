package bufpool

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"math/rand"
	"testing"
)

// The in-house deflate is checked against compress/flate from both sides:
// stdlib's inflater must read every stream back, as must the in-house one
// under the exact bound the codec header gives it, and the stream may not be
// larger than stdlib's BestSpeed makes it.

func stdlibInflate(t testing.TB, comp []byte) []byte {
	t.Helper()
	out, err := io.ReadAll(flate.NewReader(bytes.NewReader(comp)))
	if err != nil {
		t.Fatalf("compress/flate rejects the stream: %v", err)
	}
	return out
}

// checkStream inflates comp both ways and compares with raw.
func checkStream(t testing.TB, comp, raw []byte) {
	t.Helper()
	if got := stdlibInflate(t, comp); !bytes.Equal(got, raw) {
		t.Fatalf("compress/flate inflates %d bytes, not the %d that went in", len(got), len(raw))
	}
	i := GetInflater()
	defer i.Release()
	got, err := i.AppendLimited(make([]byte, 0, len(raw)+InflateSlack), comp, len(raw))
	if err != nil || !bytes.Equal(got, raw) {
		t.Fatalf("in-house inflate: err=%v, %d bytes for %d", err, len(got), len(raw))
	}
}

func deflateAll(t testing.TB, raw []byte) []byte {
	t.Helper()
	d := GetDeflater()
	defer d.Release()
	comp, err := d.Append(nil, raw)
	if err != nil {
		t.Fatal(err)
	}
	checkStream(t, comp, raw)
	return comp
}

// TestDeflateMatchesStdlibSize: every block shape and every datapath payload
// round-trips, at no more than stdlib's size plus half a per cent.
func TestDeflateMatchesStdlibSize(t *testing.T) {
	all := testPayloads(t)
	for _, c := range deflateCases() {
		all[c.name] = c.raw
	}
	for name, raw := range all {
		comp := deflateAll(t, raw)
		if std := len(deflateWith(t, flate.BestSpeed, raw)); len(comp) > std+std/200 {
			t.Errorf("%s: %d bytes, stdlib BestSpeed %d", name, len(comp), std)
		}
	}
}

// deBruijn returns a sequence over k symbols in which every 4-gram occurs
// exactly once: compressible (few symbols) with not a single match in it.
func deBruijn(k int) []byte {
	const n = 4
	var seq []byte
	a := make([]int, k*n)
	var db func(t, p int)
	db = func(t, p int) {
		if t > n {
			if n%p == 0 {
				for _, s := range a[1 : p+1] {
					seq = append(seq, byte('a'+s))
				}
			}
			return
		}
		a[t] = a[t-p]
		db(t+1, p)
		for j := a[t-p] + 1; j < k; j++ {
			a[t] = j
			db(t+1, t)
		}
	}
	db(1, 1)
	return seq
}

func countNonzero(lens []uint8) (n int) {
	for _, l := range lens {
		if l != 0 {
			n++
		}
	}
	return n
}

// TestDeflateDistanceAlphabetEdges: a block without a match has no distance
// code at all (HDIST 1, one zero length), a block whose matches share one
// distance symbol has the lone one-bit code; both inflaters take both.
func TestDeflateDistanceAlphabetEdges(t *testing.T) {
	noMatch := deBruijn(4) // 256 bytes, 2 bits each
	d := GetDeflater()
	defer d.Release()
	comp, _ := d.Append(nil, noMatch)
	if comp[0]>>1&3 != 2 {
		t.Fatalf("no-match input: block type %d, want dynamic", comp[0]>>1&3)
	}
	if d.ntok != 0 || countNonzero(d.distLens[:]) != 0 {
		t.Fatalf("no-match input: %d matches, %d distance codes", d.ntok, countNonzero(d.distLens[:]))
	}
	checkStream(t, comp, noMatch)

	oneDist := append(bytes.Clone(noMatch), noMatch[:100]...)
	comp, _ = d.Append(nil, oneDist)
	if comp[0]>>1&3 != 2 {
		t.Fatalf("one-distance input: block type %d, want dynamic", comp[0]>>1&3)
	}
	if d.ntok == 0 || countNonzero(d.distLens[:]) != 1 {
		t.Fatalf("one-distance input: %d matches, %d distance codes", d.ntok, countNonzero(d.distLens[:]))
	}
	checkStream(t, comp, oneDist)
}

// kraftSum returns the sum of 2^(limit-length) over the used symbols: 2^limit
// for a complete code.
func kraftSum(lens []uint8, limit int) (sum int) {
	for _, l := range lens {
		if l != 0 {
			sum += 1 << (limit - int(l))
		}
	}
	return sum
}

// optimalCost is the cost in bits of an unrestricted Huffman code.
func optimalCost(freq []uint32) (cost uint64) {
	var w []uint64
	for _, f := range freq {
		if f != 0 {
			w = append(w, uint64(f))
		}
	}
	for len(w) > 1 {
		// The two lightest, the slow way.
		for k := 0; k < 2; k++ {
			m := k
			for j := k + 1; j < len(w); j++ {
				if w[j] < w[m] {
					m = j
				}
			}
			w[k], w[m] = w[m], w[k]
		}
		w[1] += w[0]
		cost += w[1]
		w = w[1:]
	}
	return cost
}

// TestBuildCodeProperties: over random frequency profiles, flat to steeply
// skewed, every code is complete, within its limit, gives no rarer symbol a
// shorter code, costs what Huffman's costs whenever the limit did not bind,
// and costs what buildCode returns, which writeBlock sizes the block by.
func TestBuildCodeProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	d := GetDeflater()
	defer d.Release()
	for trial := 0; trial < 1000; trial++ {
		n, limit := numLitSyms, maxCodeBits
		if trial%2 == 1 {
			n, limit = numCodeLens, clenLimit
		}
		freq := make([]uint32, n)
		used := 2 + rng.Intn(n-1)
		skew := rng.Intn(5)
		for _, sym := range rng.Perm(n)[:used] {
			f := 1 + rng.Intn(1000)
			for k := rng.Intn(skew + 1); k > 0; k-- {
				f = 1 + f*rng.Intn(40)%60000
			}
			freq[sym] = uint32(f)
		}
		lens, codes := make([]uint8, n), make([]uint32, n)
		spent := d.buildCode(freq, lens, limit)
		canonicalCodes(codes, lens)

		if got := kraftSum(lens, limit); got != 1<<limit {
			t.Fatalf("trial %d: Kraft sum %d of %d", trial, got, 1<<limit)
		}
		cost, deepest := uint64(0), 0
		for sym, l := range lens {
			if (l != 0) != (freq[sym] != 0) || int(l) > limit {
				t.Fatalf("trial %d: symbol %d, frequency %d, length %d", trial, sym, freq[sym], l)
			}
			if l != 0 && codes[sym]>>16 != uint32(l) {
				t.Fatalf("trial %d: symbol %d: code says %d bits, lens %d", trial, sym, codes[sym]>>16, l)
			}
			cost += uint64(freq[sym]) * uint64(l)
			deepest = max(deepest, int(l))
			for other, lo := range lens {
				if freq[other] > freq[sym] && lo > l && l != 0 {
					t.Fatalf("trial %d: frequency %d gets %d bits, frequency %d gets %d", trial, freq[sym], l, freq[other], lo)
				}
			}
		}
		if uint64(spent) != cost {
			t.Fatalf("trial %d: buildCode says the code spends %d bits, Σ freq·len is %d", trial, spent, cost)
		}
		if best := optimalCost(freq); cost < best || (deepest < limit && cost != best) {
			t.Fatalf("trial %d: cost %d, Huffman %d, deepest code %d of %d", trial, cost, best, deepest, limit)
		}
	}
}

// TestDeflateLengthLimit: Fibonacci frequencies make Huffman's tree a path,
// 21 deep for 22 symbols (21 literals and end-of-block); the code handed to the writer stops at 15 (and, for
// the header's own alphabet, at 7), stays complete, costs what buildCode
// returns, and decodes.
func TestDeflateLengthLimit(t *testing.T) {
	d := GetDeflater()
	defer d.Release()
	freq := make([]uint32, numLitSyms)
	var raw []byte
	// End-of-block, once per block, is the sequence's first 1.
	for sym, a, b := 0, 1, 2; sym < 21; sym, a, b = sym+1, b, a+b {
		freq['A'+sym] = uint32(a)
		raw = append(raw, bytes.Repeat([]byte{byte('A' + sym)}, a)...)
	}
	for _, limit := range []int{maxCodeBits, clenLimit} {
		lens := make([]uint8, numLitSyms)
		spent := d.buildCode(freq, lens, limit)
		if got := kraftSum(lens, limit); got != 1<<limit {
			t.Fatalf("limit %d: Kraft sum %d of %d", limit, got, 1<<limit)
		}
		cost := 0
		for sym, l := range lens {
			cost += int(freq[sym]) * int(l)
		}
		if spent != cost {
			t.Fatalf("limit %d: buildCode says the code spends %d bits, Σ freq·len is %d", limit, spent, cost)
		}
		if lens['A'] != uint8(limit) || lens['A'+20] > 2 {
			t.Fatalf("limit %d: rarest symbol %d bits, commonest %d", limit, lens['A'], lens['A'+20])
		}
	}

	// The same profile as a stream. The match search would swallow the common
	// symbols' runs, so the block is handed to the writer as literals only.
	rand.New(rand.NewSource(12)).Shuffle(len(raw), func(i, j int) { raw[i], raw[j] = raw[j], raw[i] })
	d.litFreq = [numLitSyms]uint32{endOfBlock: 1}
	for _, b := range raw {
		d.litFreq[b]++
	}
	d.distFreq, d.ntok = [numDistSyms]uint32{}, 0
	var w bitWriter
	d.writeBlock(&w, raw, 0, len(raw), 1)
	comp := w.finish()
	if comp[0]>>1&3 != 2 || d.lens['A'] != maxCodeBits {
		t.Fatalf("block type %d, rarest literal %d bits: want a dynamic block with a 15-bit code", comp[0]>>1&3, d.lens['A'])
	}
	checkStream(t, comp, raw)
}

// A blockForm is one block of a stream: its type (0 stored, 1 fixed, 2
// dynamic Huffman), the bytes it decodes to, and the bits it takes.
type blockForm struct {
	typ, n, bits int
}

// blockForms walks comp block by block with the in-house decoder's own
// block readers and returns each block's form.
func blockForms(t *testing.T, comp []byte, rawLen int) (forms []blockForm) {
	t.Helper()
	i := GetInflater()
	defer i.Release()
	i.br = bitReader{in: comp}
	r := &i.br
	consumed := func() int { return r.pos*8 - int(r.n) }
	dst := make([]byte, 0, rawLen+InflateSlack)
	for {
		at, before := consumed(), len(dst)
		final, typ := r.take(1), r.take(2)
		var err error
		switch typ {
		case 0:
			dst, err = i.stored(dst, rawLen)
		case 1:
			dst, err = i.block(dst, 0, rawLen, fixedLit, fixedDist)
		case 2:
			if err = i.readDynamicHeader(); err == nil {
				dst, err = i.block(dst, 0, rawLen, huffTable{i.lit[:], i.litBits}, huffTable{i.dist[:], i.distBits})
			}
		default:
			err = ErrCorrupt
		}
		if err != nil || r.err != nil {
			t.Fatalf("block %d: err=%v, %v", len(forms), err, r.err)
		}
		forms = append(forms, blockForm{int(typ), len(dst) - before, consumed() - at})
		if final == 1 {
			if len(dst) != rawLen || (consumed()+7)/8 != len(comp) {
				t.Fatalf("%d bytes decoded of %d; %d bits of %d bytes read", len(dst), rawLen, consumed(), len(comp))
			}
			return forms
		}
	}
}

// TestDeflateBlockBoundaries: blocks end where a stored block's 16-bit LEN
// needs them to, and matches still reach across them. Noise fills whole
// stored blocks; a one-byte tail is a fixed-Huffman block, 3 header bits, its
// literal and end-of-block (18 or 19 bits), where storing it would take 48.
func TestDeflateBlockBoundaries(t *testing.T) {
	noise := make([]byte, 2*maxBlockBytes+1)
	rand.New(rand.NewSource(13)).Read(noise)
	text := bytes.Repeat([]byte("block boundary: pages, chains, hashes. "), 2*maxBlockBytes/39+1)
	for _, tc := range []struct {
		n    int
		want []int
	}{
		{maxBlockBytes, []int{65535}},
		{maxBlockBytes + 1, []int{65535, 1}},
		{2*maxBlockBytes + 1, []int{65535, 65535, 1}},
	} {
		comp := deflateAll(t, noise[:tc.n])
		forms := blockForms(t, comp, tc.n)
		if len(forms) != len(tc.want) {
			t.Fatalf("%d bytes of noise: blocks %v, want %d", tc.n, forms, len(tc.want))
		}
		for j, f := range forms {
			if f.n != tc.want[j] {
				t.Fatalf("%d bytes of noise: blocks %v, want sizes %v", tc.n, forms, tc.want)
			}
			tail := f.n == 1
			if wantBits := 3 + int(fixedLitLens[noise[tc.n-1]]) + 7; tail && (f.typ != 1 || f.bits != wantBits) {
				t.Fatalf("%d bytes of noise: tail block %+v, want fixed in %d bits", tc.n, f, wantBits)
			}
			if !tail && f.typ != 0 {
				t.Fatalf("%d bytes of noise: block %d is %+v, want stored", tc.n, j, f)
			}
		}
		if comp := deflateAll(t, text[:tc.n]); len(comp) > tc.n/50 {
			t.Fatalf("%d bytes of text: %d deflated", tc.n, len(comp))
		}
	}
}

// TestDeflateStoresIncompressibleRuns: a match-less run of noise of at least
// minRunBytes between texts is a stored block of its own, which starts where
// the noise does and ends at most a few probe strides of text past it; a
// shorter run, and a run from a 64-symbol alphabet, which a code shrinks by
// a quarter, stay in Huffman blocks. Every stream decodes through
// compress/flate and through both in-house loops.
func TestDeflateStoresIncompressibleRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	text := bytes.Repeat([]byte("retained versions, in time order. "), 60)
	type run struct{ at, n int }
	for _, tc := range []struct {
		name    string
		runs    []int
		symbols int
		stored  bool
	}{
		{"1024+1434+4096", []int{1024, 1434, 4096}, 256, true},
		{"1023", []int{1023}, 256, false},
		{"2KiB-of-64", []int{2048}, 64, false},
	} {
		raw := bytes.Clone(text)
		var want []run
		for _, n := range tc.runs {
			want = append(want, run{len(raw), n})
			for j := 0; j < n; j++ {
				b := byte(rng.Intn(tc.symbols))
				if j == 0 || j == n-1 {
					b |= 0x80 // text is ASCII: neither end of the run passes for it
				}
				raw = append(raw, b)
			}
			raw = append(raw, text...)
		}
		comp := deflateAll(t, raw)
		i := GetInflater()
		careful, err := i.AppendLimited(make([]byte, 0, len(raw)), comp, len(raw))
		i.Release()
		if err != nil || !bytes.Equal(careful, raw) {
			t.Fatalf("%s: careful loop alone: err=%v", tc.name, err)
		}
		var got []run
		at := 0
		for _, f := range blockForms(t, comp, len(raw)) {
			if f.typ == 0 {
				got = append(got, run{at, f.n})
			}
			at += f.n
		}
		if !tc.stored {
			if len(got) != 0 {
				t.Fatalf("%s: stored blocks %v", tc.name, got)
			}
			continue
		}
		if len(got) != len(want) {
			t.Fatalf("%s: stored blocks %v, want one at each of %v", tc.name, got, want)
		}
		for j := range got {
			if got[j].at != want[j].at || got[j].n < want[j].n || got[j].n >= want[j].n+128 {
				t.Fatalf("%s: stored blocks %v, want one at each of %v", tc.name, got, want)
			}
		}
	}
}

// TestDeflateDynamicBound: the bound that lets writeBlock skip building the
// dynamic code never exceeds what building it costs, over sparse to dense,
// flat to skewed histograms and every block of the datapath payloads.
func TestDeflateDynamicBound(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	d := GetDeflater()
	defer d.Release()
	check := func(what string) {
		d.trimAlphabets()
		bound := d.dynamicBound()
		if size := d.buildDynamic(); bound > size {
			t.Fatalf("%s: bound %d bits, dynamic code and header %d", what, bound, size)
		}
	}
	for trial := 0; trial < 3000; trial++ {
		d.litFreq = [numLitSyms]uint32{endOfBlock: 1}
		d.distFreq = [numDistSyms]uint32{}
		lits, dists := 1+rng.Intn(numLitSyms), rng.Intn(numDistSyms+1)
		scale := 1 + rng.Intn(1<<uint(rng.Intn(12)))
		for _, sym := range rng.Perm(numLitSyms)[:lits] {
			d.litFreq[sym] += uint32(1 + rng.Intn(scale))
		}
		for _, sym := range rng.Perm(numDistSyms)[:dists] {
			d.distFreq[sym] = uint32(1 + rng.Intn(scale))
		}
		check(fmt.Sprintf("trial %d", trial))
	}
	for _, c := range deflateCases() {
		d.cur += epochGap
		for start := 0; start < len(c.raw); {
			mid, next := d.search(c.raw, start, min(start+maxBlockBytes, len(c.raw)))
			check(fmt.Sprintf("%s at %d..%d", c.name, start, mid))
			start = next
		}
	}
}

// TestDeflateEpochIsolatesCalls: one pooled Deflater, 100 000 small inputs
// over a tiny alphabet — each call's 4-grams are all in the table from the
// calls before — and the epoch taken across its wrap. A match into an
// earlier call's data would reach before the stream's start, which the
// inflater rejects.
func TestDeflateEpochIsolatesCalls(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	d := GetDeflater()
	defer d.Release()
	i := GetInflater()
	defer i.Release()
	calls := 100_000
	if RaceEnabled {
		calls /= 10 // thirteen seconds otherwise
	}
	// A call moves the epoch by its input and the gap: the wrap comes about
	// a third of the way in.
	d.cur = epochWrap - uint32(calls/3)*(200+epochGap)
	wraps := 0
	raw := make([]byte, 0, 400)
	var comp, back []byte
	for call := 0; call < calls; call++ {
		raw = raw[:rng.Intn(400)]
		for j := range raw {
			raw[j] = "ab"[rng.Intn(2)]
		}
		before := d.cur
		comp, _ = d.Append(comp[:0], raw)
		if d.cur < before {
			wraps++
		}
		var err error
		if back, err = i.AppendLimited(back[:0], comp, len(raw)); err != nil || !bytes.Equal(back, raw) {
			t.Fatalf("call %d (epoch %d): err=%v, %d bytes for %d", call, before, err, len(back), len(raw))
		}
	}
	if wraps != 1 {
		t.Fatalf("epoch wrapped %d times, want once", wraps)
	}
}

// TestDeflateAppendsAfterPrefix: output lands after what dst already holds,
// whether it fits or dst has to grow, from no room at all to the half-size
// destination the repo benchmark's replay passes.
func TestDeflateAppendsAfterPrefix(t *testing.T) {
	raw := benchSegment(15, 4, 0.35)
	prefix := []byte("unrelated header bytes")
	d := GetDeflater()
	defer d.Release()
	want, _ := d.Append(nil, raw)
	for _, spare := range []int{0, 1, 7, 8, len(want) - 1, len(want), len(want) + 8, len(raw) / 2, 2 * len(raw)} {
		backing := make([]byte, len(prefix)+spare)
		copy(backing, prefix)
		out, err := d.Append(backing[:len(prefix)], raw)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out[:len(prefix)], prefix) || !bytes.Equal(backing[:len(prefix)], prefix) {
			t.Fatalf("spare %d: prefix clobbered", spare)
		}
		if !bytes.Equal(out[len(prefix):], want) {
			t.Fatalf("spare %d: stream differs from the one appended to nil", spare)
		}
		if spare >= len(want)+blockSlack && &out[0] != &backing[0] {
			t.Fatalf("spare %d for %d bytes: dst replaced though the stream fits", spare, len(want))
		}
	}
}

// TestDeflateSteadyStateAllocs: with the destination AppendSegmentBlob rents
// — the codec header plus the raw size, from the pool — a warm encoder
// allocates nothing, whatever the payload.
func TestDeflateSteadyStateAllocs(t *testing.T) {
	if RaceEnabled {
		t.Skip("race instrumentation allocates; alloc assertions run in the non-race job")
	}
	const blobHeader = 9
	for _, c := range deflateCases() {
		out := Get(blobHeader + len(c.raw))
		if n := testing.AllocsPerRun(20, func() {
			d := GetDeflater()
			out.B, _ = d.Append(out.B[:blobHeader], c.raw)
			d.Release()
		}); n != 0 {
			t.Errorf("%s: %v allocs/op, want 0", c.name, n)
		}
		out.Release()
	}
}
