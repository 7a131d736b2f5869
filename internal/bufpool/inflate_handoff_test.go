package bufpool

import (
	"bytes"
	"compress/flate"
	"io"
	"math/bits"
	"math/rand"
	"testing"
)

// The decoder is two loops over one set of tables; these tests walk the
// boundary between them. How much spare capacity dst has and how many input
// bytes remain decide which loop meets a symbol, so sweeping both moves the
// hand-off across the stream, and hand-built streams put the symbols only
// the careful loop may judge (a reference before the stream's start, codes
// of the full 15 bits) in front of each loop in turn.

// handoffPrefix is what dst already holds when a stream is appended to it.
var handoffPrefix = []byte("bytes that are not this stream's")

// decodeInto appends comp's decoding to a fresh buffer holding
// handoffPrefix, with spare bytes of capacity beyond it, and fails the test
// if the prefix was touched.
func decodeInto(t testing.TB, comp []byte, spare int) ([]byte, error) {
	t.Helper()
	dst := make([]byte, len(handoffPrefix), len(handoffPrefix)+spare)
	copy(dst, handoffPrefix)
	i := GetInflater()
	out, err := i.Append(dst, comp)
	i.Release()
	if !bytes.Equal(out[:len(handoffPrefix)], handoffPrefix) {
		t.Fatalf("spare %d: bytes below len(dst) were written", spare)
	}
	return out[len(handoffPrefix):], err
}

func TestInflateHandoffCapacitySweep(t *testing.T) {
	step := 1
	if RaceEnabled || testing.Short() {
		step = 13
	}
	for name, payload := range testPayloads(t) {
		for _, level := range []int{flate.BestSpeed, 9} {
			comp := deflateWith(t, level, payload)
			for extra := 0; extra <= 300; extra += step {
				got, err := decodeInto(t, comp, len(payload)+extra)
				if err != nil {
					t.Fatalf("%s/level %d/+%d: %v", name, level, extra, err)
				}
				if !bytes.Equal(got, payload) {
					t.Fatalf("%s/level %d/+%d: output differs from the payload", name, level, extra)
				}
			}
			// Too little room from the start: the careful loop grows dst and
			// the fast loop rejoins whenever the growth leaves it a margin.
			for _, spare := range []int{0, 1, InflateSlack, len(payload) / 2} {
				if got, err := decodeInto(t, comp, spare); err != nil || !bytes.Equal(got, payload) {
					t.Fatalf("%s/level %d/spare %d: err=%v, equal=%v", name, level, spare, err, bytes.Equal(got, payload))
				}
			}
		}
	}
}

// TestInflateHandoffSteadyStateAllocs: wherever in the last InflateSlack
// bytes the fast loop hands over, a destination that holds the decoded size
// is never grown.
func TestInflateHandoffSteadyStateAllocs(t *testing.T) {
	if RaceEnabled {
		t.Skip("race instrumentation allocates; alloc assertions run in the non-race job")
	}
	payloads := testPayloads(t)
	for _, name := range []string{"mixed", "pagelike", "text", "rle", "noise"} {
		payload := payloads[name]
		comp := deflateWith(t, flate.BestSpeed, payload)
		for _, extra := range []int{0, 1, InflateSlack - 1, InflateSlack, 300} {
			dst := make([]byte, len(handoffPrefix), len(handoffPrefix)+len(payload)+extra)
			i := GetInflater()
			n := testing.AllocsPerRun(10, func() {
				out, err := i.Append(dst, comp)
				if err != nil || len(out) != cap(dst)-extra {
					t.Fatalf("%s/+%d: err=%v, %d bytes", name, extra, err, len(out))
				}
			})
			i.Release()
			if n != 0 {
				t.Errorf("%s/+%d: %v allocs/op, want 0", name, extra, n)
			}
		}
	}
}

// TestInflateEveryCutIsTruncated cuts streams where the sampled sweep of
// TestInflateTruncationAlwaysErrors does not look: at every byte of short
// streams and of the last 64 of long ones, where the fast loop's input
// margin runs out. A prefix of a valid stream violates nothing, so whichever
// loop meets the end, the verdict is ErrTruncated and never ErrCorrupt.
func TestInflateEveryCutIsTruncated(t *testing.T) {
	for name, payload := range testPayloads(t) {
		for _, level := range []int{flate.NoCompression, flate.BestSpeed, 9} {
			comp := deflateWith(t, level, payload)
			first := 0
			if len(comp) > 4<<10 {
				first = len(comp) - 64
			}
			for cut := first; cut < len(comp); cut++ {
				for _, spare := range []int{0, len(payload) + InflateSlack} {
					if _, err := decodeInto(t, comp[:cut], spare); err != ErrTruncated {
						t.Fatalf("%s/level %d: %d of %d bytes, spare %d: err=%v, want ErrTruncated", name, level, cut, len(comp), spare, err)
					}
				}
			}
		}
	}
}

// A minimal DEFLATE writer for the streams no compressor emits.

type testBitWriter struct {
	out []byte
	acc uint64
	n   uint
}

// put writes the low k bits of v, least significant first.
func (w *testBitWriter) put(v uint32, k uint) {
	w.acc |= uint64(v) << w.n
	for w.n += k; w.n >= 8; w.n -= 8 {
		w.out = append(w.out, byte(w.acc))
		w.acc >>= 8
	}
}

func (w *testBitWriter) bytes() []byte {
	if w.n > 0 {
		return append(w.out, byte(w.acc))
	}
	return w.out
}

// huffCode is a canonical code for the given lengths; put writes a symbol's
// code the way DEFLATE packs Huffman codes, most significant bit first.
type huffCode struct {
	lens  []uint8
	codes []uint16
}

func canonicalCode(lens []uint8) huffCode {
	var count, next [maxCodeBits + 2]uint16
	for _, l := range lens {
		count[l]++
	}
	count[0] = 0
	for l := 1; l <= maxCodeBits; l++ {
		next[l] = (next[l-1] + count[l-1]) << 1
	}
	codes := make([]uint16, len(lens))
	for s, l := range lens {
		if l != 0 {
			codes[s] = next[l]
			next[l]++
		}
	}
	return huffCode{lens, codes}
}

func (c huffCode) put(w *testBitWriter, sym int) {
	l := uint(c.lens[sym])
	if l == 0 {
		panic("symbol has no code")
	}
	w.put(uint32(bits.Reverse16(c.codes[sym])>>(16-l)), l)
}

// token is a literal (length 0) or a match.
type token struct {
	lit      byte
	length   int
	distance int
}

func lits(s string) []token {
	out := make([]token, len(s))
	for j := range s {
		out[j].lit = s[j]
	}
	return out
}

// handBuilt writes one final block holding tokens under the given code
// lengths: a dynamic block whose header spells every length out with a flat
// 4-bit code, or, with nil lengths, a fixed-Huffman block.
func handBuilt(litLens, distLens []uint8, tokens []token) []byte {
	var w testBitWriter
	w.put(1, 1)
	if litLens == nil {
		w.put(1, 2)
		litLens, distLens = make([]uint8, maxNumLit), make([]uint8, maxNumDist)
		for s := range litLens {
			switch {
			case s < 144:
				litLens[s] = 8
			case s < 256:
				litLens[s] = 9
			case s < 280:
				litLens[s] = 7
			default:
				litLens[s] = 8
			}
		}
		for s := range distLens {
			distLens[s] = 5
		}
	} else {
		w.put(2, 2)
		w.put(uint32(len(litLens)-257), 5)
		w.put(uint32(len(distLens)-1), 5)
		w.put(numCodeLens-4, 4)
		for _, s := range codeOrder {
			if s < 16 {
				w.put(4, 3)
			} else {
				w.put(0, 3)
			}
		}
		// Sixteen 4-bit codes: the canonical code of symbol s is s itself.
		flat := canonicalCode(bytes.Repeat([]byte{4}, 16))
		for _, l := range litLens {
			flat.put(&w, int(l))
		}
		for _, l := range distLens {
			flat.put(&w, int(l))
		}
	}
	lit, dist := canonicalCode(litLens), canonicalCode(distLens)
	for _, tk := range tokens {
		if tk.length == 0 {
			lit.put(&w, int(tk.lit))
			continue
		}
		s := len(lenBase) - 1
		for int(lenBase[s]) > tk.length {
			s--
		}
		lit.put(&w, 257+s)
		w.put(uint32(tk.length-int(lenBase[s])), uint(lenExtra[s]))
		s = len(distBase) - 1
		for int(distBase[s]) > tk.distance {
			s--
		}
		dist.put(&w, s)
		w.put(uint32(tk.distance-int(distBase[s])), uint(distExtra[s]))
	}
	lit.put(&w, 256)
	return w.bytes()
}

// handoffSpares puts a stream's symbols before the careful loop alone (no
// room), before the fast loop until the output margin runs out, and before
// the fast loop throughout.
func handoffSpares(logical int) []int {
	return []int{0, logical, logical + InflateSlack, logical + 4096}
}

// longCodeLens is a pair of codes with 15-bit members. Lengths 1, 2, …, 14,
// 15, 15 are a complete code of sixteen symbols: thirteen literals, end of
// block at 14 bits, and at 15 bits 'z' and length 258; distances 1–192 and,
// at 15 bits, 193–256.
func longCodeLens() (litLens, distLens []uint8) {
	litLens = make([]uint8, 286)
	for j, s := range []int{'a', 'b', 'c', 'd', 'e', 'f', 'g', 'h', 'i', 'j', 'k', 'l', 'm', 256, 'z'} {
		litLens[s] = uint8(j + 1)
	}
	litLens[285] = 15
	distLens = make([]uint8, 30)
	for s := 0; s < 15; s++ {
		distLens[s] = uint8(s + 1)
	}
	distLens[15] = 15
	return litLens, distLens
}

// fenceLens is an unremarkable complete pair: 226·2⁻⁸ + 60·2⁻⁹ = 1 and
// 2·2⁻⁴ + 28·2⁻⁵ = 1.
func fenceLens() (litLens, distLens []uint8) {
	litLens, distLens = bytes.Repeat([]byte{9}, 286), bytes.Repeat([]byte{5}, 30)
	for s := 0; s < 226; s++ {
		litLens[s] = 8
	}
	distLens[0], distLens[1] = 4, 4
	return litLens, distLens
}

// TestInflateLongCodes decodes codes of the full 15 bits — a literal, a
// length and a distance — which live in second-level sub-tables, early in a
// stream (the fast loop's) and at its very end (the careful loop's).
func TestInflateLongCodes(t *testing.T) {
	litLens, distLens := longCodeLens()

	filler := lits("abacabadabacabaeabacabadabacabafghijklm")
	var head []token
	for j := 0; j < 8; j++ {
		head = append(head, filler...)
	}
	long := []token{{lit: 'z'}, {length: 258, distance: 200}, {lit: 'z'}, {length: 258, distance: 256}, {lit: 'z'}}
	for name, tokens := range map[string][]token{
		"long codes first": append(append([]token{}, head...), append(long, head...)...),
		"long codes last":  append(append([]token{}, head...), long...),
	} {
		comp := handBuilt(litLens, distLens, tokens)
		want, err := io.ReadAll(flate.NewReader(bytes.NewReader(comp)))
		if err != nil {
			t.Fatalf("%s: stdlib rejects the hand-built stream: %v", name, err)
		}
		for _, spare := range handoffSpares(len(want)) {
			got, err := decodeInto(t, comp, spare)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("%s/spare %d: err=%v, %d bytes, want %d", name, spare, err, len(got), len(want))
			}
		}
		for cut := len(comp) - 40; cut < len(comp); cut++ {
			if _, err := decodeInto(t, comp[:cut], len(want)+InflateSlack); err != ErrTruncated {
				t.Fatalf("%s: cut at %d of %d: err=%v, want ErrTruncated", name, cut, len(comp), err)
			}
		}
	}
}

// TestInflateStartFence: a distance may reach the first byte this stream
// produced and not one byte further, whatever dst held before — in either
// loop.
func TestInflateStartFence(t *testing.T) {
	tail := lits("a tail long enough to keep the reference well inside the fast loop's input margin")
	for _, tc := range []struct {
		name     string
		distance int
		ok       bool
	}{
		{"to start", 3, true},
		{"before start", 4, false},
	} {
		for _, dynamic := range []bool{false, true} {
			tokens := append(lits("xyz"), token{length: 200, distance: tc.distance})
			tokens = append(tokens, tail...)
			var litLens, distLens []uint8
			if dynamic {
				litLens, distLens = fenceLens()
			}
			comp := handBuilt(litLens, distLens, tokens)
			want, wantErr := io.ReadAll(flate.NewReader(bytes.NewReader(comp)))
			if (wantErr == nil) != tc.ok {
				t.Fatalf("%s: stdlib err=%v on the hand-built stream", tc.name, wantErr)
			}
			for _, spare := range handoffSpares(3 + 200 + len(tail)) {
				got, err := decodeInto(t, comp, spare)
				if tc.ok && (err != nil || !bytes.Equal(got, want)) {
					t.Fatalf("%s/dynamic=%v/spare %d: err=%v, equal=%v", tc.name, dynamic, spare, err, bytes.Equal(got, want))
				}
				if !tc.ok && err != ErrCorrupt {
					t.Fatalf("%s/dynamic=%v/spare %d: err=%v, want ErrCorrupt", tc.name, dynamic, spare, err)
				}
			}
		}
	}
}

// TestInflateLimitZeroIsNotUnlimited: a claim of zero bytes admits the empty
// stream and nothing else; zero is a bound like any other, not "no bound".
func TestInflateLimitZeroIsNotUnlimited(t *testing.T) {
	payloads := testPayloads(t)
	i := GetInflater()
	defer i.Release()
	for _, level := range []int{flate.NoCompression, flate.BestSpeed, 9} {
		for _, name := range []string{"one", "rle", "text", "noise"} {
			comp := deflateWith(t, level, payloads[name])
			for _, spare := range []int{0, len(payloads[name]) + InflateSlack} {
				out, err := i.AppendLimited(make([]byte, 0, spare), comp, 0)
				if err != ErrCorrupt || len(out) > 258 {
					t.Fatalf("%s/level %d/spare %d: limit 0: err=%v, %d bytes out", name, level, spare, err, len(out))
				}
			}
		}
		if out, err := i.AppendLimited(nil, deflateWith(t, level, nil), 0); err != nil || len(out) != 0 {
			t.Fatalf("level %d: empty stream under limit 0: err=%v, %d bytes", level, err, len(out))
		}
	}
}

// TestInflateLimitIsExact: at every bound below the true size the decode
// fails without one byte past the bound, and at the true size it succeeds —
// with room for the fast loop and without.
func TestInflateLimitIsExact(t *testing.T) {
	payload := testPayloads(t)["mixed"][:20_000]
	comp := deflateWith(t, flate.BestSpeed, payload)
	i := GetInflater()
	defer i.Release()
	for max := 0; max <= len(payload); max += 1 + max/7 {
		for _, spare := range []int{max, len(payload) + InflateSlack} {
			dst := make([]byte, len(handoffPrefix), len(handoffPrefix)+spare)
			out, err := i.AppendLimited(dst, comp, max)
			if max < len(payload) && err != ErrCorrupt {
				t.Fatalf("limit %d/spare %d: err=%v, want ErrCorrupt", max, spare, err)
			}
			if len(out)-len(dst) > max {
				t.Fatalf("limit %d/spare %d: %d bytes out", max, spare, len(out)-len(dst))
			}
		}
	}
	if out, err := i.AppendLimited(nil, comp, len(payload)); err != nil || !bytes.Equal(out, payload) {
		t.Fatalf("limit at the true size: err=%v", err)
	}
}

// TestBuildDecodesEveryCode checks the two-level tables against the
// definition of a canonical code: for random complete codes over each of the
// three alphabets — deep, lopsided ones that fill sub-tables — built into a
// table of exactly the size the Inflater gives that alphabet, every symbol's
// code, followed by arbitrary bits, decodes to that symbol and consumes
// exactly its length.
func TestBuildDecodesEveryCode(t *testing.T) {
	alphabets := []struct {
		symbols, size  int
		width, deepest uint
	}{
		{maxNumLit, litTableSize, litBits, maxCodeBits},
		{maxNumDist, distTableSize, distBits, maxCodeBits},
		{numCodeLens, 1 << clenBits, clenBits, 7},
	}
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 600; trial++ {
		a := alphabets[trial%len(alphabets)]
		// Split leaves of a binary tree at random until there are enough;
		// preferring the deepest leaf makes long codes common.
		symbols := 2 + rng.Intn(a.symbols-1)
		depths := []uint8{1, 1}
		for len(depths) < symbols {
			j := rng.Intn(len(depths))
			if rng.Intn(3) > 0 {
				for k, d := range depths {
					if d > depths[j] && uint(d) < a.deepest {
						j = k
					}
				}
			}
			if uint(depths[j]) == a.deepest {
				continue
			}
			depths[j]++
			depths = append(depths, depths[j])
		}
		lens := make([]uint8, a.symbols)
		for j, at := range rng.Perm(a.symbols)[:symbols] {
			lens[at] = depths[j]
		}
		proto := make([]uint32, a.symbols)
		for s := range proto {
			proto[s] = hLit | uint32(s)<<16
		}
		tab := make([]uint32, a.size)
		bits, err := build(tab, a.width, lens, proto)
		if err != nil {
			t.Fatalf("trial %d: build(%v): %v", trial, lens, err)
		}
		code := canonicalCode(lens)
		for s, l := range lens {
			if l == 0 {
				continue
			}
			var w testBitWriter
			code.put(&w, s)
			w.put(rng.Uint32(), 17)
			r := bitReader{in: w.bytes()}
			e := r.sym(huffTable{tab, bits})
			if e>>16 != uint32(s) || r.n+uint(l) != uint(8*len(r.in)) {
				t.Fatalf("trial %d: symbol %d (%d bits) decoded as entry %#x, %d bits left of %d", trial, s, l, e, r.n, 8*len(r.in))
			}
		}
	}
}

// TestInflateShortOverlappingMatches: matches too short for memmove whose
// source is fewer than eight bytes behind — runs of one byte, periods of two
// to seven — which neither loop may copy a word at a time.
func TestInflateShortOverlappingMatches(t *testing.T) {
	tokens := lits("abcdefg")
	for distance := 1; distance <= 7; distance++ {
		for _, length := range []int{3, 8, 9, 40} {
			tokens = append(tokens, token{length: length, distance: distance}, token{lit: byte('A' + distance)})
		}
	}
	tokens = append(tokens, lits("and a tail that keeps all of it inside the fast loop's input margin")...)
	comp := handBuilt(nil, nil, tokens)
	want, err := io.ReadAll(flate.NewReader(bytes.NewReader(comp)))
	if err != nil {
		t.Fatalf("stdlib rejects the hand-built stream: %v", err)
	}
	for _, spare := range handoffSpares(len(want)) {
		if got, err := decodeInto(t, comp, spare); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("spare %d: err=%v, equal=%v", spare, err, bytes.Equal(got, want))
		}
	}
}
