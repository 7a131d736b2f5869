// A one-pass DEFLATE (RFC 1951) encoder for the codec's one job: a whole
// buffer in, a complete stream appended to the caller's slice. It is the
// speed-first design of Snappy and of compress/flate's BestSpeed — a
// 4-byte-hash match search, one candidate per probe, matches of 4 to 258
// bytes at distances up to 32 KiB, a re-probe at s-1 and s after every match
// — with the costs of a streaming io.Writer taken out:
//
//   - The search runs straight over the caller's slice. There is no window to
//     copy the input into, and a match may reach back across block
//     boundaries for free.
//   - Table entries carry an epoch offset, so a 200-byte frame does not pay
//     to clear a 128 KiB table: everything an earlier call left behind is
//     simply out of reach.
//   - Literals are never turned into tokens. A token is one match and the
//     count of literal bytes before it; the writer reads those bytes from
//     the input again. Both histograms are counted as tokens are emitted, so
//     nothing walks the block a second time just to count it.
//   - Code lengths come from a counting sort of packed freq<<9|sym words and
//     an in-place two-queue merge; canonical codes are stored bit-reversed,
//     next to their lengths, ready for an LSB-first accumulator.
//   - The exact size of a block is known before its first bit is written, so
//     room in dst is checked once per block and the token loop stores eight
//     bytes at a time without looking.
//
// One rule decides the blocks: a match-less literal run of at least 1 KiB
// that no code could shrink by a sixteenth is a stored block of its own, so
// that every decoder of the stream copies those bytes instead of decoding
// them one code at a time. The run's collision entropy −log₂ Σ p², which no
// code beats, is the test. The blocks between such runs are short and
// mostly take the fixed-Huffman code, which costs no header; a lower bound
// on the dynamic code's size skips building that code wherever the fixed
// one cannot lose.
//
// The stream format is the decoder's (inflate.go shares the length and
// distance tables, the fixed code and the code-length order): blocks of at
// most 65 535 input bytes, each stored, fixed- or dynamic-Huffman, the last
// one flagged final.
package bufpool

import (
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
	"sync"
)

const (
	hashBits  = 14
	hashShift = 32 - hashBits

	minMatch     = 4 // what one probe verifies
	maxMatch     = 258
	maxMatchDist = 1 << 15

	// maxBlockBytes is the input one block covers: what a stored block's
	// 16-bit LEN can carry, should the block turn out not to compress.
	maxBlockBytes = 65535

	// A match-less literal run of at least minRunBytes ends the block before
	// it and is stored as a block of its own when, by the collision bound
	// storeRun tests, no code could shrink it by a sixteenth.
	minRunBytes     = 1 << 10
	storeCollisions = 182

	// The search stops inputMargin bytes short of the block's end so that its
	// eight-byte loads stay inside the block; shorter blocks are all literals.
	inputMargin    = 15
	minSearchBytes = inputMargin + 2

	// A match covers at least minMatch bytes, so a block holds at most this
	// many tokens.
	maxTokens = maxBlockBytes/minMatch + 1

	// epochGap is what Append advances the epoch by before it starts: one
	// more than the farthest a match may reach, which puts every entry of an
	// earlier call — and the zero entries of a cleared table — out of range.
	epochGap = maxMatchDist + 1
	// epochWrap is where a block may no longer start: the table is cleared
	// and the epoch starts over. It leaves room for one block and one gap.
	epochWrap = math.MaxUint32 - 1<<17

	// blockSlack is what a block reserves beyond its own bytes: up to 31 bits
	// pending from the block before, the padding and LEN/NLEN of a stored
	// block, the last partial byte, and the eight bytes a flush stores.
	blockSlack = 4 + 5 + 1 + 8

	numLitSyms  = 286
	numDistSyms = 30
	endOfBlock  = 256
	clenLimit   = 7 // the code-length alphabet's own length limit
)

// tableEntry is one slot of the match table: where a 4-byte sequence was
// last seen, as epoch offset plus position, and the four bytes themselves, so
// that a probe that does not match costs one cache miss, not two.
type tableEntry struct {
	off uint32
	val uint32
}

// A token is one match and the literals before it:
//
//	bits  0–15  number of literal bytes that precede the match
//	bits 16–20  length symbol less 257
//	bits 21–25  the length's extra bits
//	bits 26–30  distance symbol
//	bits 31–43  the distance's extra bits
const (
	tokLenSym    = 16
	tokLenExtra  = 21
	tokDistSym   = 26
	tokDistExtra = 31
)

// Deflater is a pooled DEFLATE compressor: the encoder of this file with its
// match table, one block's tokens, histograms and code tables in fixed
// arrays, about 260 KiB in all and nothing allocated per call. Rent with
// GetDeflater, compress with Append, and Release when done.
type Deflater struct {
	table [1 << hashBits]tableEntry
	// cur is the epoch: the table offset of the next block's first byte.
	cur uint32

	tokens [maxTokens]uint64
	ntok   int

	litFreq  [numLitSyms]uint32
	distFreq [numDistSyms]uint32
	clenFreq [numCodeLens]uint32

	// Codes as the writer wants them: the bit-reversed code in the low 16
	// bits, its length above.
	litCode  [numLitSyms]uint32
	distCode [numDistSyms]uint32
	clenCode [numCodeLens]uint32

	// Code lengths: literal/length symbols first, the distance symbols moved
	// up behind the last one in use when the header is written. Before
	// that, dynamicBound marks the symbols in use here.
	lens     [numLitSyms + numDistSyms]uint8
	distLens [numDistSyms]uint8
	clenLens [numCodeLens]uint8
	// The header's run-length coded lengths: symbol in the low byte, the
	// extra bits of 16, 17 and 18 above it.
	runs  [numLitSyms + numDistSyms]uint16
	nruns int
	// How many of each alphabet's lengths the header lists.
	numLit, numDist, numClen int

	sorted [numLitSyms]uint32 // freq<<9 | sym, then sorted
	weight [numLitSyms]uint32 // the merge's working array
}

var deflaters = sync.Pool{New: func() any { return &Deflater{} }}

// GetDeflater rents a pooled DEFLATE compressor.
func GetDeflater() *Deflater { return deflaters.Get().(*Deflater) }

// Release returns the compressor to the pool. It holds no reference to
// caller memory between calls.
func (d *Deflater) Release() {
	if d != nil {
		deflaters.Put(d)
	}
}

// Append appends the complete DEFLATE stream of p to dst and returns the
// extended slice, growing dst only when the stream does not fit; with room
// for the stream and blockSlack bytes more it performs zero allocations. The
// error is always nil. Each block search tokenizes is followed by the
// incompressible run it stopped at, if any, stored.
//
// Bytes of dst below len(dst) are never written, but the spare capacity is
// scratch, as it is for Inflater.Append: word-wide stores may leave up to
// seven bytes of garbage beyond the returned slice.
func (d *Deflater) Append(dst, p []byte) ([]byte, error) {
	w := bitWriter{out: dst[:cap(dst)], pos: len(dst)}
	d.cur += epochGap
	for start := 0; ; {
		end := min(start+maxBlockBytes, len(p))
		if d.cur >= epochWrap {
			d.table = [1 << hashBits]tableEntry{}
			d.cur = epochGap
		}
		mid, next := d.search(p, start, end)
		final := uint32(0)
		if next == len(p) {
			final = 1
		}
		if mid == next {
			d.writeBlock(&w, p, start, mid, final)
		} else {
			if mid > start {
				d.writeBlock(&w, p, start, mid, 0)
			}
			w.stored(p[mid:next], final)
		}
		if final == 1 {
			return w.finish(), nil
		}
		start = next
	}
}

func load32(p []byte, i int) uint32 { return binary.LittleEndian.Uint32(p[i:]) }
func load64(p []byte, i int) uint64 { return binary.LittleEndian.Uint64(p[i:]) }

func hash4(v uint32) uint32 { return (v * 0x1e35a7bd) >> hashShift }

// matchLen returns how many of the max bytes at p[s:] equal those at p[t:].
func matchLen(p []byte, s, t, max int) int {
	n := 0
	for ; n+8 <= max; n += 8 {
		if x := load64(p, s+n) ^ load64(p, t+n); x != 0 {
			return n + bits.TrailingZeros64(x)>>3
		}
	}
	for n < max && p[s+n] == p[t+n] {
		n++
	}
	return n
}

// search tokenizes p[start:end] into d.tokens and counts both histograms;
// the literals after the last match get no token. Matches may start anywhere
// in p before the block but end inside it. It stops early at the first
// match-less literal run of at least minRunBytes that is incompressible,
// and returns the bounds of the two blocks it leaves: the Huffman block
// p[start:mid], then that run p[mid:next] to be stored, empty when it did
// not stop.
func (d *Deflater) search(p []byte, start, end int) (mid, next int) {
	d.litFreq = [numLitSyms]uint32{endOfBlock: 1}
	d.distFreq = [numDistSyms]uint32{}
	// A position's table offset is base plus the position; uint32 arithmetic
	// wraps, distances come out right regardless.
	base := d.cur - uint32(start)
	table := &d.table
	ntok := 0
	nextEmit := start

	if end-start >= minSearchBytes {
		sLimit := end - inputMargin
		s := start
		cv := load32(p, s)
	search:
		for {
			// Probe forward for a 4-byte match, every byte at first and in
			// growing steps the longer none is found, so that incompressible
			// stretches are crossed quickly.
			var cand tableEntry
			var h uint32
			for skip := 32; ; skip += skip >> 5 {
				next := s + skip>>5
				if next > sLimit {
					break search
				}
				h = hash4(cv)
				cand = table[h]
				table[h] = tableEntry{base + uint32(s), cv}
				if cv == cand.val && base+uint32(s)-cand.off-1 < maxMatchDist {
					break
				}
				s = next
				cv = load32(p, s)
			}

			// A probe that strode over the start of the match finds it
			// late: take back the literals it covers.
			dist := int(base + uint32(s) - cand.off)
			for s > nextEmit && s > dist && p[s-1] == p[s-1-dist] {
				s--
			}
			if run := p[nextEmit:s]; len(run) < minRunBytes {
				for _, b := range run {
					d.litFreq[b]++
				}
			} else if d.storeRun(run) {
				// The next block starts at the match found here: give the
				// probe its candidate back, for the next search to find.
				table[h] = cand
				d.ntok = ntok
				d.cur = base + uint32(s)
				return nextEmit, s
			}
			lits := uint64(s - nextEmit)
			for {
				// Four bytes match at s. Extend, but not beyond 258: the
				// re-probe after a capped match is what leaves the phases of
				// a repeating text in the table for later probes to find,
				// and splitting one long match into same-distance tokens
				// instead costs several per cent of output.
				length := minMatch + matchLen(p, s+minMatch, s-dist+minMatch, min(maxMatch, end-s)-minMatch)
				ls, ds := lenSym[length-3], distSymOf(dist)
				d.litFreq[257+int(ls)]++
				d.distFreq[ds]++
				d.tokens[ntok] = lits |
					uint64(ls)<<tokLenSym | uint64(length-int(lenBase[ls]))<<tokLenExtra |
					uint64(ds)<<tokDistSym | uint64(dist-int(distBase[ds]))<<tokDistExtra
				ntok++
				lits = 0
				s += length
				nextEmit = s
				if s >= sLimit {
					break search
				}
				// Enter s-1, then probe s: a match right here saves the
				// forward search.
				x := load64(p, s-1)
				table[hash4(uint32(x))] = tableEntry{base + uint32(s-1), uint32(x)}
				x >>= 8
				h := hash4(uint32(x))
				cand = table[h]
				table[h] = tableEntry{base + uint32(s), uint32(x)}
				if uint32(x) != cand.val || base+uint32(s)-cand.off-1 >= maxMatchDist {
					s++
					cv = uint32(x >> 8)
					break
				}
				dist = int(base + uint32(s) - cand.off)
			}
		}
	}
	mid = end
	if run := p[nextEmit:end]; len(run) < minRunBytes {
		for _, b := range run {
			d.litFreq[b]++
		}
	} else if d.storeRun(run) {
		mid = nextEmit
	}
	d.ntok = ntok
	d.cur = base + uint32(end)
	return mid, end
}

// storeRun reports whether the match-less literal run b, at least
// minRunBytes long, is to be stored: whether even an ideal code of its byte
// histogram would save less than a sixteenth of it. No such code beats the
// histogram's Shannon entropy, and that is at least its collision entropy
// −log₂ Σ p², so the test is Σ f² · storeCollisions < n²: above log₂ 182 ≈
// 7.51 bits a byte, no code saves half a bit. A run it does not store is
// counted into the literal histogram.
func (d *Deflater) storeRun(b []byte) bool {
	var freq [256]uint32
	for _, c := range b {
		freq[c]++
	}
	sq := uint64(0)
	for _, f := range freq {
		sq += uint64(f) * uint64(f)
	}
	n := uint64(len(b))
	if sq*storeCollisions < n*n {
		return true
	}
	for c, f := range freq {
		d.litFreq[c] += f
	}
	return false
}

// lenSym maps a match length less 3 to its length symbol less 257; distSym
// maps a distance less 1, or above 256 its bits from the seventh up, to its
// distance symbol.
var (
	lenSym  [maxMatch - 2]uint8
	distSym [512]uint8
)

func init() {
	for sym, base := range lenBase {
		for l := int(base); l < int(base)+1<<lenExtra[sym] && l <= maxMatch; l++ {
			lenSym[l-3] = uint8(sym)
		}
	}
	for sym, base := range distBase {
		for d := int(base) - 1; d < int(base)-1+1<<distExtra[sym]; d++ {
			if d < 256 {
				distSym[d] = uint8(sym)
			} else {
				distSym[256+d>>7] = uint8(sym)
			}
		}
	}
}

func distSymOf(dist int) uint8 {
	if dist <= 256 {
		return distSym[dist-1]
	}
	return distSym[256+(dist-1)>>7]
}

// buildCode gives every symbol with a nonzero frequency a code length of at
// most limit bits in lens, zero for unused symbols, and returns what the
// code spends on the symbols counted, Σ freq · length; canonicalCodes turns
// the lengths into codes once the block has chosen them. A lone symbol gets a
// one-bit code, the one incomplete code DEFLATE allows; no symbol at all
// leaves lens zero, which is legal for the distances of a block of literals.
func (d *Deflater) buildCode(freq []uint32, lens []uint8, limit int) (cost int) {
	clear(lens)
	n := 0
	for sym, f := range freq {
		// Written for every symbol, kept for the used ones: no branch to
		// mispredict on a sparse alphabet.
		d.sorted[n] = f<<9 | uint32(sym)
		n += int((f | -f) >> 31)
	}
	if n < 2 {
		if n == 1 {
			lens[d.sorted[0]&511] = 1
			cost = int(d.sorted[0] >> 9)
		}
		return cost
	}
	sorted, w := d.sorted[:n], d.weight[:n]
	sortByFreq(sorted, w)
	for i, v := range sorted {
		w[i] = v >> 9
	}
	huffmanDepths(w)

	// Depths beyond the limit are cut to it, which over-subscribes the code.
	// With kraft the sum of 2^(limit-length), push leaves down from the
	// deepest level that has room until the sum no longer exceeds 2^limit,
	// then pull leaves up, deepest first, until the code is complete again.
	var count [maxCodeBits + 1]int
	full, kraft := 1<<limit, 0
	for _, depth := range w {
		l := min(int(depth), limit)
		count[l]++
		kraft += full >> l
	}
	for kraft > full {
		l := limit - 1
		for count[l] == 0 {
			l--
		}
		count[l]--
		count[l+1]++
		kraft -= full >> (l + 1)
	}
	for l := limit; kraft < full; l-- {
		for count[l] > 0 && kraft+full>>l <= full {
			count[l]--
			count[l-1]++
			kraft += full >> l
		}
	}

	// sorted ascends by frequency: the rarest symbols take the longest codes.
	i := 0
	for l := limit; l > 0; l-- {
		for c := count[l]; c > 0; c-- {
			lens[sorted[i]&511] = uint8(l)
			cost += int(sorted[i]>>9) * l
			i++
		}
	}
	return cost
}

// sortByFreq sorts words of the form freq<<9 | sym, in symbol order, by
// frequency, equal frequencies staying in symbol order: by insertion when
// there are few, else by one stable counting pass per byte of frequency in
// use, the least significant first, over only the buckets that byte reaches.
// tmp is scratch of the same length.
func sortByFreq(v, tmp []uint32) {
	if len(v) <= 32 {
		for i := 1; i < len(v); i++ {
			x, j := v[i], i
			for ; j > 0 && v[j-1] > x; j-- {
				v[j] = v[j-1]
			}
			v[j] = x
		}
		return
	}
	all := uint32(0)
	for _, x := range v {
		all |= x
	}
	src, dst := v, tmp
	for shift := uint(9); all>>shift != 0; shift += 8 {
		var start [256]uint16
		for _, x := range src {
			start[x>>shift&255]++
		}
		sum := uint16(0)
		for b := range min(all>>shift+1, 256) {
			start[b], sum = sum, sum+start[b]
		}
		for _, x := range src {
			b := x >> shift & 255
			dst[start[b]] = x
			start[b]++
		}
		src, dst = dst, src
	}
	copy(v, src)
}

// canonicalCodes gives every symbol its §3.2.2 canonical code, bit-reversed,
// with its length above bit 16.
func canonicalCodes(codes []uint32, lens []uint8) {
	var count [maxCodeBits + 1]uint16
	for _, l := range lens {
		count[l]++
	}
	count[0] = 0
	var next [maxCodeBits + 1]uint16
	code := uint16(0)
	for l := 1; l <= maxCodeBits; l++ {
		code = (code + count[l-1]) << 1
		next[l] = code
	}
	for sym, l := range lens {
		if l != 0 {
			codes[sym] = uint32(bits.Reverse16(next[l])>>(16-l)) | uint32(l)<<16
			next[l]++
		}
	}
}

// The fixed-Huffman codes of §3.2.6 as the writer wants them. The literal
// code is built over all 288 symbols, whose last two no stream may use.
var (
	fixedLitCode  [numLitSyms]uint32
	fixedDistCode [numDistSyms]uint32
)

func init() {
	var lit [maxNumLit]uint32
	canonicalCodes(lit[:], fixedLitLens[:])
	copy(fixedLitCode[:], lit[:])
	for ds := range fixedDistCode {
		fixedDistCode[ds] = uint32(bits.Reverse16(uint16(ds))>>11) | 5<<16
	}
}

// huffmanDepths replaces two or more weights, in ascending order, by the
// depths of their leaves in a Huffman tree, in place (Moffat and Katajainen):
// the leaves not yet merged are one queue, the internal nodes, which come
// into being in ascending order of weight, the other. Depths come out in
// descending order.
func huffmanDepths(w []uint32) {
	n := len(w)
	w[0] += w[1]
	root, leaf := 0, 2
	for next := 1; next < n-1; next++ {
		// The lighter of the two queue heads, twice; a merged node's slot is
		// reused for the index of its parent.
		if leaf >= n || w[root] < w[leaf] {
			w[next] = w[root]
			w[root] = uint32(next)
			root++
		} else {
			w[next] = w[leaf]
			leaf++
		}
		if leaf >= n || (root < next && w[root] < w[leaf]) {
			w[next] += w[root]
			w[root] = uint32(next)
			root++
		} else {
			w[next] += w[leaf]
			leaf++
		}
	}
	// Parent indexes to depths of internal nodes, root first.
	w[n-2] = 0
	for next := n - 3; next >= 0; next-- {
		w[next] = w[w[next]] + 1
	}
	// Level by level: whatever a level's slots do not give to internal nodes
	// are leaves.
	avail, depth := 1, uint32(0)
	root = n - 2
	for next := n - 1; avail > 0; depth++ {
		used := 0
		for root >= 0 && w[root] == depth {
			used++
			root--
		}
		for ; avail > used; avail-- {
			w[next] = depth
			next--
		}
		avail = 2 * used
	}
}

// runLengths codes the header's sequence of code lengths with the repeat
// symbols 16 (the previous length, 3–6 times), 17 and 18 (3–10 and 11–138
// zeros) into d.runs and counts the code-length alphabet.
func (d *Deflater) runLengths(lens []uint8) {
	d.clenFreq = [numCodeLens]uint32{}
	n := 0
	emit := func(sym, extra int) {
		d.runs[n] = uint16(sym | extra<<8)
		d.clenFreq[sym]++
		n++
	}
	for i := 0; i < len(lens); {
		l := int(lens[i])
		run := 1
		for i+run < len(lens) && int(lens[i+run]) == l {
			run++
		}
		i += run
		if l == 0 {
			for ; run >= 11; run -= min(run, 138) {
				emit(18, min(run, 138)-11)
			}
			if run >= 3 {
				emit(17, run-3)
				run = 0
			}
		} else {
			emit(l, 0)
			for run--; run >= 3; run -= min(run, 6) {
				emit(16, min(run, 6)-3)
			}
		}
		for ; run > 0; run-- {
			emit(l, 0)
		}
	}
	d.nruns = n
}

// bitWriter appends LSB-first bits to out[pos:] through a 64-bit
// accumulator. Every flush stores eight bytes, so whoever writes reserves
// what it will write plus eight.
type bitWriter struct {
	out []byte
	pos int
	acc uint64 // bits [0,n) are pending; higher bits are zero
	n   uint
}

// reserve makes room for k more bytes.
func (w *bitWriter) reserve(k int) {
	if len(w.out)-w.pos < k {
		w.out = slices.Grow(w.out[:w.pos], k)
		w.out = w.out[:cap(w.out)]
	}
}

// flush stores the accumulator and keeps the bits of its last, partial byte.
func (w *bitWriter) flush() {
	binary.LittleEndian.PutUint64(w.out[w.pos:], w.acc)
	w.pos += int(w.n >> 3)
	w.acc >>= w.n &^ 7
	w.n &= 7
}

// put appends the low k ≤ 16 bits of v, which has none above them.
func (w *bitWriter) put(v uint32, k uint) {
	w.acc |= uint64(v) << w.n
	w.n += k
	if w.n >= 32 {
		w.flush()
	}
}

// putCode appends a code of the form buildCode stores.
func (w *bitWriter) putCode(c uint32) { w.put(c&0xffff, uint(c>>16)) }

// finish pads the last byte and returns the output.
func (w *bitWriter) finish() []byte {
	w.n = (w.n + 7) &^ 7
	w.flush()
	return w.out[:w.pos]
}

// stored writes b as a §3.2.4 stored block.
func (w *bitWriter) stored(b []byte, final uint32) {
	w.reserve(len(b) + blockSlack)
	w.put(final, 3)
	w.n = (w.n + 7) &^ 7
	w.put(uint32(len(b)), 16)
	w.put(uint32(len(b))^0xffff, 16)
	w.flush()
	w.pos += copy(w.out[w.pos:], b)
}

// writeBlock writes the block search has just tokenized in the smaller
// Huffman form — fixed, whose code costs no header, or dynamic, built only
// when dynamicBound leaves it a chance to win — or stored, when that is
// within a sixteenth of the better of the two.
func (d *Deflater) writeBlock(w *bitWriter, p []byte, start, end int, final uint32) {
	// The extra bits of lengths and distances cost both Huffman forms alike.
	extra := 0
	for sym, e := range lenExtra {
		extra += int(d.litFreq[257+sym]) * int(e)
	}
	fixed := 3 + extra
	for sym, f := range d.distFreq {
		extra += int(f) * int(distExtra[sym])
		fixed += int(f) * int(5+distExtra[sym])
	}
	for sym, f := range d.litFreq {
		fixed += int(f) * int(fixedLitLens[sym])
	}
	// Build the dynamic code only when it might beat the fixed one: on the
	// short blocks between stored runs its header alone usually costs more
	// than the fixed code loses.
	d.trimAlphabets()
	size, dynamic := fixed, math.MaxInt
	if d.dynamicBound()+extra < fixed {
		dynamic = d.buildDynamic() + extra
		size = min(fixed, dynamic)
	}
	if (end-start+5)*8 < size+size>>4 {
		w.stored(p[start:end], final)
		return
	}

	w.reserve(size>>3 + blockSlack)
	lit, dc := &fixedLitCode, &fixedDistCode
	if dynamic < fixed {
		canonicalCodes(d.litCode[:d.numLit], d.lens[:d.numLit])
		canonicalCodes(d.distCode[:], d.distLens[:])
		d.writeHeader(w, final)
		lit, dc = &d.litCode, &d.distCode
	} else {
		w.put(final|1<<1, 3)
	}
	w.flush()

	// The body. Between steps at most seven bits are pending: three literals
	// (45 bits) or one match (15+5+15+13) then fit without a look. The
	// literals after the last match ride the same loop as a token with no
	// match.
	out, pos, acc, n := w.out, w.pos, w.acc, w.n
	for i, k := start, 0; ; k++ {
		t, run := uint64(0), end-i
		if k < d.ntok {
			t = d.tokens[k]
			run = int(t & 0xffff)
		}
		q := p[i : i+run]
		i += run
		for ; len(q) >= 3; q = q[3:] {
			// The three codes are put together on their own, off the chain
			// of dependencies through acc and n.
			c0, c1, c2 := lit[q[0]], lit[q[1]], lit[q[2]]
			l0, l01 := uint(c0>>16), uint(c0>>16+c1>>16)
			acc |= (uint64(c0&0xffff) | uint64(c1&0xffff)<<(l0&15) | uint64(c2&0xffff)<<(l01&31)) << (n & 7)
			n += l01 + uint(c2>>16)
			binary.LittleEndian.PutUint64(out[pos:], acc)
			pos += int(n >> 3)
			acc >>= n & 56
			n &= 7
		}
		for _, b := range q {
			c := lit[b]
			acc |= uint64(c&0xffff) << n
			n += uint(c >> 16)
		}
		binary.LittleEndian.PutUint64(out[pos:], acc)
		pos += int(n >> 3)
		acc >>= n &^ 7
		n &= 7
		if k == d.ntok {
			break
		}

		ls, ds := t>>tokLenSym&31, t>>tokDistSym&31
		i += int(lenBase[ls]) + int(t>>tokLenExtra&31)
		c := lit[257+ls]
		acc |= uint64(c&0xffff) << n
		n += uint(c >> 16)
		acc |= (t >> tokLenExtra & 31) << n
		n += uint(lenExtra[ls])
		c = dc[ds]
		acc |= uint64(c&0xffff) << n
		n += uint(c >> 16)
		acc |= (t >> tokDistExtra) << n
		n += uint(distExtra[ds])
		binary.LittleEndian.PutUint64(out[pos:], acc)
		pos += int(n >> 3)
		acc >>= n &^ 7
		n &= 7
	}
	w.pos, w.acc, w.n = pos, acc, n
	w.putCode(lit[endOfBlock])
}

// trimAlphabets sets how many literal/length and distance code lengths the
// header lists: through the last symbol in use, at least 257 and 1.
func (d *Deflater) trimAlphabets() {
	d.numLit, d.numDist = numLitSyms, numDistSyms
	for d.numLit > 257 && d.litFreq[d.numLit-1] == 0 {
		d.numLit--
	}
	for d.numDist > 1 && d.distFreq[d.numDist-1] == 0 {
		d.numDist--
	}
}

// buildDynamic builds the block's dynamic codes and its header, and returns
// their size in bits: header and codes, without the extra bits of lengths
// and distances.
func (d *Deflater) buildDynamic() int {
	size := d.buildCode(d.litFreq[:], d.lens[:numLitSyms], maxCodeBits)
	size += d.buildCode(d.distFreq[:], d.distLens[:], maxCodeBits)
	copy(d.lens[d.numLit:], d.distLens[:d.numDist])
	d.runLengths(d.lens[:d.numLit+d.numDist])
	size += d.buildCode(d.clenFreq[:], d.clenLens[:], clenLimit)
	d.numClen = numCodeLens
	for d.numClen > 4 && d.clenLens[codeOrder[d.numClen-1]] == 0 {
		d.numClen--
	}
	return size + 3 + 5 + 5 + 4 + 3*d.numClen + int(2*d.clenFreq[16]+3*d.clenFreq[17]+7*d.clenFreq[18])
}

// dynamicBound returns a lower bound on what buildDynamic would return,
// for a fraction of its cost.
//
// The codes cannot spend less on the symbols than the entropy of their
// histograms. The header's code-length sequence has a zero wherever a
// symbol is unused, and runLengths codes those runs of zeros one way only,
// so its zeros, 17s and 18s are known; a run of k used symbols takes at
// least one length and a repeat 16 for every six after it, or k lengths
// when k < 4. Counting every length and 16 as one symbol, no code for the
// sequence is cheaper than a Huffman code of those four counts. And the
// header lists at least as many code-length code lengths as minClens says
// the two codes' sizes need.
func (d *Deflater) dynamicBound() int {
	// Floor, and a bit less, for the rounding of the logarithms.
	size := int(entropyBits(d.litFreq[:])+entropyBits(d.distFreq[:])) - 1

	used := d.lens[:d.numLit+d.numDist]
	nlit, ndist := 0, 0
	for sym, f := range d.litFreq[:d.numLit] {
		used[sym] = uint8((f | -f) >> 31)
		nlit += int(used[sym])
	}
	for sym, f := range d.distFreq[:d.numDist] {
		used[d.numLit+sym] = uint8((f | -f) >> 31)
		ndist += int(used[d.numLit+sym])
	}
	// counts: zeros, 17s, 18s, then lengths and 16s together.
	var counts [4]uint32
	for i := 0; i < len(used); {
		u := used[i]
		run := 1
		for rep := uint64(u) * 0x0101010101010101; i+run+8 <= len(used) && load64(used, i+run) == rep; {
			run += 8
		}
		for i+run < len(used) && used[i+run] == u {
			run++
		}
		i += run
		switch {
		case u != 0 && run < 4:
			counts[3] += uint32(run)
		case u != 0:
			counts[3] += 1 + uint32(run+4)/6
		default:
			for ; run >= 11; run -= min(run, 138) {
				counts[2]++
			}
			if run >= 3 {
				counts[1]++
				run = 0
			}
			counts[0] += uint32(run)
		}
	}
	size += 3 + 5 + 5 + 4 + 3*max(minClens(nlit), minClens(ndist)) + 3*int(counts[1]) + 7*int(counts[2])
	return size + huffmanCost(&counts)
}

// minClens returns the fewest code-length code lengths a header lists when
// one of its codes has n symbols. A lone symbol has a one-bit code; n ≥ 2
// make a complete code, whose shortest length is at most log₂ n, and the
// short lengths come late in codeOrder.
func minClens(n int) int {
	switch {
	case n == 0:
		return 4
	case n == 1:
		return 18
	}
	return clensUpTo[min(bits.Len(uint(n))-1, 8)]
}

// clensUpTo[m] is one more than the first place in codeOrder of a length
// from 1 to m.
var clensUpTo = [9]int{1: 18, 2: 16, 3: 14, 4: 12, 5: 10, 6: 8, 7: 6, 8: 5}

// entropyBits returns the entropy of a histogram in bits, T log₂ T − Σ f
// log₂ f with T the total.
func entropyBits(freq []uint32) float64 {
	t, sum := uint32(0), 0.0
	for _, f := range freq {
		t += f
		if f < uint32(len(xLog2x)) {
			sum += xLog2x[f]
		} else {
			sum += float64(f) * math.Log2(float64(f))
		}
	}
	if t == 0 {
		return 0
	}
	return float64(t)*math.Log2(float64(t)) - sum
}

// xLog2x[f] is f log₂ f, for the frequencies of short blocks.
var xLog2x = func() (t [1 << 10]float64) {
	for f := 1; f < len(t); f++ {
		t[f] = float64(f) * math.Log2(float64(f))
	}
	return t
}()

// huffmanCost returns what an optimal prefix code spends on the symbols
// counted, a bit each when only one is in use. It sorts counts.
func huffmanCost(counts *[4]uint32) int {
	slices.Sort(counts[:])
	c := counts[:]
	for len(c) > 0 && c[0] == 0 {
		c = c[1:]
	}
	if len(c) < 2 {
		return int(counts[3])
	}
	var depth [4]uint32
	copy(depth[:], c)
	huffmanDepths(depth[:len(c)])
	cost := 0
	for i, n := range c {
		cost += int(n) * int(depth[i])
	}
	return cost
}

// writeHeader writes the dynamic block header buildDynamic has built.
func (d *Deflater) writeHeader(w *bitWriter, final uint32) {
	canonicalCodes(d.clenCode[:], d.clenLens[:])
	w.put(final|2<<1, 3)
	w.put(uint32(d.numLit-257), 5)
	w.put(uint32(d.numDist-1), 5)
	w.put(uint32(d.numClen-4), 4)
	for _, sym := range codeOrder[:d.numClen] {
		w.put(uint32(d.clenLens[sym]), 3)
	}
	for _, r := range d.runs[:d.nruns] {
		sym := r & 0xff
		w.putCode(d.clenCode[sym])
		switch sym {
		case 16:
			w.put(uint32(r>>8), 2)
		case 17:
			w.put(uint32(r>>8), 3)
		case 18:
			w.put(uint32(r>>8), 7)
		}
	}
}
