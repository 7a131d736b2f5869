// A DEFLATE (RFC 1951) decoder whose entire working state — bit reader,
// Huffman tables, code-length scratch — lives in fixed-size arrays inside
// the pooled Inflater. This is what makes steady-state decode 0 allocs/op:
// compress/flate re-allocates its dynamic-Huffman link tables on every
// block (huffmanDecoder.init does `*h = huffmanDecoder{}` plus fresh makes),
// so even a pooled, Reset flate.Reader pays ~16 allocations per realistic
// segment. The decoder below rebuilds tables in place instead.
//
// It is a whole-buffer decoder: the complete stream is in memory (codec
// blobs always are) and output is appended to a caller buffer, so there is
// no streaming window to manage — back-references copy straight from the
// produced output. Correctness is cross-checked against compress/flate in
// inflate_test.go over every stdlib compression level.
//
// One decoder, two loops over the same tables. The fast loop (bitReader.fast)
// runs while at least fastInMargin input bytes and InflateSlack bytes of
// spare output capacity remain: there it can keep the bit accumulator and
// both cursors in registers, refill eight bytes at a time without testing
// for the end of input, store literals by index and copy matches a word at
// a time. Everything else — the last few bytes of either buffer, the end of
// a block, and every malformed or out-of-bounds symbol — it declines,
// leaving the reader exactly before the symbol, and the careful loop
// (Inflater.block) decodes that symbol with the checks and the error
// classification in one place.
package bufpool

import (
	"encoding/binary"
	"errors"
	"math"
	"math/bits"
)

// ErrCorrupt and ErrTruncated classify decode failures: a stream that
// violates DEFLATE (bad block type, over-subscribed code, reference before
// stream start, stored-block length mismatch, output past the caller's
// bound) versus one that simply ends early. Callers treat both as fatal;
// tests distinguish them.
var (
	ErrCorrupt   = errors.New("bufpool: corrupt deflate stream")
	ErrTruncated = errors.New("bufpool: truncated deflate stream")
)

const (
	maxCodeBits = 15  // DEFLATE's longest Huffman code
	maxNumLit   = 288 // literal/length alphabet (286 valid + 2 reserved)
	maxNumDist  = 32  // distance alphabet (30 valid + 2 reserved)
	numCodeLens = 19  // the code-length alphabet of the dynamic header

	// First-level table widths, one per alphabet. A table is indexed by
	// min(width, longest code) bits, so a block whose codes are short — a
	// 4-page segment, a log-entry batch — fills a few hundred slots, not
	// the full width; longer codes continue in a second-level sub-table
	// indexed by the remaining bits. On segments of pages and of log
	// entries BestSpeed spends 8–9 bits on nearly every literal and 7–9 on
	// its longest distance code, and 11–15 only on a handful of rare
	// symbols per block, so these widths keep the second level off the
	// hot path; the code-length alphabet cannot exceed 7 bits at all.
	litBits  = 10
	distBits = 9
	clenBits = 7

	// Sub-table room. A sub-table of 2^k slots hangs under a first-level
	// prefix whose longest code is width+k bits, and a complete code has
	// at least k+1 symbols under such a prefix; 2^k/(k+1) grows with k,
	// so an alphabet of N symbols needs at most N·2^K/(K+1) slots with
	// K = maxCodeBits − width. build checks the room anyway.
	litTableSize  = 1<<litBits + maxNumLit<<(maxCodeBits-litBits)/(maxCodeBits-litBits+1)
	distTableSize = 1<<distBits + maxNumDist<<(maxCodeBits-distBits)/(maxCodeBits-distBits+1)

	// The fast loop's margins. One iteration refills twice (eight bytes
	// read at a cursor that has advanced by at most seven) and writes at
	// most two literals and one match, rounded up to whole words.
	fastInMargin = 16

	// InflateSlack is the spare capacity beyond the decoded size that lets
	// the fast loop run to the end of the stream: callers that know the
	// logical size rent or allocate that plus InflateSlack. Less is
	// correct — the careful loop finishes the stream — just slower for the
	// last InflateSlack bytes.
	InflateSlack = 2 + 33*8
)

// Table entries are 32 bits:
//
//	bits  0–5   code length plus extra bits: what a length or distance
//	            consumes in all (the fast loop shifts it out in one step)
//	bits  8–11  code length alone; in a sub-table pointer, the width of
//	            the sub-table's index
//	bits 12–15  kind: hLit, hBase, hSub or hEOB; none for the reserved
//	            symbols (286, 287, distance 30, 31), which decode and are
//	            then rejected. The zero entry is a miss: no code starts
//	            with these bits.
//	bits 16–31  the literal, the length or distance base, or the sub-table's
//	            offset in the table
const (
	hLit  = 1 << 12 // a literal byte (or a code-length symbol)
	hBase = 1 << 13 // a length or distance: base plus extra bits
	hSub  = 1 << 14 // first level only: continue in a sub-table
	hEOB  = 1 << 15 // end of block
)

func entryCodeLen(e uint32) uint { return uint(e>>8) & 15 }
func entryExtra(e uint32) uint   { return uint(e&63) - uint(e>>8)&15 }

// bitReader drains a byte slice LSB-first through a 64-bit accumulator.
// Errors are sticky: after the first failure every read returns zero and
// the caller's final error check reports the original cause.
type bitReader struct {
	in  []byte
	pos int
	b   uint64 // bits [0,n) are valid; higher bits are always zero
	n   uint
	err error
}

// fill tops the accumulator up to 56–63 bits, or to the end of the input.
func (r *bitReader) fill() {
	for r.n < 56 && r.pos < len(r.in) {
		r.b |= uint64(r.in[r.pos]) << r.n
		r.pos++
		r.n += 8
	}
}

// take consumes k ≤ 16 bits. On underrun it flags ErrTruncated and returns
// zero without consuming, so decode loops terminate at the sticky check.
func (r *bitReader) take(k uint) uint32 {
	if r.n < k {
		r.fill()
		if r.n < k {
			r.fail(ErrTruncated)
			return 0
		}
	}
	v := uint32(r.b) & (1<<k - 1)
	r.b >>= k
	r.n -= k
	return v
}

func (r *bitReader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// alignByte drops the partial byte before a stored block.
func (r *bitReader) alignByte() {
	drop := r.n & 7
	r.b >>= drop
	r.n -= drop
}

// huffTable is a view of a built two-level decoding table: tab[:1<<bits] is
// the first level, sub-tables follow. The storage belongs to the Inflater
// (or to the package, for the fixed code) and is rebuilt in place.
type huffTable struct {
	tab  []uint32
	bits uint
}

// sym decodes one code, consuming the code's own bits but not the extra
// bits of a length or distance, and returns its table entry. On failure it
// records the error on r and returns the zero entry: ErrCorrupt when no
// code starts with the bits at hand, ErrTruncated when the input ends
// inside the code.
func (r *bitReader) sym(t huffTable) uint32 {
	if r.n < maxCodeBits {
		r.fill()
	}
	e := t.tab[r.b&(1<<t.bits-1)]
	if e&hSub != 0 {
		e = t.tab[uint64(e>>16)+(r.b>>t.bits)&(1<<entryCodeLen(e)-1)]
	}
	if e == 0 {
		r.fail(ErrCorrupt)
		return 0
	}
	// Bits above r.n are zero, so the entry is trusted only when the whole
	// code was actually buffered.
	l := entryCodeLen(e)
	if l > r.n {
		r.fail(ErrTruncated)
		return 0
	}
	r.b >>= l
	r.n -= l
	return e
}

// build constructs, in tab, the decoder for the given code lengths (0 =
// unused symbol) and returns its first-level width, at most maxBits. proto
// holds each symbol's entry less its code length. Over-subscribed codes are
// corrupt; incomplete codes are accepted only in the degenerate
// single-symbol case, matching compress/flate. An all-zero length set
// builds a table of one miss — legal for the distance alphabet of a
// literal-only block. A complete code fills every slot it indexes, so
// nothing is cleared between blocks.
func build(tab []uint32, maxBits uint, lens []uint8, proto []uint32) (uint, error) {
	var count [maxCodeBits + 1]uint16
	total := 0
	for _, l := range lens {
		if l != 0 {
			count[l]++
			total++
		}
	}
	if total == 0 {
		tab[0] = 0
		return 0, nil
	}
	left := 1
	max := uint(0)
	for l := uint(1); l <= maxCodeBits; l++ {
		left <<= 1
		left -= int(count[l])
		if left < 0 {
			return 0, ErrCorrupt
		}
		if count[l] != 0 {
			max = l
		}
	}
	if left > 0 && !(total == 1 && max == 1) {
		return 0, ErrCorrupt
	}

	// Symbols in canonical order: by length, then by value.
	var next [maxCodeBits + 2]uint16
	for l := 1; l <= maxCodeBits; l++ {
		next[l+1] = next[l] + count[l]
	}
	var sorted [maxNumLit]uint16
	for sym, l := range lens {
		if l != 0 {
			sorted[next[l]] = uint16(sym)
			next[l]++
		}
	}

	root := max
	if root > maxBits {
		root = maxBits
	}
	// The stream presents code bits in reverse, so a code of length l owns
	// every first-level slot whose low l bits spell it. Grow the table one
	// bit at a time: at width l each code of length l is a single slot,
	// and doubling the table by copy replicates the shorter ones. Slots
	// copied before anything was written to them are prefixes of longer
	// codes; a complete code overwrites every one of them further down.
	code := uint32(0)
	j := 0
	for l := uint(1); l <= root; l++ {
		copy(tab[1<<(l-1):1<<l], tab[:1<<(l-1)])
		code <<= 1
		for c := count[l]; c > 0; c-- {
			tab[bits.Reverse16(uint16(code))>>(16-l)] = proto[sorted[j]] + uint32(l)<<8 + uint32(l)
			j++
			code++
		}
	}
	if total == 1 {
		tab[1] = 0 // the one incomplete code: "1" is nobody's
	}
	// Longer codes continue in sub-tables. Canonical order keeps the codes
	// under one first-level prefix together; at the first of them, the
	// counts of the codes still to come say how deep that prefix's subtree
	// goes, which is the sub-table's width.
	free := 1 << root
	prefix, sub, subBits := ^uint32(0), 0, uint(0)
	for l := root + 1; l <= max; l++ {
		code <<= 1
		for ; count[l] > 0; count[l]-- {
			sym := sorted[j]
			j++
			rev := uint32(bits.Reverse16(uint16(code)) >> (16 - l))
			code++
			if p := rev & (1<<root - 1); p != prefix {
				prefix = p
				subBits = l - root
				for left := 1<<subBits - int(count[l]); left > 0 && root+subBits < max; {
					subBits++
					left = left<<1 - int(count[root+subBits])
				}
				sub = free
				free += 1 << subBits
				if free > len(tab) {
					return 0, ErrCorrupt
				}
				tab[p] = uint32(sub)<<16 | hSub | uint32(subBits)<<8
			}
			e := proto[sym] + uint32(l)<<8 + uint32(l)
			for k := int(rev >> root); k < 1<<subBits; k += 1 << (l - root) {
				tab[sub+k] = e
			}
		}
	}
	return root, nil
}

// The length and distance expansion tables of RFC 1951 §3.2.5.
var (
	lenBase   = [29]uint16{3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258}
	lenExtra  = [29]uint8{0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0}
	distBase  = [30]uint16{1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385, 513, 769, 1025, 1537, 2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577}
	distExtra = [30]uint8{0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13}

	// codeOrder is the dynamic header's permuted code-length ordering.
	codeOrder = [numCodeLens]byte{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}

	// Each alphabet's entries less the code length, which build adds. The
	// reserved symbols stay zero here, so their entries have no kind.
	litProto  [maxNumLit]uint32
	distProto [maxNumDist]uint32
	clenProto [numCodeLens]uint32

	// The fixed-Huffman tables of §3.2.6, built once at package init; block
	// decode reads them concurrently but never writes.
	fixedLit  huffTable
	fixedDist huffTable

	// fixedLitLens are the fixed code's literal/length lengths, which the
	// encoder prices and codes with too.
	fixedLitLens = func() (lens [maxNumLit]uint8) {
		for sym := range lens {
			switch {
			case sym < 144:
				lens[sym] = 8
			case sym < 256:
				lens[sym] = 9
			case sym < 280:
				lens[sym] = 7
			default:
				lens[sym] = 8
			}
		}
		return lens
	}()
)

func init() {
	for s := 0; s < 256; s++ {
		litProto[s] = hLit | uint32(s)<<16
	}
	litProto[256] = hEOB
	for s := range lenBase {
		litProto[257+s] = hBase | uint32(lenBase[s])<<16 | uint32(lenExtra[s])
	}
	for s := range distBase {
		distProto[s] = hBase | uint32(distBase[s])<<16 | uint32(distExtra[s])
	}
	for s := range clenProto {
		clenProto[s] = hLit | uint32(s)<<16
	}

	// All 32 distance codes are 5 bits; 30 and 31 decode but are rejected
	// as corrupt when they appear, per the RFC.
	var dist [maxNumDist]uint8
	for j := range dist {
		dist[j] = 5
	}
	fixedLit.tab = make([]uint32, 1<<9)
	fixedDist.tab = make([]uint32, 1<<5)
	var err error
	if fixedLit.bits, err = build(fixedLit.tab, litBits, fixedLitLens[:], litProto[:]); err != nil {
		panic(err)
	}
	if fixedDist.bits, err = build(fixedDist.tab, distBits, dist[:], distProto[:]); err != nil {
		panic(err)
	}
}

// inflate appends the decoded stream p to dst, to at most max bytes. start
// marks where this stream's output began — back-references may not reach
// before it into unrelated caller bytes — and end where it must stop.
func (i *Inflater) inflate(dst, p []byte, max int) ([]byte, error) {
	i.br = bitReader{in: p}
	r := &i.br
	start := len(dst)
	end := math.MaxInt
	if max < end-start {
		end = start + max
	}
	for {
		final := r.take(1)
		typ := r.take(2)
		if r.err != nil {
			return dst, r.err
		}
		var err error
		switch typ {
		case 0:
			dst, err = i.stored(dst, end)
		case 1:
			dst, err = i.block(dst, start, end, fixedLit, fixedDist)
		case 2:
			if err = i.readDynamicHeader(); err == nil {
				dst, err = i.block(dst, start, end, huffTable{i.lit[:], i.litBits}, huffTable{i.dist[:], i.distBits})
			}
		default:
			err = ErrCorrupt
		}
		if err != nil {
			return dst, err
		}
		if final == 1 {
			// Trailing bytes after the final block are the container's
			// business, not ours — same stance as compress/flate.
			return dst, nil
		}
	}
}

// stored copies a §3.2.4 uncompressed block.
func (i *Inflater) stored(dst []byte, end int) ([]byte, error) {
	r := &i.br
	r.alignByte()
	ln := r.take(16)
	nln := r.take(16)
	if r.err != nil {
		return dst, r.err
	}
	if ln != ^nln&0xffff {
		return dst, ErrCorrupt
	}
	length := int(ln)
	if length > end-len(dst) {
		return dst, ErrCorrupt
	}
	// Drain whole bytes already buffered in the accumulator, then bulk-copy
	// the rest straight from the input.
	for length > 0 && r.n >= 8 {
		dst = append(dst, byte(r.b))
		r.b >>= 8
		r.n -= 8
		length--
	}
	if length > len(r.in)-r.pos {
		r.err = ErrTruncated
		return dst, r.err
	}
	dst = append(dst, r.in[r.pos:r.pos+length]...)
	r.pos += length
	return dst, nil
}

// fast decodes symbols of one block body into out[op:], for as long as
// nothing needs checking, and returns the new op. It requires, and at every
// iteration re-establishes, that fastInMargin input bytes and InflateSlack
// bytes of out below end remain, so refills never meet the end of the input
// and stores never meet the end of the output or the caller's bound. It
// returns — with the reader exactly before the symbol, and r.b's unread bits
// zeroed again — at the end of the block, at a miss or a reserved symbol, at
// a distance that reaches before start, and when a margin runs out. Word
// copies may scribble on up to seven bytes of out beyond the returned op.
func (r *bitReader) fast(out []byte, op, start, end int, lit, dist huffTable) int {
	in := r.in
	b, n, pos := r.b, uint64(r.n), r.pos
	inEnd := len(in) - fastInMargin
	// Three literals fit under opEnd without passing end; a match is
	// checked against end itself.
	opEnd := end - 3
	if opEnd > len(out)-InflateSlack {
		opEnd = len(out) - InflateSlack
	}
	litTab, litMask := lit.tab, uint64(1)<<lit.bits-1
	distTab, distMask := dist.tab, uint64(1)<<dist.bits-1

	for pos <= inEnd && op <= opEnd {
		// Branch-free refill: whole bytes up to 56–63 valid bits. Bits of b
		// above n are real stream bits here, ORed in again by the next
		// refill; only the careful loop needs them zero.
		b |= binary.LittleEndian.Uint64(in[pos:]) << (n & 63)
		pos += int((63 - n) >> 3)
		n |= 56

		// Up to three literals (33 bits at most) on one refill.
		e := litTab[b&litMask]
		if e&hLit != 0 {
			b >>= e & 63
			n -= uint64(e & 63)
			out[op] = byte(e >> 16)
			op++
			e = litTab[b&litMask]
			if e&hLit != 0 {
				b >>= e & 63
				n -= uint64(e & 63)
				out[op] = byte(e >> 16)
				op++
				e = litTab[b&litMask]
				if e&hLit != 0 {
					b >>= e & 63
					n -= uint64(e & 63)
					out[op] = byte(e >> 16)
					op++
					continue
				}
			}
			// Not a literal: top up, so that a whole length/distance pair
			// (15+5+15+13 bits) is buffered and pos stays put from here on.
			b |= binary.LittleEndian.Uint64(in[pos:]) << (n & 63)
			pos += int((63 - n) >> 3)
			n |= 56
		}
		if e&hSub != 0 {
			e = litTab[uint64(e>>16)+(b>>lit.bits)&(1<<(e>>8&15)-1)]
			if e&hLit != 0 {
				b >>= e & 63
				n -= uint64(e & 63)
				out[op] = byte(e >> 16)
				op++
				continue
			}
		}
		if e&hBase == 0 {
			break
		}
		b0, n0 := b, n
		length := int(e>>16) + int(b&(1<<(e&63)-1)>>(e>>8&15))
		b >>= e & 63
		n -= uint64(e & 63)

		e = distTab[b&distMask]
		if e&hSub != 0 {
			e = distTab[uint64(e>>16)+(b>>dist.bits)&(1<<(e>>8&15)-1)]
		}
		distance := int(e>>16) + int(b&(1<<(e&63)-1)>>(e>>8&15))
		if e&hBase == 0 || distance > op-start || length > end-op {
			b, n = b0, n0
			break
		}
		b >>= e & 63
		n -= uint64(e & 63)

		src := op - distance
		switch {
		case length > 40:
			// memmove. While the match overlaps itself, the span from its
			// source to what has been written doubles with every pass.
			for k := 0; k < length; {
				k += copy(out[op+k:op+length], out[src:op+k])
			}
		case distance >= 8:
			// Whole words, up to seven bytes too far; the source stays
			// eight or more bytes behind the destination, so an
			// overlapping match still reads only bytes already written.
			for k := 0; k < length; k += 8 {
				binary.LittleEndian.PutUint64(out[op+k:], binary.LittleEndian.Uint64(out[src+k:]))
			}
		default:
			for k := 0; k < length; k++ {
				out[op+k] = out[src+k]
			}
		}
		op += length
	}
	r.b, r.n, r.pos = b&(1<<n-1), uint(n), pos
	return op
}

// block decodes one Huffman-coded block body with the given tables: the
// fast loop wherever its margins hold, and this loop, one symbol at a time,
// for whatever it declines.
func (i *Inflater) block(dst []byte, start, end int, lit, dist huffTable) ([]byte, error) {
	r := &i.br
	for {
		dst = dst[:r.fast(dst[:cap(dst)], len(dst), start, end, lit, dist)]
		e := r.sym(lit)
		switch {
		case e&hLit != 0:
			if len(dst) >= end {
				return dst, ErrCorrupt
			}
			dst = append(dst, byte(e>>16))
			continue
		case e&hBase != 0:
		case e&hEOB != 0:
			return dst, nil
		default:
			// A miss or a truncated code (r.err says which), else a
			// reserved length symbol.
			r.fail(ErrCorrupt)
			return dst, r.err
		}
		length := int(e>>16) + int(r.take(entryExtra(e)))
		e = r.sym(dist)
		if e&hBase == 0 {
			r.fail(ErrCorrupt)
			return dst, r.err
		}
		distance := int(e>>16) + int(r.take(entryExtra(e)))
		if r.err != nil {
			return dst, r.err
		}
		if distance > len(dst)-start || length > end-len(dst) {
			return dst, ErrCorrupt
		}
		// Copy with pos fixed at the match start: each append extends the
		// periodic sequence, so the copyable span doubles per iteration
		// and overlapping (RLE-style) matches cost O(log length) appends.
		pos := len(dst) - distance
		for length > 0 {
			n := len(dst) - pos
			if n > length {
				n = length
			}
			dst = append(dst, dst[pos:pos+n]...)
			length -= n
		}
	}
}

// readDynamicHeader parses a §3.2.7 dynamic-Huffman header and rebuilds the
// Inflater's literal/length and distance tables in place.
func (i *Inflater) readDynamicHeader() error {
	r := &i.br
	hlit := int(r.take(5)) + 257
	hdist := int(r.take(5)) + 1
	hclen := int(r.take(4)) + 4
	if r.err != nil {
		return r.err
	}
	if hlit > 286 || hdist > 30 {
		return ErrCorrupt
	}
	var clens [numCodeLens]uint8
	for j := 0; j < hclen; j++ {
		clens[codeOrder[j]] = uint8(r.take(3))
	}
	if r.err != nil {
		return r.err
	}
	clenWidth, err := build(i.clen[:], clenBits, clens[:], clenProto[:])
	if err != nil {
		return err
	}
	clen := huffTable{i.clen[:], clenWidth}
	n := hlit + hdist
	for j := 0; j < n; {
		e := r.sym(clen)
		if e == 0 {
			return r.err
		}
		sym := e >> 16
		if sym < 16 {
			i.lens[j] = uint8(sym)
			j++
			continue
		}
		// 16 repeats the previous length 3–6 times; 17 and 18 write 3–10
		// and 11–138 zeros.
		var rep int
		var v uint8
		switch sym {
		case 16:
			if j == 0 {
				return ErrCorrupt
			}
			rep, v = int(r.take(2))+3, i.lens[j-1]
		case 17:
			rep = int(r.take(3)) + 3
		default:
			rep = int(r.take(7)) + 11
		}
		if r.err != nil {
			return r.err
		}
		if j+rep > n {
			return ErrCorrupt
		}
		for ; rep > 0; rep-- {
			i.lens[j] = v
			j++
		}
	}
	if i.litBits, err = build(i.lit[:], litBits, i.lens[:hlit], litProto[:]); err != nil {
		return err
	}
	if i.litBits == 0 {
		// A block with no literal/length codes cannot even terminate.
		return ErrCorrupt
	}
	i.distBits, err = build(i.dist[:], distBits, i.lens[hlit:n], distProto[:])
	return err
}
