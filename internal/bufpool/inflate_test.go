package bufpool

import (
	"bytes"
	"compress/flate"
	"io"
	"math/rand"
	"testing"
)

// The in-house inflate is cross-checked against compress/flate: everything
// any stdlib compression level emits must decode byte-identically, every
// truncation must error, and random corruption must never panic or diverge
// from stdlib's accept/reject verdict.

func deflateWith(t testing.TB, level int, payload []byte) []byte {
	t.Helper()
	var sink bytes.Buffer
	w, err := flate.NewWriter(&sink, level)
	if err != nil {
		t.Fatalf("NewWriter(%d): %v", level, err)
	}
	if _, err := w.Write(payload); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	return sink.Bytes()
}

func inflateAll(comp []byte) ([]byte, error) {
	i := GetInflater()
	defer i.Release()
	return i.Append(nil, comp)
}

// testPayloads covers the block shapes the codec meets in practice: empty
// and tiny streams, pure RLE (single-symbol distance tables), fixed- and
// dynamic-Huffman text, incompressible noise, and multi-block sizes.
func testPayloads(t testing.TB) map[string][]byte {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	noise := make([]byte, 192<<10)
	rng.Read(noise)
	mixed := make([]byte, 256<<10)
	for i := range mixed {
		if i%3 == 0 {
			mixed[i] = byte(rng.Intn(256))
		} else {
			mixed[i] = byte('a' + i%23)
		}
	}
	text := bytes.Repeat([]byte("the quick brown fox jumps over the lazy dog 0123456789 "), 2000)
	pagelike := make([]byte, 64<<10)
	for i := range pagelike {
		pagelike[i] = byte((i * 2654435761) >> 13)
	}
	return map[string][]byte{
		"empty":    nil,
		"one":      []byte{0x42},
		"short":    []byte("hello"),
		"rle":      bytes.Repeat([]byte{'a'}, 100_000),
		"period3":  bytes.Repeat([]byte("abc"), 40_000),
		"text":     text,
		"noise":    noise,
		"mixed":    mixed,
		"pagelike": pagelike,
		"allbytes": func() []byte {
			b := make([]byte, 4096)
			for i := range b {
				b[i] = byte(i)
			}
			return bytes.Repeat(b, 8)
		}(),
	}
}

func TestInflateMatchesStdlibAcrossLevels(t *testing.T) {
	levels := []int{flate.HuffmanOnly, flate.NoCompression, 1, 2, 5, 6, 9}
	for name, payload := range testPayloads(t) {
		for _, level := range levels {
			comp := deflateWith(t, level, payload)
			got, err := inflateAll(comp)
			if err != nil {
				t.Fatalf("%s/level %d: inflate: %v", name, level, err)
			}
			if !bytes.Equal(got, payload) {
				t.Fatalf("%s/level %d: roundtrip mismatch (%d vs %d bytes)", name, level, len(got), len(payload))
			}
		}
	}
}

// TestInflateAppendsAfterPrefix checks the stream-start fence: output lands
// after existing dst content, and back-references may not reach into it.
func TestInflateAppendsAfterPrefix(t *testing.T) {
	payload := bytes.Repeat([]byte("prefix fence "), 1000)
	comp := deflateWith(t, flate.BestSpeed, payload)
	prefix := []byte("unrelated header bytes")
	i := GetInflater()
	defer i.Release()
	dst := append([]byte(nil), prefix...)
	out, err := i.Append(dst, comp)
	if err != nil {
		t.Fatalf("inflate: %v", err)
	}
	if !bytes.Equal(out[:len(prefix)], prefix) {
		t.Fatal("prefix clobbered")
	}
	if !bytes.Equal(out[len(prefix):], payload) {
		t.Fatal("payload mismatch after prefix")
	}
}

// TestInflateSyncFlush covers the empty stored blocks a Flush injects
// mid-stream.
func TestInflateSyncFlush(t *testing.T) {
	var sink bytes.Buffer
	w, _ := flate.NewWriter(&sink, flate.BestSpeed)
	w.Write([]byte("first half "))
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	w.Write([]byte("second half"))
	w.Close()
	got, err := inflateAll(sink.Bytes())
	if err != nil {
		t.Fatalf("inflate: %v", err)
	}
	if string(got) != "first half second half" {
		t.Fatalf("got %q", got)
	}
}

func TestInflateTruncationAlwaysErrors(t *testing.T) {
	payloads := testPayloads(t)
	for _, name := range []string{"short", "rle", "text", "noise"} {
		for _, level := range []int{flate.NoCompression, flate.BestSpeed, 9} {
			comp := deflateWith(t, level, payloads[name])
			step := 1
			if len(comp) > 512 {
				step = len(comp) / 256
			}
			for cut := 0; cut < len(comp); cut += step {
				if _, err := inflateAll(comp[:cut]); err == nil {
					t.Fatalf("%s/level %d: prefix of %d/%d bytes decoded without error", name, level, cut, len(comp))
				}
			}
		}
	}
}

// TestInflateMutationDifferential flips random bits and demands verdict
// agreement with stdlib: both reject, or both accept with identical output.
func TestInflateMutationDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	payload := bytes.Repeat([]byte("mutation corpus: pages, chains, hashes. "), 400)
	for _, level := range []int{flate.NoCompression, flate.BestSpeed, 9} {
		comp := deflateWith(t, level, payload)
		for trial := 0; trial < 300; trial++ {
			mut := append([]byte(nil), comp...)
			mut[rng.Intn(len(mut))] ^= 1 << uint(rng.Intn(8))

			ref, refErr := io.ReadAll(flate.NewReader(bytes.NewReader(mut)))
			got, gotErr := inflateAll(mut)
			if (refErr == nil) != (gotErr == nil) {
				t.Fatalf("level %d trial %d: verdict divergence: stdlib err=%v, ours err=%v", level, trial, refErr, gotErr)
			}
			if refErr == nil && !bytes.Equal(ref, got) {
				t.Fatalf("level %d trial %d: both accepted but outputs differ (%d vs %d bytes)", level, trial, len(ref), len(got))
			}
		}
	}
}

func TestInflateRejectsReservedBlockType(t *testing.T) {
	// final=1, type=3 (reserved).
	if _, err := inflateAll([]byte{0x07}); err != ErrCorrupt {
		t.Fatalf("reserved block type: err=%v, want ErrCorrupt", err)
	}
}

func TestInflateStoredLenMismatch(t *testing.T) {
	// final=1, type=0, then LEN=5 with a bad NLEN.
	bad := []byte{0x01, 0x05, 0x00, 0x00, 0x00, 'a', 'b', 'c', 'd', 'e'}
	if _, err := inflateAll(bad); err != ErrCorrupt {
		t.Fatalf("stored LEN/~NLEN mismatch: err=%v, want ErrCorrupt", err)
	}
}

// TestInflateDynamicSteadyStateAllocs is the reason this decoder exists:
// realistic multi-kilobyte payloads compress to dynamic-Huffman blocks,
// which stdlib flate pays ~16 allocs/op to re-table. The in-house decoder
// must decode them for free.
func TestInflateDynamicSteadyStateAllocs(t *testing.T) {
	if RaceEnabled {
		t.Skip("race instrumentation allocates; alloc assertions run in the non-race job")
	}
	payloads := testPayloads(t)
	for _, name := range []string{"mixed", "pagelike", "text"} {
		payload := payloads[name]
		comp := deflateWith(t, flate.BestSpeed, payload)
		out := Get(len(payload) + 1024)
		if n := testing.AllocsPerRun(30, func() {
			i := GetInflater()
			var err error
			out.B, err = i.Append(out.B[:0], comp)
			i.Release()
			if err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s: Inflater.Append: %v allocs/op, want 0", name, n)
		}
		if !bytes.Equal(out.B, payload) {
			t.Fatalf("%s: roundtrip mismatch", name)
		}
		out.Release()
	}
}

// TestInflateFixedSteadyStateAllocs: the in-house encoder puts
// fixed-Huffman blocks between the stored runs of a segment of pages, and
// both loops decode them for free — the fast one with InflateSlack to spare,
// the careful one into a destination of exactly the decoded size.
func TestInflateFixedSteadyStateAllocs(t *testing.T) {
	if RaceEnabled {
		t.Skip("race instrumentation allocates; alloc assertions run in the non-race job")
	}
	raw := benchSegment(2, 4, 0.35)
	d := GetDeflater()
	comp, _ := d.Append(nil, raw)
	d.Release()
	fixed := 0
	for _, f := range blockForms(t, comp, len(raw)) {
		if f.typ == 1 {
			fixed++
		}
	}
	if fixed == 0 {
		t.Fatal("no fixed-Huffman block in the stream")
	}
	for _, spare := range []int{InflateSlack, 0} {
		out := make([]byte, 0, len(raw)+spare)
		i := GetInflater()
		n := testing.AllocsPerRun(30, func() {
			var err error
			if out, err = i.AppendLimited(out[:0], comp, len(raw)); err != nil {
				t.Fatal(err)
			}
		})
		i.Release()
		if n != 0 {
			t.Errorf("spare %d: %v allocs/op, want 0", spare, n)
		}
		if !bytes.Equal(out, raw) {
			t.Fatalf("spare %d: roundtrip mismatch", spare)
		}
	}
}
