package bufpool

import (
	"bytes"
	"compress/flate"
	"testing"
)

// FuzzDeflate is the encoder's contract over arbitrary input — page contents
// are the attacker's, and a stream the server cannot inflate loses the very
// versions the device exists to retain: the stream inflates to the input
// through compress/flate and through the in-house inflater under the exact
// bound the codec header would carry; nothing of dst below len(dst) is
// written, whether the stream fits the spare capacity or dst has to grow; and
// the stream is no larger than stdlib BestSpeed's plus 1 % plus 64 bytes.
//
//	go test -run xxx -fuzz FuzzDeflate -fuzztime 30s ./internal/bufpool
func FuzzDeflate(f *testing.F) {
	// The datapath's payloads, cut to a size the fuzzer mutates thousands of
	// times a second (the ciphertext keeps its second block);
	// testdata/fuzz/FuzzDeflate adds the shapes the edge tests build.
	for _, c := range deflateCases() {
		raw := c.raw
		if c.name != "ciphertext70k" {
			raw = raw[:min(len(raw), 20<<10)]
		}
		f.Add(raw, uint16(len(raw)/2))
	}
	f.Add(make([]byte, 9000), uint16(0))
	f.Add([]byte(nil), uint16(0))
	f.Add([]byte{0x42}, uint16(3))

	f.Fuzz(func(t *testing.T, raw []byte, spare uint16) {
		const prefix = 11
		backing := bytes.Repeat([]byte{0xa5}, prefix+int(spare))
		d := GetDeflater()
		out, err := d.Append(backing[:prefix], raw)
		d.Release()
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < prefix; j++ {
			if out[j] != 0xa5 || backing[j] != 0xa5 {
				t.Fatalf("spare %d: byte %d of dst written", spare, j)
			}
		}
		comp := out[prefix:]
		checkStream(t, comp, raw)
		if std := len(deflateWith(t, flate.BestSpeed, raw)); len(comp) > std+std/100+64 {
			t.Fatalf("%d bytes in, %d out, stdlib BestSpeed %d", len(raw), len(comp), std)
		}
	})
}
