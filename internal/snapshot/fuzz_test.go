package snapshot

import (
	"bytes"
	"testing"
)

// FuzzDecode holds the snapshot decoder to its totality contract:
// arbitrary bytes either decode as a container or return an error —
// never a panic, and never an allocation driven by a lied-about length.
// When decode succeeds, the body decoder is additionally dragged through
// every primitive reader until it errors or runs dry, so the sticky
// error path is fuzzed too.
func FuzzDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(Magic))
	var body Encoder
	body.String("pe[0][0]")
	body.U64(42)
	body.I64(-7)
	body.Bool(true)
	valid := Encode(Header{Fingerprint: "fp-fuzz", Cycle: 123}, body.Data())
	f.Add(valid)
	f.Add(valid[:len(valid)-5])
	mangled := append([]byte(nil), valid...)
	mangled[len(Magic)+3] ^= 0x40
	f.Add(mangled)

	f.Fuzz(func(t *testing.T, data []byte) {
		h, d, err := Decode(data)
		if err != nil {
			if d != nil {
				t.Fatalf("error %v but non-nil decoder", err)
			}
			return
		}
		if h.Version < MinVersion || h.Version > Version {
			t.Fatalf("accepted unknown version %d", h.Version)
		}
		// Exhaust the body through a rotation of readers; the decoder
		// must terminate (every successful read consumes >= 1 byte, and
		// errors are sticky).
		for i := 0; d.Err() == nil && d.Remaining() > 0; i++ {
			switch i % 5 {
			case 0:
				d.U64()
			case 1:
				d.I64()
			case 2:
				d.Bool()
			case 3:
				d.Bytes()
			case 4:
				_ = d.String()
			}
		}
	})
}

// FuzzRoundTrip checks that whatever the container encodes, it decodes
// back verbatim.
func FuzzRoundTrip(f *testing.F) {
	f.Add("fp", int64(0), []byte(nil))
	f.Add("", int64(-1), []byte{1, 2, 3})
	f.Add("kernel/gcd@deadbeef", int64(1<<40), bytes.Repeat([]byte{0xaa}, 300))
	f.Fuzz(func(t *testing.T, fp string, cycle int64, body []byte) {
		enc := Encode(Header{Fingerprint: fp, Cycle: cycle}, body)
		h, d, err := Decode(enc)
		if err != nil {
			t.Fatalf("round trip decode: %v", err)
		}
		if h.Fingerprint != fp || h.Cycle != cycle {
			t.Fatalf("header mismatch: %+v", h)
		}
		got := d.data
		if !bytes.Equal(got, body) {
			t.Fatalf("body mismatch: %x vs %x", got, body)
		}
	})
}
