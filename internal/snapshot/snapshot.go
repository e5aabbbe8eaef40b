// Package snapshot implements the versioned, self-describing binary
// encoding that deterministic checkpoint/restore is built on.
//
// The fabric's architectural state is small and explicit — channel ring
// buffers, in-flight wire tokens, register files, predicate bitmaps,
// program counters, PRNG positions — which is exactly what makes precise
// checkpointing tractable for a latency-insensitive spatial array. This
// package provides two layers:
//
//   - Encoder/Decoder: varint-based primitive serialization. The Decoder
//     carries a sticky error and is total: malformed or truncated input
//     yields an error from Err, never a panic and never an oversized
//     allocation (length prefixes are bounds-checked against the
//     remaining input before any allocation).
//
//   - the container (Encode/Decode): a framed snapshot file with a magic
//     string, a format version, the assembled-form fingerprint of the
//     program the state belongs to, the fabric cycle the state was
//     captured at, and a SHA-256 digest over everything. Decode verifies
//     the digest before handing out a single byte of body, so a flipped
//     bit anywhere in a snapshot is detected rather than restored.
//
// A snapshot can only be restored onto the identical program: the
// fingerprint in the header is checked against the fingerprint of the
// fabric being restored (see fabric.Restore).
package snapshot

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
)

// Magic identifies a snapshot container; the trailing byte doubles as a
// coarse format generation (bump it only for incompatible reframings).
const Magic = "TIASNAP\x01"

// Version is the current container format version; Encode always
// writes it. State layout changes bump it. Decoders accept every version
// from MinVersion up and reject the rest; Header.Version tells the
// restoring side which layout the body uses.
//
// Version 2 appends the fabric's quiescence idle streak to the body.
const Version = 2

// MinVersion is the oldest container format version Decode still
// accepts.
const MinVersion = 1

// ErrCorrupt wraps every container-level decode failure: bad magic,
// unknown version, truncated input, or digest mismatch.
var ErrCorrupt = errors.New("snapshot corrupt")

// Encoder serializes primitives into a growing buffer. The zero value is
// ready to use.
type Encoder struct {
	buf []byte
}

// U64 appends an unsigned varint.
func (e *Encoder) U64(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

// I64 appends a signed (zigzag) varint.
func (e *Encoder) I64(v int64) { e.buf = binary.AppendVarint(e.buf, v) }

// Int appends an int as a signed varint.
func (e *Encoder) Int(v int) { e.I64(int64(v)) }

// Bool appends a boolean as one byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// Bytes appends a length-prefixed byte string.
func (e *Encoder) Bytes(b []byte) {
	e.U64(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// String appends a length-prefixed string.
func (e *Encoder) String(s string) {
	e.U64(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// Data returns the encoded bytes. The slice aliases the encoder's
// buffer; further appends may reallocate but never mutate returned data.
func (e *Encoder) Data() []byte { return e.buf }

// Len returns the number of bytes encoded so far.
func (e *Encoder) Len() int { return len(e.buf) }

// Decoder reads primitives back. All methods are total: after the first
// failure the decoder is poisoned (Err reports it) and every subsequent
// read returns a zero value. Construct with NewDecoder.
type Decoder struct {
	data []byte
	off  int
	err  error
}

// NewDecoder wraps raw encoded bytes.
func NewDecoder(data []byte) *Decoder { return &Decoder{data: data} }

// Reset points the decoder at new bytes and clears its error, so a
// caller that decodes repeatedly (fabric.Reset) reuses one decoder
// instead of allocating one per decode.
func (d *Decoder) Reset(data []byte) { *d = Decoder{data: data} }

// Err returns the first decode failure, or nil.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.data) - d.off }

func (d *Decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("snapshot decode at offset %d: %s", d.off, fmt.Sprintf(format, args...))
	}
}

// U64 reads an unsigned varint.
func (d *Decoder) U64() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data[d.off:])
	if n <= 0 {
		d.fail("bad uvarint")
		return 0
	}
	d.off += n
	return v
}

// I64 reads a signed varint.
func (d *Decoder) I64() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.data[d.off:])
	if n <= 0 {
		d.fail("bad varint")
		return 0
	}
	d.off += n
	return v
}

// Int reads an int-sized signed varint.
func (d *Decoder) Int() int { return int(d.I64()) }

// Bool reads one byte as a boolean; any value other than 0 or 1 is an
// error (it would mean the stream is misframed).
func (d *Decoder) Bool() bool {
	if d.err != nil {
		return false
	}
	if d.off >= len(d.data) {
		d.fail("truncated bool")
		return false
	}
	b := d.data[d.off]
	d.off++
	if b > 1 {
		d.fail("bad bool byte %d", b)
		return false
	}
	return b == 1
}

// Bytes reads a length-prefixed byte string. The returned slice aliases
// the input. Lengths beyond the remaining input are an error before any
// slicing happens.
func (d *Decoder) Bytes() []byte {
	n := d.U64()
	if d.err != nil {
		return nil
	}
	if n > uint64(d.Remaining()) {
		d.fail("byte string length %d exceeds remaining %d", n, d.Remaining())
		return nil
	}
	b := d.data[d.off : d.off+int(n)]
	d.off += int(n)
	return b
}

// String reads a length-prefixed string.
func (d *Decoder) String() string { return string(d.Bytes()) }

// Count reads a collection length written with Int and bounds it by the
// remaining input (every element costs at least one encoded byte), so a
// corrupted length can never drive an oversized allocation.
func (d *Decoder) Count() int {
	n := d.I64()
	if d.err != nil {
		return 0
	}
	if n < 0 {
		d.fail("negative collection length %d", n)
		return 0
	}
	if n > int64(d.Remaining()) {
		d.fail("collection length %d exceeds remaining %d bytes", n, d.Remaining())
		return 0
	}
	return int(n)
}

// Header is the container's self-description.
type Header struct {
	// Version is the container format version (see Version).
	Version uint16
	// Fingerprint is the assembled-form fingerprint of the program whose
	// state the snapshot holds; restore refuses any other program.
	Fingerprint string
	// Cycle is the fabric cycle the state was captured at.
	Cycle int64
}

// Encode frames a header and body into a self-describing snapshot:
//
//	magic | version | fingerprint | cycle | body | sha256(all preceding)
//
// The digest covers the header fields too, so tampering with the
// fingerprint or cycle is as detectable as tampering with state.
func Encode(h Header, body []byte) []byte {
	e := &Encoder{buf: make([]byte, 0, len(Magic)+len(h.Fingerprint)+len(body)+64)}
	e.buf = append(e.buf, Magic...)
	e.U64(uint64(Version))
	e.String(h.Fingerprint)
	e.I64(h.Cycle)
	e.Bytes(body)
	sum := sha256.Sum256(e.buf)
	e.buf = append(e.buf, sum[:]...)
	return e.buf
}

// Decode verifies a container and returns its header and a decoder over
// the body. Every failure wraps ErrCorrupt; malformed input never
// panics (the fuzz harness holds it to that).
func Decode(data []byte) (Header, *Decoder, error) {
	h, body, err := verify(data)
	if err != nil {
		return h, nil, err
	}
	return h, NewDecoder(body), nil
}

// Verify runs the full container integrity check — magic, digest,
// version, framing — without exposing the body. It is the pre-check for
// code that relays snapshots it does not itself restore (the fleet
// coordinator's migration stash quarantines anything Verify rejects
// rather than shipping damage to a worker). Every failure wraps
// ErrCorrupt, exactly as Decode's would.
func Verify(data []byte) (Header, error) {
	h, _, err := verify(data)
	return h, err
}

// verify is the shared container check behind Decode and Verify: it
// validates magic and digest before touching a byte of payload, then
// parses the header and bounds the body.
func verify(data []byte) (Header, []byte, error) {
	var h Header
	if len(data) < len(Magic)+sha256.Size {
		return h, nil, fmt.Errorf("%w: %d bytes is shorter than any snapshot", ErrCorrupt, len(data))
	}
	if !bytes.Equal(data[:len(Magic)], []byte(Magic)) {
		return h, nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	framed, digest := data[:len(data)-sha256.Size], data[len(data)-sha256.Size:]
	sum := sha256.Sum256(framed)
	if !bytes.Equal(sum[:], digest) {
		return h, nil, fmt.Errorf("%w: state digest mismatch", ErrCorrupt)
	}
	d := NewDecoder(framed[len(Magic):])
	ver := d.U64()
	if d.err == nil && (ver < MinVersion || ver > Version) {
		return h, nil, fmt.Errorf("%w: unsupported version %d (want %d..%d)", ErrCorrupt, ver, MinVersion, Version)
	}
	h.Version = uint16(ver)
	h.Fingerprint = d.String()
	h.Cycle = d.I64()
	body := d.Bytes()
	if d.err != nil {
		return h, nil, fmt.Errorf("%w: %v", ErrCorrupt, d.err)
	}
	if d.Remaining() != 0 {
		return h, nil, fmt.Errorf("%w: %d trailing bytes after body", ErrCorrupt, d.Remaining())
	}
	return h, body, nil
}
