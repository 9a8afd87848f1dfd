// Package imgfmt implements the portable intermediate checkpoint image
// format used by the ZapC reproduction.
//
// The paper stresses that checkpoint images record "higher-level semantic
// information specified in an intermediate format rather than kernel
// specific data in native format to keep the format portable across
// different kernels". This package is that format: a self-describing,
// stream-oriented tag-length-value encoding with nested sections.
// Nothing in the encoding depends on host endianness, word size, or
// in-memory layout.
//
// An image is a sequence of fields. Every field carries a caller-chosen
// numeric tag and a wire type. Sections group fields recursively, so a
// checkpoint image reads like a tree: pod -> processes -> memory regions,
// and so on. Readers are strict: a field out of order, of the wrong
// type, or that the reader's layout does not name is refused; the format
// evolves by its version number.
//
// Two things carry a field stream. A record — a pod image or a delta,
// what is stored, shipped and restarted from — is the field stream cut
// into CRC'd, individually compressed frames by StreamEncoder and read
// back by StreamDecoder (stream.go). Inside a record sit section bodies
// and the program-state blob of each process (Magic, Version and a
// CRC-32 trailer around its fields, carried as one opaque Bytes value):
// both are written by a StreamEncoder that buffers in memory (NewEncoder,
// NewSectionEncoder) and read by the Decoder of this file.
//
// Nothing outside this package and internal/ckpt drives an encoder or a
// decoder by hand: a resource declares a layout (visitor.go) and is
// written, sized and read through it.
package imgfmt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// Magic opens a pod-image record and a program-state blob.
const Magic = "ZAPCIMG"

// DeltaMagic opens a delta record: an incremental checkpoint whose
// generation N+1 encodes only state mutated since generation N. Delta
// records share the framing and field encoding of full images; only the
// magic differs, so a reader can never mistake a delta for a
// restartable full image.
const DeltaMagic = "ZAPCDLT"

// Version is the encoding version of a program-state blob, written after
// its Magic. (Records carry StreamVersion.)
const Version = 1

// Wire types for encoded fields.
const (
	TypeUint    = 1 // unsigned varint
	TypeInt     = 2 // zig-zag signed varint
	TypeBytes   = 3 // length-prefixed opaque bytes
	TypeString  = 4 // length-prefixed UTF-8
	TypeBool    = 5 // single byte 0/1
	TypeFloat64 = 6 // IEEE-754 bits, fixed 8 bytes little-endian
	TypeSection = 7 // length-prefixed nested field stream
)

// Common errors returned by the decoder.
var (
	ErrBadMagic     = errors.New("imgfmt: bad magic")
	ErrBadVersion   = errors.New("imgfmt: unsupported version")
	ErrBadChecksum  = errors.New("imgfmt: checksum mismatch")
	ErrTruncated    = errors.New("imgfmt: truncated input")
	ErrTypeMismatch = errors.New("imgfmt: field type mismatch")
	ErrTagMismatch  = errors.New("imgfmt: unexpected field tag")
	ErrEndOfSection = errors.New("imgfmt: end of section")
)

// NewEncoder returns an in-memory encoder for a program-state blob, with
// the blob header (Magic, Version) already written; Finish takes the
// blob.
func NewEncoder() *StreamEncoder {
	hdr := append(make([]byte, 0, 256), Magic...)
	return newBuffered(appendUvarint(hdr, Version))
}

// NewSectionEncoder returns an in-memory encoder producing a bare field
// stream with no header or trailer, taken with Body: a section body to
// be spliced into another stream via RawSection.
func NewSectionEncoder() *StreamEncoder {
	return newBuffered(make([]byte, 0, 64))
}

func appendUvarint(b []byte, v uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	return append(b, tmp[:n]...)
}

func appendSvarint(b []byte, v int64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutVarint(tmp[:], v)
	return append(b, tmp[:n]...)
}

// Decoder reads a field stream held in memory. Create decoders with
// NewDecoder (for a program-state blob) — section decoders are produced
// by Section. Decoders are not safe for concurrent use.
type Decoder struct {
	data []byte
	off  int
}

// NewDecoder validates the trailer and header of a program-state blob
// and returns a decoder positioned at the first field.
func NewDecoder(blob []byte) (*Decoder, error) {
	if len(blob) < len(Magic)+1+4 {
		return nil, ErrTruncated
	}
	body, trailer := blob[:len(blob)-4], blob[len(blob)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(trailer) {
		return nil, ErrBadChecksum
	}
	if string(body[:len(Magic)]) != Magic {
		return nil, ErrBadMagic
	}
	d := &Decoder{data: body, off: len(Magic)}
	v, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if v != Version {
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, v)
	}
	return d, nil
}

func (d *Decoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.data[d.off:])
	if n <= 0 {
		return 0, ErrTruncated
	}
	d.off += n
	return v, nil
}

func (d *Decoder) svarint() (int64, error) {
	v, n := binary.Varint(d.data[d.off:])
	if n <= 0 {
		return 0, ErrTruncated
	}
	d.off += n
	return v, nil
}

// More reports whether any fields remain in this decoder's stream.
func (d *Decoder) More() bool { return d.off < len(d.data) }

// Peek returns the tag and type of the next field without consuming it.
func (d *Decoder) Peek() (tag uint64, typ byte, err error) {
	if !d.More() {
		return 0, 0, ErrEndOfSection
	}
	save := d.off
	tag, err = d.uvarint()
	if err != nil {
		d.off = save
		return 0, 0, err
	}
	if d.off >= len(d.data) {
		d.off = save
		return 0, 0, ErrTruncated
	}
	typ = d.data[d.off]
	d.off = save
	return tag, typ, nil
}

func (d *Decoder) header(wantTag uint64, wantType byte) error {
	tag, err := d.uvarint()
	if err != nil {
		return err
	}
	if tag != wantTag {
		return fmt.Errorf("%w: got %d want %d", ErrTagMismatch, tag, wantTag)
	}
	if d.off >= len(d.data) {
		return ErrTruncated
	}
	typ := d.data[d.off]
	d.off++
	if typ != wantType {
		return fmt.Errorf("%w: tag %d got type %d want %d", ErrTypeMismatch, tag, typ, wantType)
	}
	return nil
}

// Uint reads an unsigned integer field with the given tag.
func (d *Decoder) Uint(tag uint64) (uint64, error) {
	if err := d.header(tag, TypeUint); err != nil {
		return 0, err
	}
	return d.uvarint()
}

// Int reads a signed integer field with the given tag.
func (d *Decoder) Int(tag uint64) (int64, error) {
	if err := d.header(tag, TypeInt); err != nil {
		return 0, err
	}
	return d.svarint()
}

func (d *Decoder) lengthPrefixed() ([]byte, error) {
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if uint64(len(d.data)-d.off) < n {
		return nil, ErrTruncated
	}
	v := d.data[d.off : d.off+int(n)]
	d.off += int(n)
	return v, nil
}

// Bytes reads an opaque byte-slice field with the given tag. The returned
// slice aliases the decoder's backing array; callers that retain it across
// further decoding must copy it.
func (d *Decoder) Bytes(tag uint64) ([]byte, error) {
	if err := d.header(tag, TypeBytes); err != nil {
		return nil, err
	}
	return d.lengthPrefixed()
}

// String reads a string field with the given tag.
func (d *Decoder) String(tag uint64) (string, error) {
	if err := d.header(tag, TypeString); err != nil {
		return "", err
	}
	b, err := d.lengthPrefixed()
	return string(b), err
}

// Bool reads a boolean field with the given tag.
func (d *Decoder) Bool(tag uint64) (bool, error) {
	if err := d.header(tag, TypeBool); err != nil {
		return false, err
	}
	if d.off >= len(d.data) {
		return false, ErrTruncated
	}
	v := d.data[d.off]
	d.off++
	return v != 0, nil
}

// Float64 reads an IEEE-754 double field with the given tag.
func (d *Decoder) Float64(tag uint64) (float64, error) {
	if err := d.header(tag, TypeFloat64); err != nil {
		return 0, err
	}
	if len(d.data)-d.off < 8 {
		return 0, ErrTruncated
	}
	bits := binary.LittleEndian.Uint64(d.data[d.off:])
	d.off += 8
	return math.Float64frombits(bits), nil
}

// Section reads a nested section field with the given tag and returns a
// decoder over its contents.
func (d *Decoder) Section(tag uint64) (Decoder, error) {
	if err := d.header(tag, TypeSection); err != nil {
		return Decoder{}, err
	}
	body, err := d.lengthPrefixed()
	return Decoder{data: body}, err
}
