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
// One grammar reads a field stream, StreamDecoder's (stream.go), over
// one of two byte sources. A record — a pod image or a delta, what is
// stored, shipped and restarted from — is the field stream cut into
// CRC'd, individually compressed frames by StreamEncoder; its decoder
// pulls them into a window one verified frame at a time. Inside a record
// sit section bodies and the program-state blob of each process (Magic,
// Version and a CRC-32 trailer around its fields, carried as one opaque
// Bytes value, written by the StreamEncoder NewEncoder returns, which
// buffers in memory). Their fields are already in memory: the same
// decoder reads them with the bytes as its window and no frames behind
// it, so it ends where they do.
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
// its Magic. (Records carry StreamVersion.) Version 1 blobs of cpi and bt
// still held the result field no restore read.
const Version = 2

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
	return &StreamEncoder{stack: [][]byte{appendUvarint(hdr, Version)}}
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

// NewDecoder validates the trailer and header of a program-state blob
// and returns a decoder positioned at the first field: the record
// decoder, with the blob's fields in its window and no frames behind
// them.
func NewDecoder(blob []byte) (*StreamDecoder, error) {
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
	d := inMemory(body[len(Magic):])
	v, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if v != Version {
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, v)
	}
	return &d, nil
}
