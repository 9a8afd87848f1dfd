// One layout per resource. Whatever a checkpoint saves — a record, the
// network image and each socket in it, a communicator, a program's
// state — declares its fields once, as a layout: a function that hands
// every field, in wire order, to a Visitor as its tag and current value
// and keeps what the Visitor hands back. A writing Visitor encodes the
// value and returns it; a reading one returns what it decoded. A layout
// cannot tell which it is driving, so encoding, count-only sizing and
// strict decoding are one function: a field added to it is written,
// counted and read by construction.
package imgfmt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ErrBadValue reports a field that decoded to a value its layout refuses.
var ErrBadValue = errors.New("imgfmt: field value out of range")

// Visitor is handed every field of a resource by the resource's layout.
// Values go in and come out by value, so a layout may pass a converted
// field (a uint16 port as a uint64) and no temporary escapes to the heap.
type Visitor interface {
	Uint(tag uint64, v uint64) uint64
	Int(tag uint64, v int64) int64
	Bool(tag uint64, v bool) bool
	Float64(tag uint64, v float64) float64
	String(tag uint64, v string) string
	Bytes(tag uint64, v []byte) []byte
	// Floats is a Bytes field of consecutive little-endian IEEE-754 doubles.
	Floats(tag uint64, v []float64) []float64
	// Begin and End bracket the fields of a nested section.
	Begin(tag uint64)
	End()
	// More reports whether a repeated group whose elements start with a
	// field tagged tag has another element: more itself when writing;
	// when reading, whether the next field carries tag.
	More(tag uint64, more bool) bool
	// Check refuses what was read unless ok, with an ErrBadValue naming
	// what, which sticks like a decode error. A layout calls it before it
	// sizes or indexes anything by a value it visited. A writing visitor,
	// whose values are the program's own, takes no notice.
	Check(ok bool, what string)
}

// Uint visits an unsigned field held in any integer type.
func Uint[T ~int | ~uint | ~uint16 | ~uint32 | ~uint64](v Visitor, tag uint64, x T) T {
	return T(v.Uint(tag, uint64(x)))
}

// Int visits a signed field held in any signed integer type.
func Int[T ~int | ~int64](v Visitor, tag uint64, x T) T {
	return T(v.Int(tag, int64(x)))
}

// Each visits a repeated group led by tag and returns the list: the
// elements of s when writing; when reading, one appended element for as
// long as the next field carries tag — so a list grows only as bytes
// arrive to fill it, whatever count a field elsewhere claims. A new list
// read out of memory (a section body or a blob) whose elements are
// sections is made once, at the length of the run of them the body holds,
// instead of regrown element by element.
func Each[T any](v Visitor, tag uint64, s []T, elem func(e *T, v Visitor, tag uint64)) []T {
	if r, ok := v.(interface{ run(tag uint64) int }); ok && cap(s) == 0 {
		if n := r.run(tag); n > 0 {
			s = make([]T, 0, n)
		}
	}
	for i := 0; v.More(tag, i < len(s)); i++ {
		if i == len(s) {
			s = append(s, *new(T))
		}
		elem(&s[i], v, tag)
	}
	return s
}

// Section visits a resource held by pointer as the section tagged tag of
// its owner's layout. The owner of a resource being read holds none yet
// and is handed a new one.
func Section[T any, P interface {
	*T
	Layout(Visitor)
}](v Visitor, tag uint64, p P) P {
	if p == nil {
		p = new(T)
	}
	v.Begin(tag)
	p.Layout(v)
	v.End()
	return p
}

// writer is the writing visitor: every field goes to a StreamEncoder — a
// record stream, a count-only one, or the buffer of a blob or section.
type writer struct{ s *StreamEncoder }

// Writer returns the visitor that writes every field it is handed to s.
func Writer(s *StreamEncoder) Visitor { return writer{s} }

func (w writer) Uint(tag, v uint64) uint64             { w.s.Uint(tag, v); return v }
func (w writer) Int(tag uint64, v int64) int64         { w.s.Int(tag, v); return v }
func (w writer) Bool(tag uint64, v bool) bool          { w.s.Bool(tag, v); return v }
func (w writer) Float64(tag uint64, v float64) float64 { w.s.Float64(tag, v); return v }
func (w writer) String(tag uint64, v string) string    { w.s.String(tag, v); return v }
func (w writer) Bytes(tag uint64, v []byte) []byte     { w.s.Bytes(tag, v); return v }
func (w writer) Begin(tag uint64)                      { w.s.Begin(tag) }
func (w writer) End()                                  { w.s.End() }
func (w writer) More(_ uint64, more bool) bool         { return more }
func (w writer) Check(bool, string)                    {}
func (w writer) Floats(tag uint64, v []float64) []float64 {
	b := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
	}
	w.s.Bytes(tag, b)
	return v
}

// Blob encodes a layout as a program-state blob: Magic, Version, the
// fields, and a CRC-32 trailer.
func Blob(layout func(Visitor)) []byte {
	s := NewEncoder()
	layout(writer{s})
	return s.Finish()
}

// reader is the reading visitor. It is strict: fields must arrive in
// layout order, a repeated group ends only at a different tag or the end
// of its section, and a section, blob or record holding a field its
// layout does not name is refused — the format evolves by its version
// number, not by skipping what a reader does not know. The first error
// sticks: every later visit hands back the value it was given and More
// reports false, so the layout runs out without reading further.
type reader struct {
	base *StreamDecoder  // the record stream, or the blob
	secs []StreamDecoder // the open sections, innermost last
	err  error
}

// src is what the next field comes from. Open sections are held by
// value in one slice, so opening one allocates nothing.
func (r *reader) src() *StreamDecoder {
	if n := len(r.secs); n > 0 {
		return &r.secs[n-1]
	}
	return r.base
}

// get reads one field with read, unless an error has stuck.
func get[T any](r *reader, tag uint64, v T, read func(*StreamDecoder, uint64) (T, error)) T {
	if r.err == nil {
		v, r.err = read(r.src(), tag)
	}
	return v
}

func (r *reader) Uint(tag, v uint64) uint64     { return get(r, tag, v, (*StreamDecoder).Uint) }
func (r *reader) Int(tag uint64, v int64) int64 { return get(r, tag, v, (*StreamDecoder).Int) }
func (r *reader) Bool(tag uint64, v bool) bool  { return get(r, tag, v, (*StreamDecoder).Bool) }
func (r *reader) Float64(tag uint64, v float64) float64 {
	return get(r, tag, v, (*StreamDecoder).Float64)
}
func (r *reader) String(tag uint64, v string) string { return get(r, tag, v, (*StreamDecoder).String) }
func (r *reader) Bytes(tag uint64, v []byte) []byte  { return get(r, tag, v, (*StreamDecoder).Bytes) }

func (r *reader) Floats(tag uint64, v []float64) []float64 {
	if r.err != nil {
		return v
	}
	var b []byte // converted before the next read, so read where it lies
	if b, r.err = r.src().bytes(tag, false); r.err == nil && len(b)%8 != 0 {
		r.err = fmt.Errorf("%w: %d bytes of float64s", ErrTruncated, len(b))
	}
	v = make([]float64, len(b)/8)
	for i := range v {
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return v
}

func (r *reader) Begin(tag uint64) {
	if r.err == nil {
		var sec StreamDecoder
		if sec, r.err = r.src().Section(tag); r.err == nil {
			r.secs = append(r.secs, sec)
		}
	}
}

func (r *reader) End() {
	if r.err = r.used(); r.err == nil {
		r.secs = r.secs[:len(r.secs)-1]
	}
}

// next peeks the tag of the next field; ok is false at the end of the
// current source, and after an error.
func (r *reader) next() (tag uint64, ok bool) {
	if r.err != nil {
		return 0, false
	}
	tag, _, err := r.src().Peek()
	if errors.Is(err, ErrEndOfSection) {
		return 0, false
	}
	r.err = err
	return tag, err == nil
}

func (r *reader) More(tag uint64, _ bool) bool {
	next, ok := r.next()
	return ok && next == tag
}

// run counts the sections tagged tag that follow one another at the head
// of the current source, when that is in memory, by reading a copy of it
// ahead; it reads nothing of a record's frames and reports 0 there. Each
// sizes a list by it: a capacity, so a run that does not decode costs at
// most one element per section whose bytes are already held.
func (r *reader) run(tag uint64) int {
	if r.err != nil || r.src().frames != nil {
		return 0
	}
	ahead, n := *r.src(), 0
	for {
		if next, typ, err := ahead.Peek(); err != nil || next != tag || typ != TypeSection {
			return n
		}
		if _, err := ahead.Section(tag); err != nil {
			return n
		}
		n++
	}
}

// used refuses a field left in the current source: one the layout does
// not name.
func (r *reader) used() error {
	if tag, ok := r.next(); ok {
		r.err = fmt.Errorf("%w: field %d, which the layout does not name", ErrTagMismatch, tag)
	}
	return r.err
}

func (r *reader) Check(ok bool, what string) {
	if r.err == nil && !ok {
		r.err = fmt.Errorf("%w: %s", ErrBadValue, what)
	}
}

// read walks layout over d, which the layout must use up.
func read(d *StreamDecoder, layout func(Visitor)) error {
	r := &reader{base: d, secs: make([]StreamDecoder, 0, 4)}
	layout(r)
	return r.used()
}

// ReadRecord reads the rest of the record d has opened through layout,
// pulling one verified frame at a time, up to the terminator and its
// whole-stream CRC. A walk that gets there hands d's buffers to the next
// record decoder.
func ReadRecord(d *StreamDecoder, layout func(Visitor)) error {
	err := read(d, layout)
	if err == nil {
		d.handBack()
	}
	return err
}

// verifier is the checking visitor: a reader that keeps no bulk value. It
// reads scalars, strings and sections exactly as reader does — so every
// tag, type, order and length is held to the same layout, and a record's
// frames are pulled and CRC-checked in the same order up to the same
// trailer — but a Bytes value is skipped where it lies and the value the
// layout passed in is handed back. A layout therefore may Check what it
// read as a scalar, never the content of a Bytes field.
type verifier struct{ reader }

func (r *verifier) Bytes(tag uint64, v []byte) []byte {
	if r.err == nil {
		_, r.err = r.src().SkipBytes(tag)
	}
	return v
}

func (r *verifier) Floats(tag uint64, v []float64) []float64 {
	if r.err == nil {
		var n int
		if n, r.err = r.src().SkipBytes(tag); r.err == nil && n%8 != 0 {
			r.err = fmt.Errorf("%w: %d bytes of float64s", ErrTruncated, n)
		}
	}
	return v
}

// VerifyRecord is ReadRecord keeping nothing: it walks layout over the
// rest of the record d has opened and refuses exactly what ReadRecord
// refuses, with the same error at the same frame, but no Bytes value —
// region, program state, socket buffer — is copied or allocated. What
// the layout's owner holds afterwards is the record's metadata: scalars,
// names, list shapes.
func VerifyRecord(d *StreamDecoder, layout func(Visitor)) error {
	r := &verifier{reader{base: d, secs: make([]StreamDecoder, 0, 4)}}
	layout(r)
	err := r.used()
	if err == nil {
		d.handBack()
	}
	return err
}

// ReadBlob checks a program-state blob's trailer and header and reads
// its fields through layout.
func ReadBlob(blob []byte, layout func(Visitor)) error {
	d, err := NewDecoder(blob)
	if err != nil {
		return err
	}
	return read(d, layout)
}
