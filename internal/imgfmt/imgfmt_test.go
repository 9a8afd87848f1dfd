package imgfmt

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

func TestRoundTripScalars(t *testing.T) {
	e := NewEncoder()
	e.Uint(1, 42)
	e.Int(2, -7)
	e.String(3, "pod-a")
	e.Bytes(4, []byte{0, 1, 2, 255})
	e.Bool(5, true)
	e.Bool(6, false)
	e.Float64(7, 3.14159)
	img := e.Finish()

	d, err := NewDecoder(img)
	if err != nil {
		t.Fatalf("NewDecoder: %v", err)
	}
	if v, err := d.Uint(1); err != nil || v != 42 {
		t.Fatalf("Uint = %d, %v", v, err)
	}
	if v, err := d.Int(2); err != nil || v != -7 {
		t.Fatalf("Int = %d, %v", v, err)
	}
	if v, err := d.String(3); err != nil || v != "pod-a" {
		t.Fatalf("String = %q, %v", v, err)
	}
	if v, err := d.Bytes(4); err != nil || !bytes.Equal(v, []byte{0, 1, 2, 255}) {
		t.Fatalf("Bytes = %v, %v", v, err)
	}
	if v, err := d.Bool(5); err != nil || v != true {
		t.Fatalf("Bool(5) = %v, %v", v, err)
	}
	if v, err := d.Bool(6); err != nil || v != false {
		t.Fatalf("Bool(6) = %v, %v", v, err)
	}
	if v, err := d.Float64(7); err != nil || v != 3.14159 {
		t.Fatalf("Float64 = %v, %v", v, err)
	}
	if err := d.Finished(); err != nil {
		t.Fatalf("decoder should be exhausted: %v", err)
	}
}

func TestNestedSections(t *testing.T) {
	e := NewEncoder()
	e.Begin(10)
	e.Uint(1, 1)
	e.Begin(11)
	e.String(2, "inner")
	e.End()
	e.Uint(3, 3)
	e.End()
	e.Uint(20, 99)
	img := e.Finish()

	d, err := NewDecoder(img)
	if err != nil {
		t.Fatal(err)
	}
	sec, err := d.Section(10)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := sec.Uint(1); v != 1 {
		t.Fatalf("sec.Uint(1) = %d", v)
	}
	inner, err := sec.Section(11)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := inner.String(2); v != "inner" {
		t.Fatalf("inner = %q", v)
	}
	if v, _ := sec.Uint(3); v != 3 {
		t.Fatalf("sec.Uint(3) = %d", v)
	}
	if v, _ := d.Uint(20); v != 99 {
		t.Fatalf("outer Uint(20) = %d", v)
	}
}

func TestChecksumDetectsCorruption(t *testing.T) {
	e := NewEncoder()
	e.Uint(1, 12345)
	img := e.Finish()
	img[len(Magic)+2] ^= 0x40
	if _, err := NewDecoder(img); err != ErrBadChecksum {
		t.Fatalf("want ErrBadChecksum, got %v", err)
	}
}

func TestTruncatedImage(t *testing.T) {
	e := NewEncoder()
	e.Bytes(1, make([]byte, 100))
	img := e.Finish()
	if _, err := NewDecoder(img[:5]); err == nil {
		t.Fatal("want error for truncated image")
	}
}

func TestTagMismatch(t *testing.T) {
	e := NewEncoder()
	e.Uint(1, 5)
	img := e.Finish()
	d, _ := NewDecoder(img)
	if _, err := d.Uint(2); err == nil {
		t.Fatal("want tag mismatch error")
	}
}

func TestTypeMismatch(t *testing.T) {
	e := NewEncoder()
	e.Uint(1, 5)
	img := e.Finish()
	d, _ := NewDecoder(img)
	if _, err := d.String(1); err == nil {
		t.Fatal("want type mismatch error")
	}
}

func TestPeek(t *testing.T) {
	e := NewEncoder()
	e.String(7, "x")
	img := e.Finish()
	d, _ := NewDecoder(img)
	tag, typ, err := d.Peek()
	if err != nil || tag != 7 || typ != TypeString {
		t.Fatalf("Peek = %d, %d, %v", tag, typ, err)
	}
	// Peek must not consume.
	if v, err := d.String(7); err != nil || v != "x" {
		t.Fatalf("String after Peek = %q, %v", v, err)
	}
}

func TestPeekAtEnd(t *testing.T) {
	e := NewEncoder()
	img := e.Finish()
	d, _ := NewDecoder(img)
	if _, _, err := d.Peek(); err != ErrEndOfSection {
		t.Fatalf("want ErrEndOfSection, got %v", err)
	}
}

// Property: any sequence of (uint, int, string, bytes, float) tuples survives
// an encode/decode round trip bit-exactly.
func TestQuickRoundTrip(t *testing.T) {
	f := func(us []uint64, is []int64, ss []string, bs [][]byte, fs []float64) bool {
		e := NewEncoder()
		for _, v := range us {
			e.Uint(1, v)
		}
		for _, v := range is {
			e.Int(2, v)
		}
		for _, v := range ss {
			e.String(3, v)
		}
		for _, v := range bs {
			e.Bytes(4, v)
		}
		for _, v := range fs {
			e.Float64(5, v)
		}
		d, err := NewDecoder(e.Finish())
		if err != nil {
			return false
		}
		for _, v := range us {
			got, err := d.Uint(1)
			if err != nil || got != v {
				return false
			}
		}
		for _, v := range is {
			got, err := d.Int(2)
			if err != nil || got != v {
				return false
			}
		}
		for _, v := range ss {
			got, err := d.String(3)
			if err != nil || got != v {
				return false
			}
		}
		for _, v := range bs {
			got, err := d.Bytes(4)
			if err != nil || !bytes.Equal(got, v) {
				return false
			}
		}
		for _, v := range fs {
			got, err := d.Float64(5)
			if err != nil {
				return false
			}
			if got != v && !(math.IsNaN(got) && math.IsNaN(v)) {
				return false
			}
		}
		return d.Finished() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: random garbage never makes NewDecoder succeed with a valid
// checksum unless it actually is a valid image; and never panics.
func TestQuickGarbageNoPanics(t *testing.T) {
	f := func(b []byte) bool {
		d, err := NewDecoder(b)
		if err != nil {
			return true
		}
		// If it decoded, walking all fields must not panic.
		_, _ = drain(d, 0)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestDeepNesting(t *testing.T) {
	e := NewEncoder()
	const depth = 100
	for i := 0; i < depth; i++ {
		e.Begin(uint64(i + 1))
	}
	e.Uint(999, 7)
	for i := 0; i < depth; i++ {
		e.End()
	}
	d, err := NewDecoder(e.Finish())
	if err != nil {
		t.Fatal(err)
	}
	cur := *d
	for i := 0; i < depth; i++ {
		var err error
		cur, err = cur.Section(uint64(i + 1))
		if err != nil {
			t.Fatalf("depth %d: %v", i, err)
		}
	}
	if v, err := cur.Uint(999); err != nil || v != 7 {
		t.Fatalf("leaf = %d, %v", v, err)
	}
}
