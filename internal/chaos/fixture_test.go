package chaos

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// corpusFixture returns the bytes of one committed fixture.
func corpusFixture(t testing.TB) []byte {
	paths, err := filepath.Glob("../../testdata/chaos/*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no corpus fixture to start from: %v", err)
	}
	data, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// trailers are what a strict decoder must refuse after a whole value.
var trailers = []string{"garbage", "]", `{"schema": 7}`}

// TestDecodeFixtureRejectsTrailingBytes: a fixture is one JSON value.
// Whitespace may follow it; anything else, a second value included, is
// refused instead of ignored.
func TestDecodeFixtureRejectsTrailingBytes(t *testing.T) {
	data := corpusFixture(t)
	if _, err := DecodeFixture(append(bytes.Clone(data), " \t\r\n"...)); err != nil {
		t.Fatalf("trailing whitespace refused: %v", err)
	}
	for _, tail := range trailers {
		_, err := DecodeFixture(append(bytes.Clone(data), tail...))
		if err == nil || !strings.Contains(err.Error(), "after the JSON value") {
			t.Errorf("fixture + %q: err = %v, want the trailing bytes refused", tail, err)
		}
	}
}

// FuzzDecodeFixture: any bytes end in an error, or in a fixture whose
// encoding decodes back to a fixture with the same encoding.
func FuzzDecodeFixture(f *testing.F) {
	paths, _ := filepath.Glob("../../testdata/chaos/*.json")
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	data := corpusFixture(f)
	for _, tail := range trailers {
		f.Add(append(bytes.Clone(data), tail...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fx, err := DecodeFixture(data)
		if err != nil {
			return
		}
		enc, err := EncodeFixture(fx)
		if err != nil {
			t.Fatalf("decoded fixture does not encode: %v", err)
		}
		back, err := DecodeFixture(enc)
		if err != nil {
			t.Fatalf("encoding does not decode: %v\n%s", err, enc)
		}
		again, err := EncodeFixture(back)
		if err != nil || !bytes.Equal(enc, again) {
			t.Fatalf("re-encoding is not a fixed point (%v):\n%s\n%s", err, enc, again)
		}
	})
}
