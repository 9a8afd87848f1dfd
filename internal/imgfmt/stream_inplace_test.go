package imgfmt

// The bugs decoding into place invites: returned values aliasing each
// other or decoder scratch, short reads into the destination, a forged
// length allocating ahead of the data, and per-frame heap traffic
// creeping back. None of these tests depends on timing.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"reflect"
	"testing"
	"testing/iotest"
	"unsafe"

	"zapc/internal/allocs"
)

// span is the address range of a slice's whole backing capacity.
func span(b []byte) (lo, hi uintptr) {
	lo = uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return lo, lo + uintptr(cap(b))
}

func overlaps(a, b []byte) bool {
	alo, ahi := span(a)
	blo, bhi := span(b)
	return cap(a) > 0 && cap(b) > 0 && alo < bhi && blo < ahi
}

// TestDecodedValuesOwnTheirBytes: three large values out of one decoder
// share no backing array with each other, the window or the stored
// scratch, so scribbling on one changes neither the others nor a second
// decode.
func TestDecodedValuesOwnTheirBytes(t *testing.T) {
	want := [][]byte{sparse(3*DefaultChunk + 17), mixedBytes(7, 2*DefaultChunk), incompressible(8, DefaultChunk+1)}
	data := mixedRecord(t, StreamOpts{}, 0, want...)
	decode := func() (*StreamDecoder, [][]byte) {
		d := mustDecoder(t, bytes.NewReader(data))
		vals, err := drain(d, 0)
		if err != nil {
			t.Fatal(err)
		}
		return d, [][]byte{vals[2].([]byte), vals[5].([]byte), vals[8].([]byte)}
	}
	d, got := decode()
	for i, v := range got {
		if !bytes.Equal(v, want[i]) {
			t.Fatalf("value %d did not round-trip", i)
		}
		if overlaps(v, d.win) || overlaps(v, d.frames.stored) {
			t.Fatalf("value %d shares memory with decoder scratch", i)
		}
		for j := range got[:i] {
			if overlaps(v, got[j]) {
				t.Fatalf("values %d and %d share memory", j, i)
			}
		}
	}
	for i := range got[0] {
		got[0][i] ^= 0xff
	}
	if !bytes.Equal(got[1], want[1]) || !bytes.Equal(got[2], want[2]) {
		t.Fatal("mutating the first value changed another")
	}
	if _, again := decode(); !bytes.Equal(again[0], want[0]) {
		t.Fatal("mutating a decoded value changed a second decode")
	}
}

// sevenByteReader hands out at most seven bytes per Read.
type sevenByteReader struct{ r io.Reader }

func (s sevenByteReader) Read(p []byte) (int, error) { return s.r.Read(p[:min(len(p), 7)]) }

// TestDecodeToleratesShortReads: reading frame bodies straight into the
// destination must not assume a Read fills it.
func TestDecodeToleratesShortReads(t *testing.T) {
	values := [][]byte{mixedBytes(2, 3*DefaultChunk+17), incompressible(3, DefaultChunk+5)}
	data := mixedRecord(t, StreamOpts{}, 0, values...)
	want, err := drain(mustDecoder(t, bytes.NewReader(data)), 0)
	if err != nil {
		t.Fatal(err)
	}
	shapes := map[string]func(io.Reader) io.Reader{
		"one byte":  iotest.OneByteReader,
		"half":      iotest.HalfReader,
		"data+err":  iotest.DataErrReader,
		"seven":     func(r io.Reader) io.Reader { return sevenByteReader{r} },
		"half+data": func(r io.Reader) io.Reader { return iotest.HalfReader(iotest.DataErrReader(r)) },
	}
	for name, wrap := range shapes {
		got, err := drain(mustDecoder(t, wrap(bytes.NewReader(data))), 0)
		if err != nil {
			t.Fatalf("%s reader: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s reader: decoded fields differ", name)
		}
	}
}

func mustDecoder(t testing.TB, r io.Reader) *StreamDecoder {
	t.Helper()
	d, err := NewStreamDecoder(r)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// rawFrame hand-builds one RAW frame.
func rawFrame(payload []byte) []byte {
	f := append(appendUvarint(nil, uint64(len(payload))), FrameRaw)
	f = append(f, payload...)
	return binary.LittleEndian.AppendUint32(f, crc32.ChecksumIEEE(payload))
}

// TestForgedLengthAllocatesBounded: a field header declaring 1 GiB over
// one real frame fails with ErrTruncated having allocated the capped
// first destination, not the declared length.
func TestForgedLengthAllocatesBounded(t *testing.T) {
	field := append(appendUvarint(nil, 5), TypeBytes)
	field = appendUvarint(field, 1<<30)
	data := appendUvarint([]byte(Magic), StreamVersion)
	data = append(data, rawFrame(field)...)
	data = append(data, rawFrame(incompressible(1, DefaultChunk))...)
	var err error
	_, n := allocs.Measure(3, func() func() {
		return func() { _, err = mustDecoder(t, bytes.NewReader(data)).Bytes(5) }
	})
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("want ErrTruncated, got %v", err)
	}
	if n >= 6<<20 {
		t.Fatalf("a forged 1 GiB length over %d real bytes allocated %d bytes; want < 6 MiB", len(data), n)
	}
}

// TestLargeValueAllocationBudget: reading a 4 MiB value allocates the
// value plus O(1) small objects — not one or two per frame — and
// skipping it allocates a window's worth.
func TestLargeValueAllocationBudget(t *testing.T) {
	const size = 4 << 20
	for _, shape := range []struct {
		name  string
		value []byte
	}{{"lz4", sparse(size)}, {"raw", incompressible(4, size)}} {
		var buf bytes.Buffer
		e := NewStreamEncoder(&buf)
		e.Bytes(1, shape.value)
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		data := buf.Bytes()
		var got []byte
		var err error
		read := func() {
			d := mustDecoder(t, bytes.NewReader(data))
			if got, err = d.Bytes(1); err == nil {
				err = d.Finished()
			}
		}
		_, n := allocs.Measure(3, func() func() { return read })
		objs := testing.AllocsPerRun(5, read)
		if err != nil || !bytes.Equal(got, shape.value) {
			t.Fatalf("%s: value did not round-trip: %v", shape.name, err)
		}
		if n >= size+256<<10 || objs > 8 {
			t.Fatalf("%s: Bytes on a 4 MiB value (%d frames) allocated %d bytes in %.0f objects; want < 4 MiB + 256 KiB in <= 8",
				shape.name, size/DefaultChunk, n, objs)
		}
		skip := func() {
			d := mustDecoder(t, bytes.NewReader(data))
			if _, err = d.SkipBytes(1); err == nil {
				err = d.Finished()
			}
		}
		_, n = allocs.Measure(3, func() func() { return skip })
		objs = testing.AllocsPerRun(5, skip)
		if err != nil {
			t.Fatalf("%s: skip: %v", shape.name, err)
		}
		if n >= 256<<10 || objs > 8 {
			t.Fatalf("%s: SkipBytes over a 4 MiB value allocated %d bytes in %.0f objects; want < 256 KiB in <= 8", shape.name, n, objs)
		}
	}
}
