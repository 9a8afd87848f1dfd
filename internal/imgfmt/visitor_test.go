package imgfmt

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"reflect"
	"testing"
)

// kinds hands its layout one field of every kind a Visitor takes, a
// repeated group of sections and a section nested in a section.
type kinds struct {
	Name  string
	N     uint64
	I     int64
	On    bool
	F     float64
	Blob  []byte
	Fs    []float64
	Items []kindItem
	Inner string
	Last  uint64
}

type kindItem struct {
	ID   uint64
	Data []byte
}

func (k *kinds) layout(v Visitor) {
	k.Name = v.String(1, k.Name)
	k.N = v.Uint(2, k.N)
	k.I = v.Int(3, k.I)
	k.On = v.Bool(4, k.On)
	k.F = v.Float64(5, k.F)
	k.Blob = v.Bytes(6, k.Blob)
	k.Fs = v.Floats(7, k.Fs)
	k.Items = Each(v, 8, k.Items, func(e *kindItem, v Visitor, tag uint64) {
		v.Begin(tag)
		e.ID = v.Uint(1, e.ID)
		e.Data = v.Bytes(2, e.Data)
		v.End()
	})
	v.Begin(9)
	k.Inner = v.String(1, k.Inner)
	v.Begin(2)
	k.Last = v.Uint(1, k.Last)
	v.End()
	v.End()
}

// blobOf is the program-state blob whose fields are fields.
func blobOf(fields []byte) []byte {
	blob := append(appendUvarint([]byte(Magic), Version), fields...)
	return binary.LittleEndian.AppendUint32(blob, crc32.ChecksumIEEE(blob))
}

// recordOf is the record whose field stream is fields, cut into frames
// of chunk bytes.
func recordOf(t *testing.T, fields []byte, chunk int) []byte {
	var buf bytes.Buffer
	e := NewStreamEncoder(&buf)
	for off := 0; off < len(fields); off += chunk {
		e.emitFrame(fields[off:min(off+chunk, len(fields))])
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestBlobAndRecordReadAlike: one field stream read through one layout
// from memory (a blob) and from frames (a record, at chunk sizes down to
// one byte, where every field straddles a frame) gives the same values
// and the same error — intact, and cut short at every byte.
func TestBlobAndRecordReadAlike(t *testing.T) {
	want := kinds{
		Name: "pod-0", N: 1 << 40, I: -7, On: true, F: 2.75,
		Blob:  incompressible(1, 300),
		Fs:    []float64{1, -0.5, math.Inf(1)},
		Items: []kindItem{{1, []byte("a")}, {2, sparse(200)}, {ID: 3}},
		Inner: "inner", Last: 9,
	}
	blob := Blob(want.layout)
	fields := blob[len(Magic)+1 : len(blob)-4]
	if !bytes.Equal(blobOf(fields), blob) {
		t.Fatal("blobOf does not rebuild the blob")
	}
	for cut := 0; cut <= len(fields); cut++ {
		var fromBlob kinds
		berr := ReadBlob(blobOf(fields[:cut]), fromBlob.layout)
		if cut == len(fields) && (berr != nil || !reflect.DeepEqual(fromBlob, want)) {
			t.Fatalf("intact blob read back as %+v, %v", fromBlob, berr)
		}
		if cut < len(fields) && errClass(berr) != "truncated" {
			t.Fatalf("blob cut at %d: want truncation, got %v", cut, berr)
		}
		for _, chunk := range []int{1, 7, 64, DefaultChunk} {
			var fromRecord kinds
			d, err := NewStreamDecoder(bytes.NewReader(recordOf(t, fields[:cut], chunk)))
			if err == nil {
				err = ReadRecord(d, fromRecord.layout)
			}
			if errClass(err) != errClass(berr) || (err != nil && err.Error() != berr.Error()) {
				t.Fatalf("cut at %d, %d-byte frames: the record stopped on %v, the blob on %v", cut, chunk, err, berr)
			}
			if !reflect.DeepEqual(fromRecord, fromBlob) {
				t.Fatalf("cut at %d, %d-byte frames: the record read %+v, the blob %+v", cut, chunk, fromRecord, fromBlob)
			}
		}
	}
}
