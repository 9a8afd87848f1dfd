package imgfmt

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"testing"
)

// mixed is what mixedRecord writes, as a resource with a layout: the
// verifying walk is compared with the reading walk over the same bytes.
type mixed struct {
	Pod     string
	VIP     uint64
	Values  [][]byte // the large values
	Ints    []int64
	Between [][]byte
	Flag    bool
	Body    string
	F       float64
	Last    bool
}

func (m *mixed) layout(v Visitor) {
	m.Pod = v.String(1, m.Pod)
	m.VIP = v.Uint(2, m.VIP)
	for i := 0; ; i++ {
		if !v.More(uint64(10+i), i < len(m.Values)) {
			break
		}
		if i == len(m.Values) {
			m.Values, m.Ints, m.Between = append(m.Values, nil), append(m.Ints, 0), append(m.Between, nil)
		}
		m.Values[i] = v.Bytes(uint64(10+i), m.Values[i])
		m.Ints[i] = v.Int(3, m.Ints[i])
		m.Between[i] = v.Bytes(4, m.Between[i])
	}
	v.Begin(5)
	m.Flag = v.Bool(1, m.Flag)
	m.Body = v.String(2, m.Body)
	v.End()
	m.F = v.Float64(6, m.F)
	m.Last = v.Bool(7, m.Last)
}

// checkVerifyMatchesRead walks data with the reading and the verifying
// visitor and demands the same outcome: the same error — same class, same
// message — reached at the same frame with the stream in the same state,
// and on accept the same scalars, names and list shapes, with no Bytes
// value kept by the verifier.
func checkVerifyMatchesRead(t testing.TB, name string, data []byte) {
	t.Helper()
	rd, rerr := NewStreamDecoder(bytes.NewReader(data))
	vd, verr := NewStreamDecoder(bytes.NewReader(data))
	var read, verified mixed
	if rerr == nil && verr == nil {
		rerr = ReadRecord(rd, read.layout)
		verr = VerifyRecord(vd, verified.layout)
		if rf, vf := rd.frames, vd.frames; rf.frame != vf.frame || rf.fin != vf.fin {
			t.Fatalf("%s: reader stopped at frame %d (fin %v), verifier at frame %d (fin %v)",
				name, rf.frame, rf.fin, vf.frame, vf.fin)
		}
	}
	if errClass(verr) != errClass(rerr) || (verr != nil && verr.Error() != rerr.Error()) {
		t.Fatalf("%s: verifier stopped on %v, reader on %v", name, verr, rerr)
	}
	if rerr != nil {
		return
	}
	for i := range verified.Values {
		if verified.Values[i] != nil || verified.Between[i] != nil {
			t.Fatalf("%s: the verifier kept Bytes value %d", name, i)
		}
	}
	if len(read.Values) != len(verified.Values) {
		t.Fatalf("%s: reader saw %d values, verifier %d", name, len(read.Values), len(verified.Values))
	}
	read.Values, read.Between, verified.Values, verified.Between = nil, nil, nil, nil
	if !reflect.DeepEqual(read, verified) {
		t.Fatalf("%s: reader left %+v, verifier %+v", name, read, verified)
	}
}

// TestVerifyMatchesRead: the verifying visitor refuses exactly what the
// reading visitor refuses. Values of every interesting length against the
// frame size in every frame style are accepted by both, and every
// truncation point and single-byte corruption of the short records —
// TestCorruptDecodeMatchesReference's sweep — ends both walks on the same
// error at the same frame.
func TestVerifyMatchesRead(t *testing.T) {
	const frame = DefaultChunk
	for _, n := range []int{0, 1, frame - 1, frame, frame + 1, 3*frame + 17, 5 << 20} {
		for name, v := range map[string][]byte{"zero": make([]byte, n), "random": incompressible(3, n), "mixed": mixedBytes(4, n)} {
			checkVerifyMatchesRead(t, fmt.Sprintf("%s/%d", name, n), mixedRecord(t, StreamOpts{}, 0, v))
		}
		checkVerifyMatchesRead(t, fmt.Sprintf("all-raw/%d", n), mixedRecord(t, StreamOpts{NoCompress: true}, 0, sparse(n)))
	}
	for _, rec := range shortRecords(t) {
		name, data := rec.name, rec.data
		checkVerifyMatchesRead(t, name, data)
		for cut := 0; cut < len(data); cut++ {
			checkVerifyMatchesRead(t, fmt.Sprintf("%s cut at %d", name, cut), data[:cut])
		}
		mut := make([]byte, len(data))
		for pos := range data {
			for _, xor := range []byte{0x01, 0x80, 0xff} {
				copy(mut, data)
				mut[pos] ^= xor
				checkVerifyMatchesRead(t, fmt.Sprintf("%s byte %d ^ %#x", name, pos, xor), mut)
			}
		}
	}
}

// TestVerifyAllocatesNoValue: verifying a record allocates nothing that
// grows with its values — the decoder's window and scratch, about two
// frames, whatever the value's size.
func TestVerifyAllocatesNoValue(t *testing.T) {
	const size = 8 << 20
	data := mixedRecord(t, StreamOpts{}, 0, mixedBytes(7, size))
	var m mixed
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d, err := NewStreamDecoder(bytes.NewReader(data))
	if err == nil {
		err = VerifyRecord(d, m.layout)
	}
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 4*DefaultChunk {
		t.Fatalf("verifying an %d-byte value allocated %d bytes, want under %d", size, got, 4*DefaultChunk)
	}
}
