package imgfmt

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"testing"
	"unsafe"
)

// spareInput is one record's worth of fields that puts every buffer the
// spare carries to work: sections three deep, section bodies larger than
// the staging buffer's first size, a bulk value framed LZ4 and RAW out of
// the caller's slice, and a top-level tail left staged for Close's last
// frame. The seed picks the bytes and nothing else, so two inputs make
// records of one shape.
type spareInput struct {
	id    uint64
	small []byte
	bulk  []byte
}

func newSpareInput(seed int64) spareInput {
	return spareInput{id: uint64(seed), small: incompressible(seed, 3<<10), bulk: mixedBytes(seed, 3*DefaultChunk+100)}
}

// encode writes the fields into e, calling inside (when not nil) with
// three sections open.
func (in spareInput) encode(e *StreamEncoder, inside func()) {
	e.Uint(1, in.id)
	for i := 0; i < 4; i++ {
		e.Begin(2)
		e.Uint(1, uint64(i))
		e.Begin(3)
		e.Bytes(1, in.small[:(i+1)*len(in.small)/4])
		e.Begin(4)
		e.Int(1, -int64(i))
		if i == 2 && inside != nil {
			inside()
		}
		e.End()
		e.End()
		e.End()
	}
	e.Bytes(5, in.bulk)
	e.Bytes(6, in.small)
}

// record encodes in as a record, with the spare as it stands.
func (in spareInput) record() []byte {
	var buf bytes.Buffer
	e := NewStreamEncoder(&buf)
	in.encode(e, nil)
	if err := e.Close(); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// blob encodes part of in as a program-state blob, small enough to fit
// in the staging buffer a record encoder leaves behind.
func (in spareInput) blob() []byte {
	e := NewEncoder()
	e.Uint(1, in.id)
	e.Bytes(2, in.small)
	return e.Finish()
}

// fresh encodes in with the spare empty, as the first record of a process
// is: the bytes every later encode of in must reproduce.
func (in spareInput) fresh() []byte {
	emptySpare()
	return in.record()
}

func emptySpare() {
	spare.Lock()
	spare.scratch, spare.stack = nil, nil
	spare.Unlock()
}

func sameBytes(t *testing.T, what string, got, want []byte) {
	t.Helper()
	if !bytes.Equal(got, want) {
		t.Errorf("%s: %d bytes differ from the %d a fresh encode writes", what, len(got), len(want))
	}
}

// TestSecondRecordAllocatesNoBuffer: a record encoder takes the section
// buffers and the compress scratch the last one left on Close, so a
// second record of the same shape allocates the encoder and nothing
// else — no staging buffer, section buffer or scratch, counted in
// objects and in bytes. Counts allocations, not time.
func TestSecondRecordAllocatesNoBuffer(t *testing.T) {
	in := newSpareInput(1)
	encode := func() {
		e := NewStreamEncoder(io.Discard)
		in.encode(e, nil)
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	}
	emptySpare()
	first := allocated(encode)
	if first < uint64(compressBound(DefaultChunk)) {
		t.Fatalf("the first encode allocated only %d bytes: the record does not use the compress scratch", first)
	}
	const runs = 10
	again := allocated(func() {
		for i := 0; i < runs; i++ {
			encode()
		}
	}) / runs
	// The smallest buffer an encoder makes is a 64-byte section body.
	if limit := uint64(unsafe.Sizeof(StreamEncoder{})) + 64; again >= limit {
		t.Errorf("a repeat encode allocated %d bytes (the first %d), want under %d: the encoder alone", again, first, limit)
	}
	if objs := testing.AllocsPerRun(10, encode); objs != 1 {
		t.Errorf("a repeat encode allocated %.0f objects, want 1: the encoder alone", objs)
	}
}

// TestSpareLeavesBlobsAndRecordsAlone: nothing a caller keeps is a
// buffer the spare hands out again. A blob's bytes are its encoder's
// staging buffer, which never goes to the spare, and a record's bytes
// are what its writer copied; both stay as they were while later records
// encode through the reused buffers.
func TestSpareLeavesBlobsAndRecordsAlone(t *testing.T) {
	a, b := newSpareInput(2), newSpareInput(3)
	wantBlob := a.blob()
	wantA, wantB := a.fresh(), b.fresh()
	rec := a.record()
	blob := a.blob() // made while the slot holds rec's encoder's buffers
	for i := 0; i < 3; i++ {
		sameBytes(t, fmt.Sprintf("record %d after them", i), b.record(), wantB)
	}
	sameBytes(t, "the blob made before those records", blob, wantBlob)
	sameBytes(t, "the record encoded before them", rec, wantA)
}

// TestSpareSurvivesMisuse: an encoder that is never closed, one closed
// twice and one opened while another is open each leave every record
// around them byte-identical to a fresh encode. An open encoder's
// buffers are never handed to a second one, so neither writes over
// bytes the other has staged.
func TestSpareSurvivesMisuse(t *testing.T) {
	a, b, c := newSpareInput(4), newSpareInput(5), newSpareInput(6)
	wantA, wantB, wantC := a.fresh(), b.fresh(), c.fresh()
	closeOK := func(e *StreamEncoder) {
		t.Helper()
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("abandoned", func(t *testing.T) {
		e := NewStreamEncoder(io.Discard)
		a.encode(e, nil)
		e.Begin(7)
		e.String(1, "never closed")
		sameBytes(t, "the next record", b.record(), wantB)
		sameBytes(t, "the one after", c.record(), wantC)
	})

	t.Run("closed twice", func(t *testing.T) {
		var bufA, bufB, bufC bytes.Buffer
		ea := NewStreamEncoder(&bufA)
		a.encode(ea, nil)
		closeOK(ea)
		eb := NewStreamEncoder(&bufB) // takes ea's buffers
		closeOK(ea)                   // returns at once: the slot stays empty
		ec := NewStreamEncoder(&bufC) // so this one makes its own
		b.encode(eb, nil)
		c.encode(ec, nil) // would overwrite eb's staged tail if they shared
		closeOK(ec)
		closeOK(eb)
		sameBytes(t, "the record closed twice", bufA.Bytes(), wantA)
		sameBytes(t, "the record opened after the first Close", bufB.Bytes(), wantB)
		sameBytes(t, "the record opened after the second Close", bufC.Bytes(), wantC)
		sameBytes(t, "the next record", a.record(), wantA)
	})

	t.Run("nested", func(t *testing.T) {
		var outer, inner bytes.Buffer
		eo := NewStreamEncoder(&outer)
		a.encode(eo, func() {
			// What NetImage.Bytes does inside a record layout: size a
			// record with a counter. Then encode one record and one blob
			// to completion while the outer sections are open.
			b.encode(NewStreamCounter(), nil)
			ei := NewStreamEncoder(&inner)
			b.encode(ei, nil)
			closeOK(ei)
			blob := NewEncoder()
			c.encode(blob, nil)
			blob.Finish()
		})
		closeOK(eo)
		sameBytes(t, "the outer record", outer.Bytes(), wantA)
		sameBytes(t, "the inner record", inner.Bytes(), wantB)
		sameBytes(t, "the next record", c.record(), wantC)
		sameBytes(t, "the one after", b.record(), wantB)
	})
}

// TestSpareUnderConcurrentEncoders: the slot is guarded, so encoders on
// several goroutines (the program has one; a test may have more) each
// write the record a fresh encode does. Run it under -race.
func TestSpareUnderConcurrentEncoders(t *testing.T) {
	const workers, records = 4, 6
	ins := make([]spareInput, workers)
	want := make([][]byte, workers)
	for i := range ins {
		ins[i] = newSpareInput(int64(10 + i))
		want[i] = ins[i].fresh()
	}
	bad := make([]string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < records; r++ {
				i := (w + r) % workers
				if got := ins[i].record(); !bytes.Equal(got, want[i]) {
					bad[w] = fmt.Sprintf("worker %d, record %d (input %d): %d bytes differ from a fresh encode's %d", w, r, i, len(got), len(want[i]))
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, msg := range bad {
		if msg != "" {
			t.Error(msg)
		}
	}
}
