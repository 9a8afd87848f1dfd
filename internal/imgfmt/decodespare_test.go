package imgfmt

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// decodeInput is one record's worth of fields, declared once as a layout,
// that puts every buffer the decoder spare carries to work: a string and
// a run of doubles read where they lie in the window, sections copied out
// of it, and a bulk value framed LZ4 and RAW, whose LZ4 frames are read
// through the stored scratch. The seed picks the values and nothing else,
// so two inputs make records of one shape.
type decodeInput struct {
	id   uint64
	name string
	xs   []float64
	secs []decodeSection
	bulk []byte
}

type decodeSection struct {
	n     uint64
	small []byte
	neg   int64
}

func newDecodeInput(seed int64) decodeInput {
	in := decodeInput{id: uint64(seed), name: fmt.Sprintf("pod-%03d", seed), bulk: mixedBytes(seed, 3*DefaultChunk+100)}
	for i := 0; i < 16; i++ {
		in.xs = append(in.xs, float64(seed)+float64(i)/8)
	}
	small := incompressible(seed, 1<<10)
	for i := 0; i < 3; i++ {
		in.secs = append(in.secs, decodeSection{n: uint64(i), small: small[:(i+1)*len(small)/3], neg: -int64(i) - seed})
	}
	return in
}

func (in *decodeInput) layout(v Visitor) { in.walk(v, nil) }

// walk is the layout, calling inside (when not nil) between the string
// and the doubles: with the window holding the rest of the first frame.
func (in *decodeInput) walk(v Visitor, inside func()) {
	in.id = v.Uint(1, in.id)
	in.name = v.String(2, in.name)
	if inside != nil {
		inside()
	}
	in.xs = v.Floats(3, in.xs)
	in.secs = Each(v, 4, in.secs, func(s *decodeSection, v Visitor, tag uint64) {
		v.Begin(tag)
		s.n = v.Uint(1, s.n)
		v.Begin(2)
		s.small = v.Bytes(1, s.small)
		s.neg = v.Int(2, s.neg)
		v.End()
		v.End()
	})
	in.bulk = v.Bytes(5, in.bulk)
}

// record encodes in as a record.
func (in decodeInput) record() []byte {
	var buf bytes.Buffer
	e := NewStreamEncoder(&buf)
	in.layout(Writer(e))
	if err := e.Close(); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// decodeBytes reads rec back through a new record decoder, with the
// decoder spare as it stands.
func decodeBytes(rec []byte) (decodeInput, error) {
	var out decodeInput
	d, err := NewStreamDecoder(bytes.NewReader(rec))
	if err == nil {
		err = ReadRecord(d, out.layout)
	}
	return out, err
}

// verifyBytes walks rec with the checking visitor.
func verifyBytes(rec []byte) error {
	var out decodeInput
	d, err := NewStreamDecoder(bytes.NewReader(rec))
	if err == nil {
		err = VerifyRecord(d, out.layout)
	}
	return err
}

// freshDecode decodes rec with the decoder spare empty, as the first
// record of a process is: what every later decode of rec must return.
func freshDecode(t *testing.T, rec []byte) decodeInput {
	t.Helper()
	emptyDecodeSpare()
	out, err := decodeBytes(rec)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func emptyDecodeSpare() {
	decodeSpare.Lock()
	decodeSpare.win, decodeSpare.stored = nil, nil
	decodeSpare.Unlock()
}

// sameDecode fails unless rec decodes to want.
func sameDecode(t *testing.T, what string, rec []byte, want decodeInput) {
	t.Helper()
	got, err := decodeBytes(rec)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	sameValues(t, what, got, want)
}

func sameValues(t *testing.T, what string, got, want decodeInput) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: the values differ from what a fresh decode returns", what)
	}
}

// TestSecondDecodeAllocatesNoBuffer: a record decoder takes the window and
// the stored scratch the last clean record walk left, so a second record
// of the same shape allocates neither — for the checking walk, which then
// allocates less than the smaller of the two, and for the reading walk.
// Counts allocations, not time.
func TestSecondDecodeAllocatesNoBuffer(t *testing.T) {
	rec := newDecodeInput(1).record()
	for _, tc := range []struct {
		walk   string
		decode func()
	}{
		{"VerifyRecord", func() {
			if err := verifyBytes(rec); err != nil {
				t.Fatal(err)
			}
		}},
		{"ReadRecord", func() {
			if _, err := decodeBytes(rec); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.walk, func(t *testing.T) {
			emptyDecodeSpare()
			first := allocated(tc.decode)
			decodeSpare.Lock()
			win, stored := uint64(cap(decodeSpare.win)), uint64(cap(decodeSpare.stored))
			decodeSpare.Unlock()
			if win == 0 || stored == 0 {
				t.Fatalf("the first decode handed back a %d-byte window and a %d-byte scratch: the record does not use both", win, stored)
			}
			const runs = 10
			again := allocated(func() {
				for i := 0; i < runs; i++ {
					tc.decode()
				}
			}) / runs
			t.Logf("first decode %d bytes, repeat %d; window %d, scratch %d", first, again, win, stored)
			if first < again+win+stored {
				t.Errorf("a repeat decode allocated %d bytes, the first %d: it saved less than the %d-byte window and %d-byte scratch", again, first, win, stored)
			}
			if tc.walk == "VerifyRecord" && again >= min(win, stored) {
				t.Errorf("a repeat checking walk allocated %d bytes, want under the %d of the smaller buffer", again, min(win, stored))
			}
		})
	}
}

// TestDecodeSpareLeavesKeptValuesAlone: nothing a decode hands its caller
// is a buffer the spare hands out again. The string, the doubles, the
// sections' bytes and the bulk value of a decoded record stay as they
// were while later records decode through the window and scratch its
// decoder handed back.
func TestDecodeSpareLeavesKeptValuesAlone(t *testing.T) {
	a, b := newDecodeInput(2), newDecodeInput(3)
	recA, recB := a.record(), b.record()
	wantB := freshDecode(t, recB)
	kept, err := decodeBytes(recA)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		sameDecode(t, fmt.Sprintf("record %d after it", i), recB, wantB)
		if err := verifyBytes(recB); err != nil {
			t.Fatal(err)
		}
	}
	sameValues(t, "the values decoded before them", kept, a)
}

// TestDecodeSpareSurvivesMisuse: a decode that fails, a decoder abandoned
// part way, and two decoders open at once each leave every decode around
// them returning what a fresh decode returns. An open decoder's buffers
// are never handed to a second one, and a walk that did not reach its
// terminator hands back nothing.
func TestDecodeSpareSurvivesMisuse(t *testing.T) {
	a, b, c := newDecodeInput(4), newDecodeInput(5), newDecodeInput(6)
	recA, recB, recC := a.record(), b.record(), c.record()
	wantA, wantB, wantC := freshDecode(t, recA), freshDecode(t, recB), freshDecode(t, recC)

	t.Run("failed", func(t *testing.T) {
		flipped := bytes.Clone(recA)
		flipped[len(flipped)-DefaultChunk/2] ^= 0x10 // in the bulk value's last frames
		for _, bad := range [][]byte{flipped, recA[:len(recA)-3]} {
			if _, err := decodeBytes(bad); err == nil {
				t.Fatal("a damaged record decoded")
			}
			sameDecode(t, "the next record", recB, wantB)
			if err := verifyBytes(bad); err == nil {
				t.Fatal("a damaged record verified")
			}
			sameDecode(t, "the one after", recC, wantC)
		}
	})

	t.Run("abandoned", func(t *testing.T) {
		d, err := NewStreamDecoder(bytes.NewReader(recA))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.Uint(1); err != nil {
			t.Fatal(err)
		}
		if _, err := d.String(2); err != nil {
			t.Fatal(err)
		}
		sameDecode(t, "the next record", recB, wantB)
		sameDecode(t, "the one after", recC, wantC)
	})

	t.Run("nested", func(t *testing.T) {
		// The outer decoder holds its window and scratch while two
		// records decode to completion inside its walk.
		var outer decodeInput
		d, err := NewStreamDecoder(bytes.NewReader(recA))
		if err != nil {
			t.Fatal(err)
		}
		var innerB, innerC decodeInput
		err = ReadRecord(d, func(v Visitor) {
			outer.walk(v, func() {
				if innerB, err = decodeBytes(recB); err != nil {
					t.Fatal(err)
				}
				if innerC, err = decodeBytes(recC); err != nil {
					t.Fatal(err)
				}
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		sameValues(t, "the outer record", outer, wantA)
		sameValues(t, "the first inner record", innerB, wantB)
		sameValues(t, "the second inner record", innerC, wantC)
		sameDecode(t, "the next record", recC, wantC)
		sameDecode(t, "the one after", recA, wantA)
	})

	t.Run("interleaved", func(t *testing.T) {
		// Two decoders opened one after the other, read in turns: the
		// second opens while the first holds the slot's buffers.
		da, err := NewStreamDecoder(bytes.NewReader(recA))
		if err != nil {
			t.Fatal(err)
		}
		db, err := NewStreamDecoder(bytes.NewReader(recB))
		if err != nil {
			t.Fatal(err)
		}
		var gotA, gotB decodeInput
		if err := ReadRecord(db, gotB.layout); err != nil {
			t.Fatal(err)
		}
		if err := ReadRecord(da, gotA.layout); err != nil {
			t.Fatal(err)
		}
		sameValues(t, "the record opened first", gotA, wantA)
		sameValues(t, "the record opened second", gotB, wantB)
		sameDecode(t, "the next record", recC, wantC)
	})
}

// TestDecodeSpareUnderConcurrentDecoders: the slot is guarded, so record
// decoders on several goroutines (the program has one; a test may have
// more) each return what a fresh decode does. Run it under -race.
func TestDecodeSpareUnderConcurrentDecoders(t *testing.T) {
	const workers, records = 4, 6
	recs := make([][]byte, workers)
	want := make([]decodeInput, workers)
	for i := range recs {
		recs[i] = newDecodeInput(int64(10 + i)).record()
		want[i] = freshDecode(t, recs[i])
	}
	bad := make([]string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < records; r++ {
				i := (w + r) % workers
				got, err := decodeBytes(recs[i])
				if err == nil && r%2 == 1 {
					err = verifyBytes(recs[(i+1)%workers])
				}
				if err != nil || !reflect.DeepEqual(got, want[i]) {
					bad[w] = fmt.Sprintf("worker %d, record %d (input %d): %v, or values that differ from a fresh decode's", w, r, i, err)
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
