package ckpt

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"zapc/internal/allocs"
	"zapc/internal/netstack"
)

// writeLog records the length of every Write it is handed, and the
// bytes: what a chunk-per-Write store (memfs) or a segment-per-Write
// transport (imagestore.Remote) would lay out.
type writeLog struct {
	lens []int
	data bytes.Buffer
}

func (l *writeLog) Write(p []byte) (int, error) {
	l.lens = append(l.lens, len(p))
	return l.data.Write(p)
}

// checkReplayMatchesLive asserts that replaying rec issues exactly the
// Write calls — same lengths in the same order, same bytes — as the live
// streaming encode does, and that its stats are that encode's.
func checkReplayMatchesLive(t *testing.T, kind string, rec *Record, live func(io.Writer) (StreamStats, error)) {
	t.Helper()
	var want, got writeLog
	st, err := live(&want)
	if err != nil {
		t.Fatal(err)
	}
	n, err := rec.WriteTo(&got)
	if err != nil {
		t.Fatal(err)
	}
	if rec.StreamStats != st {
		t.Fatalf("%s: record stats %+v, live encode %+v", kind, rec.StreamStats, st)
	}
	if n != st.Bytes || !bytes.Equal(got.data.Bytes(), want.data.Bytes()) {
		t.Fatalf("%s: replay wrote %d bytes, live encode %d; equal=%v", kind, n, st.Bytes,
			bytes.Equal(got.data.Bytes(), want.data.Bytes()))
	}
	if len(got.lens) != len(want.lens) {
		t.Fatalf("%s: replay issued %d writes, live encode %d", kind, len(got.lens), len(want.lens))
	}
	for i := range want.lens {
		if got.lens[i] != want.lens[i] {
			t.Fatalf("%s: write %d is %d bytes on replay, %d live", kind, i, got.lens[i], want.lens[i])
		}
	}
	if len(want.lens) < 4 {
		t.Fatalf("%s: only %d writes — too small a record to pin a layout", kind, len(want.lens))
	}
}

// TestRecordReplaysLiveWrites: full image (compressible and not, several
// frames each so records span blocks) and delta.
func TestRecordReplaysLiveWrites(t *testing.T) {
	c := mkCluster(t, 1)
	p := mkIdlePod(t, c, "replay", 2, 300<<10)
	// One process incompressible: RAW 64 KiB frames, which is what
	// stresses the no-write-straddles-a-block rule.
	noise := incompressibleBytes(200 << 10)
	p.Procs()[1].SetRegion("noise", noise)
	tr := NewTracker()
	full := captureCommit(t, tr, p, true)
	checkReplayMatchesLive(t, "full", full.Record(), full.Image.EncodeStream)
	if full.Record() != full.Record() {
		t.Fatal("Pending.Record encoded twice")
	}

	p.Procs()[0].SetRegion("hot", []byte{1, 2, 3, 4})
	// A fresh array: the committed full image holds noise's.
	noise = append([]byte(nil), noise...)
	noise[0] ^= 0xFF
	p.Procs()[1].SetRegion("noise", noise)
	delta := captureCommit(t, tr, p, false)
	if delta.Full() {
		t.Fatal("expected a delta generation")
	}
	checkReplayMatchesLive(t, "delta", delta.Record(), delta.Delta.EncodeStream)
	if delta.Delta.ParentSum != full.Record().Sum {
		t.Fatalf("delta links on %08x, full record sum %08x", delta.Delta.ParentSum, full.Record().Sum)
	}
}

func incompressibleBytes(n int) []byte {
	b := make([]byte, n)
	x := uint64(0x9E3779B97F4A7C15)
	for i := range b {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		b[i] = byte(x >> 32)
	}
	return b
}

// TestRecordWriteToStopsOnError: a failing sink surfaces its error and
// the bytes accepted so far.
func TestRecordWriteToStopsOnError(t *testing.T) {
	var r Record
	r.Write([]byte("abc"))
	r.Write(nil) // an empty write is not a write
	r.Write([]byte("defgh"))
	if len(r.lens) != 2 {
		t.Fatalf("recorded %d writes, want 2", len(r.lens))
	}
	boom := errors.New("boom")
	n, err := r.WriteTo(&failAfter{ok: 1, err: boom})
	if !errors.Is(err, boom) || n != 3 {
		t.Fatalf("WriteTo = %d, %v; want 3 bytes then boom", n, err)
	}
}

type failAfter struct {
	ok  int
	err error
}

func (f *failAfter) Write(p []byte) (int, error) {
	if f.ok == 0 {
		return 0, f.err
	}
	f.ok--
	return len(p), nil
}

// TestImageBytesCountsWithoutEncoding: sizing an image nobody sized
// before equals the encode's Raw, costs almost nothing (no compression
// scratch, no staging chunk, no copy of a region), and stays lazy where
// it must — a Remap before the first call is reflected in it.
func TestImageBytesCountsWithoutEncoding(t *testing.T) {
	c := mkCluster(t, 1)
	p := mkIdlePod(t, c, "sizing", 2, 1<<20)
	img, err := CheckpointPod(p)
	if err != nil {
		t.Fatal(err)
	}
	st, err := img.EncodeStream(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var got int64
	if _, n := allocs.Measure(1, func() func() { return func() { got = img.Bytes() } }); n >= 16<<10 {
		t.Fatalf("Image.Bytes() allocated %d bytes sizing a %d-byte image; want < 16 KiB", n, got)
	}
	if got != st.Raw || got < 2<<20 {
		t.Fatalf("Image.Bytes() = %d, encode Raw = %d (want equal, over 2 MiB)", got, st.Raw)
	}

	// A second, unsized capture of the same pod: Record seeds the size.
	img2, err := CheckpointPod(p)
	if err != nil {
		t.Fatal(err)
	}
	rec := img2.Record()
	if img2.sizeCache != rec.Raw || img2.Bytes() != got {
		t.Fatalf("Record seeded size %d, Raw %d, count-only %d", img2.sizeCache, rec.Raw, got)
	}

	// A third, remapped to an address whose uvarint is wider before it is
	// ever sized: the lazy size must be that of the remapped image.
	img3, err := CheckpointPod(p)
	if err != nil {
		t.Fatal(err)
	}
	wide := netstack.IP(0xF0000001)
	if img3.VIP >= 1<<28 {
		t.Fatalf("test pod VIP %#x already needs five uvarint bytes", uint32(img3.VIP))
	}
	img3.Remap(map[netstack.IP]netstack.IP{img3.VIP: wide})
	st3, err := img3.EncodeStream(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if img3.Bytes() != st3.Raw || st3.Raw <= st.Raw {
		t.Fatalf("remapped image sized %d, encodes to %d (unremapped %d)", img3.Bytes(), st3.Raw, st.Raw)
	}
}

// TestDecodeImageAllocatesAboutItsSize: every region byte of a decoded
// image lands once, in the slice the image keeps — no per-frame staging
// slices, no window regrown to the value's size, no copy out of it.
func TestDecodeImageAllocatesAboutItsSize(t *testing.T) {
	c := mkCluster(t, 1)
	p := mkIdlePod(t, c, "decode-budget", 2, 2<<20)
	img, err := CheckpointPod(p)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	st, err := img.EncodeStream(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var got *Image
	_, n := allocs.Measure(1, func() func() {
		return func() { got, err = DecodeImageFrom(bytes.NewReader(buf.Bytes()), 1) }
	})
	if err != nil || got.Bytes() != st.Raw || st.Raw < 4<<20 {
		t.Fatalf("decode: %v (decoded %d logical bytes, encoded %d; want equal, over 4 MiB)", err, got.Bytes(), st.Raw)
	}
	if float64(n) >= 1.15*float64(st.Raw) {
		t.Fatalf("DecodeImageFrom allocated %d bytes for %d logical; want < 1.15x", n, st.Raw)
	}
}
