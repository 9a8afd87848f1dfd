package zapc_test

// Acceptance layer for per-frame compression and the
// content-deduplicated image store, exercised end to end through the
// public cluster API:
//
//   - a churn workload's incremental generations land in the dedup
//     store at least 30% smaller than the logical bytes their records
//     carry — what the same records cost in RAW frames;
//   - the encoded bytes are a pure function of the logical image —
//     identical across worker counts, across streaming vs. buffered
//     production, and across runs, in both compression modes.

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"

	"zapc"
	"zapc/internal/ckpt"
	"zapc/internal/imgfmt"
)

// grabStored reads every record under prefix through the given store
// (grabFlushed's analogue for a dedup store, where the filesystem path
// holds a manifest rather than the record bytes).
func grabStored(t *testing.T, st zapc.ImageStore, prefix string) map[string][]byte {
	t.Helper()
	paths := st.List(prefix)
	if len(paths) == 0 {
		t.Fatalf("no records stored under %q", prefix)
	}
	out := make(map[string][]byte, len(paths))
	for _, path := range paths {
		rc, err := st.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(rc)
		rc.Close()
		if err != nil {
			t.Fatal(err)
		}
		out[path] = data
	}
	return out
}

// logicalBytes decodes one flushed record (full image or delta) and
// returns the size of the field stream it carries: what the record
// costs on the wire uncompressed, to within the few bytes of framing a
// RAW frame adds per 64 KiB.
func logicalBytes(t *testing.T, path string, data []byte) int64 {
	t.Helper()
	var rec interface {
		EncodeStream(io.Writer) (ckpt.StreamStats, error)
	}
	var err error
	if strings.HasSuffix(path, ".delta") {
		rec, err = ckpt.DecodeDeltaFrom(bytes.NewReader(data))
	} else {
		rec, err = ckpt.DecodeImageFrom(bytes.NewReader(data), 0)
	}
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	st, err := rec.EncodeStream(io.Discard)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return st.Raw
}

// TestV3ChurnStoredBytesReduction pins the headline storage win: with
// per-frame compression and the dedup store, each incremental generation
// of the write-heavy churn workload adds at least 30% fewer physical
// bytes than the identical records carry uncompressed.
func TestV3ChurnStoredBytesReduction(t *testing.T) {
	c := zapc.New(zapc.Config{Nodes: 4, Seed: 99})
	ded := c.EnableDedupStore()
	job, err := c.Launch(churnSpec())
	if err != nil {
		t.Fatal(err)
	}
	incr := ckpt.NewIncrSet(100) // one full base, then deltas
	const gens = 4
	var storedIncr, rawIncr int64
	var prevStored int64
	for i := 0; i < gens; i++ {
		driveTo(t, c, job, 0.18*float64(i+1))
		prefix := fmt.Sprintf("v3red/g%d", i)
		if _, err := c.Checkpoint(job, zapc.CheckpointOptions{
			Mode: zapc.Snapshot, Workers: 4, Incr: incr, FlushTo: prefix,
		}); err != nil {
			t.Fatal(err)
		}
		growth := ded.Usage().StoredBytes() - prevStored
		prevStored = ded.Usage().StoredBytes()
		var raw int64
		for path, data := range grabStored(t, ded, prefix) {
			raw += logicalBytes(t, path, data)
		}
		if i == 0 {
			continue // the full base is not an incremental generation
		}
		storedIncr += growth
		rawIncr += raw
	}
	if _, err := c.RunJob(job, eqDeadline); err != nil {
		t.Fatal(err)
	}
	if storedIncr <= 0 || rawIncr <= 0 {
		t.Fatalf("degenerate measurement: stored %d, uncompressed %d", storedIncr, rawIncr)
	}
	ratio := float64(storedIncr) / float64(rawIncr)
	t.Logf("incremental generations: compressed+dedup stores %d B vs %d B uncompressed (%.1f%% of baseline)",
		storedIncr, rawIncr, 100*ratio)
	if ratio > 0.7 {
		t.Fatalf("the store holds only %.1f%% fewer bytes per incremental generation than the records carry, want >=30%%",
			100*(1-ratio))
	}
}

// TestV3CrossConfigBitIdentity is the cross-configuration property
// test: one seeded checkpoint produces the same stored bytes whatever
// the worker count, whether the record streams into the store or is
// buffered and re-encoded afterward, and — per compression mode — the
// encoding is deterministic, with both modes carrying the identical
// logical image.
func TestV3CrossConfigBitIdentity(t *testing.T) {
	grab := func(workers int) (map[string][]byte, map[string]*ckpt.Image) {
		c := zapc.New(zapc.Config{Nodes: 4, Seed: 41})
		job, err := c.Launch(eqSpec())
		if err != nil {
			t.Fatal(err)
		}
		driveTo(t, c, job, 0.5)
		res, err := c.Checkpoint(job, zapc.CheckpointOptions{
			Mode: zapc.Snapshot, Workers: workers, FlushTo: "xcfg",
		})
		if err != nil {
			t.Fatal(err)
		}
		imgs := make(map[string]*ckpt.Image)
		for _, img := range res.Images {
			imgs["xcfg/"+img.PodName+".img"] = img
		}
		if _, err := c.RunJob(job, eqDeadline); err != nil {
			t.Fatal(err)
		}
		return grabFlushed(t, c, "xcfg"), imgs
	}

	flushed, imgs := grab(1)
	for _, w := range []int{2, 8} {
		other, _ := grab(w)
		diffRecords(t, fmt.Sprintf("workers=%d", w), flushed, other)
	}
	for path, img := range imgs {
		// Streaming vs. buffered: the record the checkpoint streamed
		// into the store equals a buffered re-encode of the image.
		var buf bytes.Buffer
		if _, err := img.EncodeStreamWith(&buf, imgfmt.StreamOpts{}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), flushed[path]) {
			t.Fatalf("%s: streamed record differs from buffered encode (%d vs %d bytes)",
				path, len(flushed[path]), buf.Len())
		}
		// Compression on/off: each mode deterministic, RAW never larger
		// than logical, and both decode to the identical image.
		var raw1, raw2 bytes.Buffer
		if _, err := img.EncodeStreamWith(&raw1, imgfmt.StreamOpts{NoCompress: true}); err != nil {
			t.Fatal(err)
		}
		if _, err := img.EncodeStreamWith(&raw2, imgfmt.StreamOpts{NoCompress: true}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw1.Bytes(), raw2.Bytes()) {
			t.Fatalf("%s: NoCompress encoding is not deterministic", path)
		}
		if buf.Len() >= raw1.Len() {
			t.Fatalf("%s: compressed record (%d B) not smaller than RAW (%d B)", path, buf.Len(), raw1.Len())
		}
		fromC, err := ckpt.DecodeImageFrom(bytes.NewReader(flushed[path]), 4)
		if err != nil {
			t.Fatal(err)
		}
		fromR, err := ckpt.DecodeImageFrom(bytes.NewReader(raw1.Bytes()), 4)
		if err != nil {
			t.Fatal(err)
		}
		if !sameImage(fromC, fromR) {
			t.Fatalf("%s: compressed and RAW records decode to different images", path)
		}
	}
}
