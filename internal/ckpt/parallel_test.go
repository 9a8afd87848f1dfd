package ckpt

import (
	"bytes"
	"errors"
	"io"
	"os"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"zapc/internal/imgfmt"
	"zapc/internal/memfs"
	"zapc/internal/netckpt"
	"zapc/internal/netstack"
	"zapc/internal/pod"
	"zapc/internal/sim"
	"zapc/internal/vos"
)

// mkRawCluster is mkCluster without the testing.T (usable from fuzz
// seeding and benchmarks).
func mkRawCluster(nodes int) *cluster {
	w := sim.NewWorld(99)
	c := &cluster{w: w, nw: netstack.NewNetwork(w), fs: memfs.New()}
	for i := 0; i < nodes; i++ {
		c.nodes = append(c.nodes, vos.NewNode(w, "node"+string(rune('A'+i)), 2))
	}
	return c
}

// rawFreeze suspends a pod and drives the world to quiescence without a
// testing.T.
func rawFreeze(c *cluster, p *pod.Pod) {
	p.Suspend()
	p.BlockNetwork()
	for !p.Quiescent() && c.w.Step() {
	}
}

// testVIP hands out distinct virtual IPs for helper-built pods (VIPs
// are unique per network; tests here never run in parallel).
var testVIP uint32 = 100

func nextVIP() netstack.IP {
	testVIP++
	return netstack.IP(testVIP)
}

// mkBusyPod builds a pod with n worker processes, each owning a private
// heap region, advanced a few virtual milliseconds and then frozen.
func mkBusyPod(t *testing.T, c *cluster, name string, node int, n int) *pod.Pod {
	t.Helper()
	p, err := pod.New(name, c.nodes[node], c.nw, c.fs, nextVIP())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		proc := p.AddProcess(&worker{Limit: 200 + 50*i})
		heap := make([]byte, 256+64*i)
		for j := range heap {
			heap[j] = byte(i*31 + j)
		}
		proc.SetRegion("heap", heap)
	}
	c.w.RunUntil(c.w.Now() + sim.Time(5*sim.Millisecond))
	c.freeze(t, p)
	return p
}

func TestParallelCheckpointMatchesSequential(t *testing.T) {
	c := mkCluster(t, 1)
	p := mkBusyPod(t, c, "par", 0, 6)

	seq, err := CheckpointPodWith(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 4, 16} {
		par, err := CheckpointPodWith(p, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !sameImage(seq, par) {
			t.Fatalf("workers=%d: parallel capture differs from sequential", workers)
		}
	}
}

// fuzzChain returns the records of a real two-generation chain — a full
// image and the delta a Tracker captures after one region changed — for
// seeding the decoder fuzz targets.
func fuzzChain(f testing.TB) (full, delta []byte) {
	c := mkRawCluster(1)
	p, _ := pod.New("seed", c.nodes[0], c.nw, c.fs, 7)
	proc := p.AddProcess(&worker{Limit: 50})
	proc.SetRegion("heap", []byte("0123456789abcdef"))
	c.w.RunUntil(sim.Time(2 * sim.Millisecond))
	rawFreeze(c, p)
	tr := NewTracker()
	var wires [2]bytes.Buffer
	for gen := range wires {
		pend, err := tr.Capture(p, gen == 0)
		if err != nil {
			f.Fatal(err)
		}
		if _, err := pend.Stream(&wires[gen]); err != nil {
			f.Fatal(err)
		}
		pend.Commit()
		proc.SetRegion("heap", []byte("fedcba9876543210"))
	}
	return wires[0].Bytes(), wires[1].Bytes()
}

// misplacedSlot returns full and delta with one socket whose slot is not
// its place in the socket list: well-formed records under valid CRCs that
// a layout's Check refuses with imgfmt.ErrBadValue.
func misplacedSlot(f testing.TB, full, delta []byte) (badFull, badDelta []byte) {
	img, err := decodeImage(full)
	if err != nil {
		f.Fatal(err)
	}
	d, err := decodeDelta(delta)
	if err != nil {
		f.Fatal(err)
	}
	sockets := []netckpt.SocketRecord{{Slot: 1, CreateSeq: 1, Proto: netstack.UDP,
		Local: netstack.Addr{IP: img.VIP, Port: 53}, PendingAcceptOf: -1}}
	img.Net.Sockets, d.Net.Sockets = sockets, sockets
	var rec bytes.Buffer
	if _, err := d.EncodeStream(&rec); err != nil {
		f.Fatal(err)
	}
	return recordOf(img), rec.Bytes()
}

// addMutations seeds f with rec, two truncations of it and a copy with
// one bit flipped mid-record (under a frame CRC).
func addMutations(f *testing.F, rec []byte) {
	f.Add(rec)
	f.Add(rec[:len(rec)/3])
	f.Add(rec[:len(rec)*2/3])
	flip := append([]byte(nil), rec...)
	flip[len(flip)/2] ^= 0x04
	f.Add(flip)
}

// namedErr reports whether a decode or chain failure is one a caller can
// match: a broken chain, or one of imgfmt's error classes.
func namedErr(err error) bool {
	for _, class := range []error{ErrChainBroken, imgfmt.ErrBadMagic, imgfmt.ErrBadVersion,
		imgfmt.ErrBadChecksum, imgfmt.ErrTruncated, imgfmt.ErrTypeMismatch, imgfmt.ErrTagMismatch,
		imgfmt.ErrBadValue} {
		if errors.Is(err, class) {
			return true
		}
	}
	return false
}

// FuzzDecodeImage feeds arbitrary bytes to the pod-image decoder: it
// must return a named error, never panic, and a successfully decoded
// image must re-encode to a record that decodes to the same image.
func FuzzDecodeImage(f *testing.F) {
	full, delta := fuzzChain(f)
	addMutations(f, full)
	f.Add(delta) // the wrong kind of record
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0x5a}, 64))
	badFull, _ := misplacedSlot(f, full, delta)
	f.Add(badFull) // refused by a layout's Check

	f.Fuzz(func(t *testing.T, data []byte) {
		img, err := decodeImage(data)
		if _, verr := VerifyImageFrom(bytes.NewReader(data)); (verr == nil) != (err == nil) ||
			verr != nil && !errors.Is(verr, ErrCorruptImage) {
			t.Fatalf("VerifyImageFrom says %v, DecodeImageFrom %v", verr, err)
		}
		if err != nil {
			if !namedErr(err) {
				t.Fatalf("decode failed with an unnamed error: %v", err)
			}
			return
		}
		rec := recordOf(img)
		again, err := decodeImage(rec)
		if err != nil {
			t.Fatalf("re-decode of decoded image failed: %v", err)
		}
		if !bytes.Equal(recordOf(again), rec) {
			t.Fatal("decoded image re-encodes to a record that decodes to a different image")
		}
	})
}

// TestTrailingBytesAreRefusedByEveryReader: a record is the whole stream,
// so a byte after its terminator is refused — by DecodeImageFrom and
// DecodeDeltaFrom as by the chain reader — with ErrCorruptImage carrying
// imgfmt.ErrTagMismatch. FuzzDecodeDelta's input a27298aa9b62dc3e is such
// a delta; the delta decoder used to accept it.
func TestTrailingBytesAreRefusedByEveryReader(t *testing.T) {
	refused := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, ErrCorruptImage) || !errors.Is(err, imgfmt.ErrTagMismatch) {
			t.Errorf("%s: %v, want ErrCorruptImage carrying imgfmt.ErrTagMismatch", what, err)
		}
	}
	full, delta := fuzzChain(t)
	if _, err := decodeImage(full); err != nil {
		t.Fatal(err)
	}
	if _, err := decodeDelta(delta); err != nil {
		t.Fatal(err)
	}
	_, err := decodeImage(append(slices.Clip(full), 0))
	refused("DecodeImageFrom, one byte past the full image", err)
	_, err = decodeDelta(append(slices.Clip(delta), 0))
	refused("DecodeDeltaFrom, one byte past the delta", err)
	_, err = ReconstructChain([][]byte{full, append(slices.Clip(delta), 0)})
	refused("ReconstructChain, one byte past the delta", err)

	corpus, err := os.ReadFile("testdata/fuzz/FuzzDecodeDelta/a27298aa9b62dc3e")
	if err != nil {
		t.Fatal(err)
	}
	lit, ok := strings.CutPrefix(strings.Split(string(corpus), "\n")[1], "[]byte(")
	if !ok {
		t.Fatalf("corpus entry is not one []byte: %q", corpus)
	}
	s, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
	if err != nil {
		t.Fatal(err)
	}
	_, err = decodeDelta([]byte(s))
	refused("DecodeDeltaFrom, a27298aa9b62dc3e", err)
	_, err = ReconstructChain([][]byte{full, []byte(s)})
	refused("ReconstructChain, a27298aa9b62dc3e", err)
}

// FuzzDecodeDelta is FuzzDecodeImage for the delta decoder, plus the
// chain reader behind it (Chain.Next, which ReconstructChain loops
// over): the same bytes, as the second link of a chain whose base is
// valid, must reconstruct or fail with a named error.
func FuzzDecodeDelta(f *testing.F) {
	full, delta := fuzzChain(f)
	addMutations(f, delta)
	f.Add(full) // the wrong kind of record
	f.Add([]byte{})
	_, badDelta := misplacedSlot(f, full, delta)
	f.Add(badDelta) // refused by a layout's Check

	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := decodeDelta(data)
		if err == nil {
			var rec bytes.Buffer
			if _, err := d.EncodeStream(&rec); err != nil {
				t.Fatal(err)
			}
			again, err := decodeDelta(rec.Bytes())
			if err != nil {
				t.Fatalf("re-decode of decoded delta failed: %v", err)
			}
			if !reflect.DeepEqual(again, d) {
				t.Fatal("decoded delta re-encodes to a record that decodes to a different delta")
			}
		} else if !namedErr(err) {
			t.Fatalf("decode failed with an unnamed error: %v", err)
		}
		img, cerr := ReconstructChain([][]byte{full, data})
		if cerr != nil && !namedErr(cerr) {
			t.Fatalf("chain failed with an unnamed error: %v", cerr)
		}
		if cerr == nil && (err != nil || img.PodName != d.PodName) {
			t.Fatalf("chain accepted a second record the delta decoder answers with %v", err)
		}
	})
}

// BenchmarkCheckpointEncode is the capture+encode pipeline on one pod of
// eight 256 KiB heaps; cmd/zapc-bench -fig ckpt uses the same shape.
func BenchmarkCheckpointEncode(b *testing.B) {
	c := mkRawCluster(1)
	p, _ := pod.New("bench", c.nodes[0], c.nw, c.fs, 1)
	for i := 0; i < 8; i++ {
		proc := p.AddProcess(&worker{Limit: 100})
		proc.SetRegion("heap", make([]byte, 256<<10))
	}
	c.w.RunUntil(sim.Time(2 * sim.Millisecond))
	rawFreeze(c, p)
	var bytesOut int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		img, err := CheckpointPod(p)
		if err != nil {
			b.Fatal(err)
		}
		st, err := img.EncodeStream(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		bytesOut = st.Raw
	}
	b.SetBytes(bytesOut)
}
