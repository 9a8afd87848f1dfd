package mpi

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"reflect"
	"testing"

	"zapc/internal/allocs"
	"zapc/internal/imgfmt"
	"zapc/internal/netstack"
	"zapc/internal/vos"
)

// fullComm is a communicator with every serialized field populated:
// unidentified inbound connections, owed rank headers, partial frames,
// undelivered messages, queued output and a gather mid-flight.
func fullComm() *Comm {
	c := New(Config{Rank: 2, Size: 4, Port: 6000, PeerIPs: []netstack.IP{1, 2, 3, 4}})
	c.InitPhase = 1
	c.LFD = 3
	c.FDs = []int{7, 8, -1, 9}
	c.pending = []pendingConn{{FD: 11, Buf: []byte{0, 0}}, {FD: 12}}
	c.hello = []int{1, 0}
	c.partial[0] = []byte{1, 2, 3}
	c.inbox = []Message{{From: 3, Tag: 42, Data: []byte("msg")}, {From: 0, Tag: collBase + 5}}
	c.outq[1] = []byte{9, 9}
	c.Seq = 17
	c.gathered[3] = []byte("g3")
	c.gathered[0] = []byte("g0")
	return c
}

// goldenCommBlob is the SHA-256 of fullComm's blob. It was first taken
// from the hand-written Comm.Save, before the communicator declared a
// layout, and retaken when the fields no restore read left it (the
// barrier's and the allreduce's mid-state, the hung-up flags) and the
// blob version went from 1 to 2 with them.
const goldenCommBlob = "4f2fed64d73123a307aee25d09b78ce9184ba1c4b4a06bb02c8db297537533c4"

func TestGoldenCommBlob(t *testing.T) {
	sum := sha256.Sum256(imgfmt.Blob(fullComm().Layout))
	if got := hex.EncodeToString(sum[:]); got != goldenCommBlob {
		t.Fatalf("communicator blob hashes to %s, golden %s", got, goldenCommBlob)
	}
}

// A communicator's per-rank lists are not sized from the Size it reads:
// a CRC-valid blob claiming a size its lists do not bear out is refused,
// having allocated nothing to speak of.
func TestCommLayoutSizesNothingFromTheWire(t *testing.T) {
	for _, size := range []int{1 << 40, -1, 0, 3, 5} {
		c := New(Config{Rank: 2, Size: 4, Port: 6000, PeerIPs: []netstack.IP{1, 2, 3, 4}})
		c.Cfg.Size = size // the lists stay four long
		blob := imgfmt.Blob(c.Layout)
		var err error
		_, grew := allocs.Measure(3, func() func() {
			return func() { err = imgfmt.ReadBlob(blob, new(Comm).Layout) }
		})
		if !errors.Is(err, imgfmt.ErrBadValue) {
			t.Errorf("Size %d over four-rank lists: err = %v, want ErrBadValue", size, err)
		}
		if grew > 64<<10 {
			t.Errorf("Size %d: refusing the blob allocated %d bytes", size, grew)
		}
	}
	c := fullComm()
	c.Cfg.Rank = 4
	if err := imgfmt.ReadBlob(imgfmt.Blob(c.Layout), new(Comm).Layout); !errors.Is(err, imgfmt.ErrBadValue) {
		t.Errorf("Rank 4 of 4: err = %v, want ErrBadValue", err)
	}
	// Step indexes FDs by each owed rank header: one outside the
	// communicator is refused at the decode, not found by a panic there.
	for _, peer := range []int{4, -1} {
		c = fullComm()
		c.hello[1] = peer
		if err := imgfmt.ReadBlob(imgfmt.Blob(c.Layout), new(Comm).Layout); !errors.Is(err, imgfmt.ErrBadValue) {
			t.Errorf("hello rank %d of 4: err = %v, want ErrBadValue", peer, err)
		}
	}
}

// Every byte slice of a restored communicator is its own: appending to
// and overwriting them must not reach the blob they were read from, which
// belongs to an immutable image that may be restored again.
func TestRestoredCommDoesNotAliasTheBlob(t *testing.T) {
	blob := imgfmt.Blob(fullComm().Layout)
	want := sha256.Sum256(blob)
	c := &Comm{}
	if err := imgfmt.ReadBlob(blob, c.Layout); err != nil {
		t.Fatal(err)
	}
	scribble := func(b []byte) []byte {
		for i := range b {
			b[i] ^= 0xff
		}
		return append(b, "overrun"...)
	}
	for i := range c.partial {
		c.partial[i], c.outq[i] = scribble(c.partial[i]), scribble(c.outq[i])
	}
	for i := range c.pending {
		c.pending[i].Buf = scribble(c.pending[i].Buf)
	}
	for i := range c.inbox {
		c.inbox[i].Data = scribble(c.inbox[i].Data)
	}
	for r, data := range c.gathered {
		c.gathered[r] = scribble(data)
	}
	if sha256.Sum256(blob) != want {
		t.Fatal("writing to a restored communicator changed the blob it was restored from")
	}
}

// outq and partial keep their backing arrays when they drain, so an empty
// queue is no longer a nil one. A checkpoint must not be able to tell.
func TestDrainedQueuesEncodeAsNilOnes(t *testing.T) {
	drained := fullComm()
	drained.outq[0], drained.partial[1] = make([]byte, 0, 64), make([]byte, 0, 64)
	if !bytes.Equal(imgfmt.Blob(drained.Layout), imgfmt.Blob(fullComm().Layout)) {
		t.Fatal("a drained queue and a nil one encode differently")
	}
}

func TestKeepFront(t *testing.T) {
	q := append(make([]byte, 0, 16), "abcdefgh"...)
	if got := keepFront(q, q[8:]); len(got) != 0 || cap(got) != 16 {
		t.Errorf("drained: len %d cap %d, want the whole backing array back", len(got), cap(got))
	}
	if got := keepFront(q, q[5:]); string(got) != "fgh" || cap(got) != 16 {
		t.Errorf("short tail: %q cap %d, want it moved to the front", got, cap(got))
	}
	q = append(q[:0], "abcdefgh"...)
	if got := keepFront(q, q[2:]); string(got) != "cdefgh" || &got[0] != &q[2] {
		t.Errorf("long tail: %q, want it left where it is", got)
	}
	if got := keepFront(nil, nil); got != nil {
		t.Error("a nil queue did not stay nil")
	}
}

// Block hands vos the same wait list it built before, refilled.
func TestBlockReusesItsWaitList(t *testing.T) {
	c := fullComm()
	want := []vos.FDWait{
		{FD: 3, Mask: netstack.PollIn},
		{FD: 7, Mask: netstack.PollIn | netstack.PollHUP | netstack.PollOut | netstack.PollErr},
		{FD: 8, Mask: netstack.PollIn | netstack.PollHUP | netstack.PollOut | netstack.PollErr},
		{FD: 9, Mask: netstack.PollIn | netstack.PollHUP},
		{FD: 11, Mask: netstack.PollIn},
		{FD: 12, Mask: netstack.PollIn},
	}
	if got := c.Block(); !got.Block || !reflect.DeepEqual(got.WaitFDs, want) {
		t.Fatalf("Block() = %+v, want to wait on %+v", got, want)
	}
	if n := testing.AllocsPerRun(100, func() { c.Block() }); n != 0 {
		t.Fatalf("Block allocates %v objects once its list exists, want 0", n)
	}
}
