package mpi

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"zapc/internal/imgfmt"
	"zapc/internal/netstack"
)

// fullComm is a communicator with every serialized field populated:
// unidentified inbound connections, owed rank headers, partial frames,
// undelivered messages, queued output, a gather and an allreduce both
// mid-flight, and a hung-up peer.
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
	c.barMid = true
	c.gathered[3] = []byte("g3")
	c.gathered[0] = []byte("g0")
	c.closed[3] = true
	c.arMid = true
	c.arBuf = []byte("allreduce")
	return c
}

// commBlob encodes c as a program-state blob.
func commBlob(t *testing.T, c *Comm) []byte {
	t.Helper()
	e := imgfmt.NewEncoder()
	if err := c.Save(e); err != nil {
		t.Fatal(err)
	}
	return e.Finish()
}

// goldenCommBlob is the SHA-256 of fullComm's blob as the hand-written
// Comm.Save wrote it, before the communicator declared a layout.
const goldenCommBlob = "723c40f41607f5778ace4076c3aef44da160e4f8b431ce8237efdc812c2d470b"

func TestGoldenCommBlob(t *testing.T) {
	sum := sha256.Sum256(commBlob(t, fullComm()))
	if got := hex.EncodeToString(sum[:]); got != goldenCommBlob {
		t.Fatalf("communicator blob hashes to %s, golden %s", got, goldenCommBlob)
	}
}
