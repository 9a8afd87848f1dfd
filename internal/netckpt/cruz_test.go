package netckpt

import (
	"testing"

	"zapc/internal/netstack"
)

// naivePeekCheckpoint is the Cruz-style capture the paper criticizes
// (§2, §5): read the receive queue with MSG_PEEK through the standard
// application interface. It sees only data the kernel has already
// processed into the receive queue — nothing in the backlog queue, and
// nothing in the out-of-band queue.
func naivePeekCheckpoint(s *netstack.Socket) (recv, oob []byte) {
	if d, err := s.Recv(1<<20, true, false); err == nil {
		recv = d
	}
	// MSG_PEEK on the normal stream does not reach OOB data; Cruz's
	// technique has no way to see it (the paper: "will fail to capture
	// ... crucial out-of-band, urgent, and backlog queue data").
	return recv, nil
}

// TestNaivePeekMissesBacklogAndOOB contrasts the naive technique with
// the full network-state checkpoint at the same frozen instant: the
// naive capture is short by exactly the backlog and OOB bytes.
func TestNaivePeekMissesBacklogAndOOB(t *testing.T) {
	w, nw := mkWorld(21)
	a := mkStack(t, nw, 1)
	b := mkStack(t, nw, 2)
	cli, srv, _ := establish(t, w, a, b, 80)

	// Processed data, then urgent data, then data that will still be in
	// the kernel backlog when we freeze.
	cli.Send([]byte("processed."), false)
	drive(t, w, func() bool { return srv.RecvQueueLen() == 10 })
	cli.Send([]byte("U"), true)
	drive(t, w, func() bool { return srv.OOBLen() == 1 })
	cli.Send([]byte("in-backlog"), false)
	drive(t, w, func() bool { return srv.BacklogLen() > 0 })

	// Freeze the pod exactly as a checkpoint would.
	a.Filter().BlockAll()
	b.Filter().BlockAll()

	naiveRecv, naiveOOB := naivePeekCheckpoint(srv)
	img, err := CheckpointStack(b)
	if err != nil {
		t.Fatal(err)
	}
	var rec *SocketRecord
	for i := range img.Sockets {
		if img.Sockets[i].State == netstack.StateEstablished {
			rec = &img.Sockets[i]
		}
	}

	// ZapC's capture is complete.
	if string(rec.RecvData) != "processed.in-backlog" {
		t.Fatalf("full capture = %q", rec.RecvData)
	}
	if string(rec.OOBData) != "U" {
		t.Fatalf("full oob capture = %q", rec.OOBData)
	}
	// The naive capture lost the backlog and the urgent byte.
	if string(naiveRecv) != "processed." {
		t.Fatalf("naive capture = %q (expected it to miss the backlog)", naiveRecv)
	}
	if len(naiveOOB) != 0 {
		t.Fatalf("naive oob = %q", naiveOOB)
	}
	lost := (len(rec.RecvData) - len(naiveRecv)) + (len(rec.OOBData) - len(naiveOOB))
	if lost != len("in-backlog")+1 {
		t.Fatalf("naive technique lost %d bytes, want %d", lost, len("in-backlog")+1)
	}
}
