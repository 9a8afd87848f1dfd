package netstack

import (
	"bytes"
	"errors"
	"testing"

	"zapc/internal/sim"
)

// testNet builds a world with n stacks at IPs 10.0.0.1..n.
func testNet(t *testing.T, n int) (*sim.World, *Network, []*Stack) {
	t.Helper()
	w := sim.NewWorld(12345)
	nw := NewNetwork(w)
	stacks := make([]*Stack, n)
	for i := range stacks {
		st, err := nw.NewStack(IP(0x0a000001 + i))
		if err != nil {
			t.Fatal(err)
		}
		stacks[i] = st
	}
	return w, nw, stacks
}

// run drives the world until cond holds or the deadline passes.
func run(t *testing.T, w *sim.World, cond func() bool) {
	t.Helper()
	deadline := w.Now() + sim.Time(30*sim.Second)
	for !cond() {
		if w.Now() > deadline {
			t.Fatal("condition not reached before deadline")
		}
		if !w.Step() {
			if !cond() {
				t.Fatal("event queue drained before condition")
			}
			return
		}
	}
}

// connectPair establishes a TCP connection between two stacks and returns
// (client, serverSide).
func connectPair(t *testing.T, w *sim.World, a, b *Stack, port Port) (*Socket, *Socket) {
	t.Helper()
	l := b.Socket(TCP)
	if err := l.Bind(port); err != nil {
		t.Fatal(err)
	}
	if err := l.Listen(8); err != nil {
		t.Fatal(err)
	}
	c := a.Socket(TCP)
	if err := c.Connect(Addr{b.IPAddr(), port}); err != nil {
		t.Fatal(err)
	}
	run(t, w, func() bool { return c.State() == StateEstablished && l.AcceptPending() > 0 })
	srv, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	return c, srv
}

func TestHandshake(t *testing.T) {
	w, _, st := testNet(t, 2)
	c, srv := connectPair(t, w, st[0], st[1], 5000)
	if c.RemoteAddr() != (Addr{st[1].IPAddr(), 5000}) {
		t.Fatalf("client remote = %v", c.RemoteAddr())
	}
	if srv.LocalAddr().Port != 5000 {
		t.Fatalf("server side did not inherit listening port: %v", srv.LocalAddr())
	}
	if srv.RemoteAddr() != c.LocalAddr() {
		t.Fatalf("addr mismatch: %v vs %v", srv.RemoteAddr(), c.LocalAddr())
	}
}

func TestConnectRefused(t *testing.T) {
	w, _, st := testNet(t, 2)
	c := st[0].Socket(TCP)
	if err := c.Connect(Addr{st[1].IPAddr(), 9999}); err != nil {
		t.Fatal(err)
	}
	run(t, w, func() bool { return c.Err() != nil })
	if !errors.Is(c.Err(), ErrConnRefused) {
		t.Fatalf("err = %v", c.Err())
	}
}

func TestStreamTransfer(t *testing.T) {
	w, _, st := testNet(t, 2)
	c, srv := connectPair(t, w, st[0], st[1], 5000)
	msg := bytes.Repeat([]byte("abcdefgh"), 1000) // 8 KB, multiple segments
	n, err := c.Send(msg, false)
	if err != nil || n != len(msg) {
		t.Fatalf("Send = %d, %v", n, err)
	}
	run(t, w, func() bool { return srv.RecvQueueLen() == len(msg) })
	got, err := srv.Recv(len(msg), false, false)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("payload corrupted")
	}
	// Sender's queue drains after acks.
	run(t, w, func() bool { return c.SendQueueSeqLen() == 0 })
	pcb := c.PCBSnapshot()
	if pcb.SndUna != pcb.SndNxt || pcb.SndNxt != uint64(len(msg)) {
		t.Fatalf("pcb = %+v", pcb)
	}
}

func TestBidirectional(t *testing.T) {
	w, _, st := testNet(t, 2)
	c, srv := connectPair(t, w, st[0], st[1], 5000)
	c.Send([]byte("ping"), false)
	srv.Send([]byte("pong"), false)
	run(t, w, func() bool { return srv.RecvQueueLen() == 4 && c.RecvQueueLen() == 4 })
	a, _ := srv.Recv(16, false, false)
	b, _ := c.Recv(16, false, false)
	if string(a) != "ping" || string(b) != "pong" {
		t.Fatalf("got %q, %q", a, b)
	}
}

func TestBacklogQueueAsynchrony(t *testing.T) {
	w, _, st := testNet(t, 2)
	c, srv := connectPair(t, w, st[0], st[1], 5000)
	c.Send([]byte("data"), false)
	// Run until the segment has arrived but before the kernel processes
	// the backlog: at that instant the data is invisible to recvmsg.
	run(t, w, func() bool { return srv.BacklogLen() > 0 })
	if srv.RecvQueueLen() != 0 {
		t.Fatal("data skipped backlog queue")
	}
	if _, err := srv.Recv(16, false, false); !errors.Is(err, ErrWouldBlock) {
		t.Fatalf("recv during backlog = %v", err)
	}
	// CheckpointReceiveData sees it even in the backlog.
	if got := srv.CheckpointReceiveData(); string(got) != "data" {
		t.Fatalf("checkpoint read = %q", got)
	}
	run(t, w, func() bool { return srv.RecvQueueLen() == 4 })
}

func TestRetransmissionUnderLoss(t *testing.T) {
	w, nw, st := testNet(t, 2)
	c, srv := connectPair(t, w, st[0], st[1], 5000)
	nw.SetLossRate(0.3)
	msg := bytes.Repeat([]byte{0x5a}, 20*MSS)
	sent := 0
	for sent < len(msg) {
		n, err := c.Send(msg[sent:], false)
		if err != nil && !errors.Is(err, ErrWouldBlock) {
			t.Fatal(err)
		}
		sent += n
		w.RunUntil(w.Now() + sim.Time(50*sim.Millisecond))
	}
	run(t, w, func() bool { return srv.RecvQueueLen() == len(msg) })
	got, _ := srv.Recv(len(msg), false, false)
	if !bytes.Equal(got, msg) {
		t.Fatal("stream corrupted under loss")
	}
}

func TestOutOfBandData(t *testing.T) {
	w, _, st := testNet(t, 2)
	c, srv := connectPair(t, w, st[0], st[1], 5000)
	c.Send([]byte("normal"), false)
	c.Send([]byte("!"), true)
	run(t, w, func() bool { return srv.OOBLen() == 1 && srv.RecvQueueLen() == 6 })
	if srv.Poll()&PollPRI == 0 {
		t.Fatal("PollPRI not set with pending OOB")
	}
	oob, err := srv.Recv(1, false, true)
	if err != nil || string(oob) != "!" {
		t.Fatalf("oob = %q, %v", oob, err)
	}
	norm, _ := srv.Recv(16, false, false)
	if string(norm) != "normal" {
		t.Fatalf("normal = %q", norm)
	}
}

func TestFINAndEOF(t *testing.T) {
	w, _, st := testNet(t, 2)
	c, srv := connectPair(t, w, st[0], st[1], 5000)
	c.Send([]byte("bye"), false)
	c.Shutdown(false, true)
	run(t, w, func() bool { return srv.PeerClosed() && srv.RecvQueueLen() == 3 })
	// Remaining data still readable, then EOF.
	got, _ := srv.Recv(16, false, false)
	if string(got) != "bye" {
		t.Fatalf("got %q", got)
	}
	// Unwrapped: mpi's pump compares the sentinel with ==.
	if _, err := srv.Recv(16, false, false); err != ErrEOF {
		t.Fatalf("want EOF, got %v", err)
	}
	if srv.Poll()&PollHUP == 0 {
		t.Fatal("PollHUP not set")
	}
	// Writing after local shutdown fails.
	if _, err := c.Send([]byte("x"), false); !errors.Is(err, ErrShutdown) {
		t.Fatalf("send after shutdown = %v", err)
	}
}

func TestCloseWithUnreadDataResets(t *testing.T) {
	w, _, st := testNet(t, 2)
	c, srv := connectPair(t, w, st[0], st[1], 5000)
	c.Send([]byte("pending"), false)
	run(t, w, func() bool { return srv.RecvQueueLen() == 7 })
	srv.Close()
	run(t, w, func() bool { return c.Err() != nil })
	if !errors.Is(c.Err(), ErrConnReset) {
		t.Fatalf("err = %v", c.Err())
	}
}

func TestGracefulCloseBothSides(t *testing.T) {
	w, _, st := testNet(t, 2)
	c, srv := connectPair(t, w, st[0], st[1], 5000)
	c.Close()
	run(t, w, func() bool { return srv.PeerClosed() })
	srv.Close()
	run(t, w, func() bool { return c.State() == StateClosed && srv.State() == StateClosed })
	if len(st[0].Sockets()) != 0 {
		t.Fatalf("client stack leaks sockets: %d", len(st[0].Sockets()))
	}
}

func TestSendBufferBackpressure(t *testing.T) {
	w, _, st := testNet(t, 2)
	c, srv := connectPair(t, w, st[0], st[1], 5000)
	// Block the network so nothing is acked; the send buffer must fill.
	st[0].Filter().BlockAll()
	big := make([]byte, 1<<20)
	total := 0
	for {
		n, err := c.Send(big, false)
		total += n
		if errors.Is(err, ErrWouldBlock) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if total > 1<<21 {
			t.Fatal("no backpressure")
		}
	}
	if int64(total) > c.GetOpt(SO_SNDBUF) {
		t.Fatalf("accepted %d > sndbuf", total)
	}
	if c.Poll()&PollOut != 0 {
		t.Fatal("PollOut set on full buffer")
	}
	// Unblock; retransmission drains the queue to the peer.
	st[0].Filter().UnblockAll()
	run(t, w, func() bool { return c.SendQueueSeqLen() == 0 })
	if srv.RecvQueueLen()+srv.BacklogLen() != total {
		t.Fatalf("peer got %d, want %d", srv.RecvQueueLen()+srv.BacklogLen(), total)
	}
}

func TestNetfilterBlocksBothDirections(t *testing.T) {
	w, nw, st := testNet(t, 2)
	c, srv := connectPair(t, w, st[0], st[1], 5000)
	st[1].Filter().BlockAll()
	before := nw.Delivered
	c.Send([]byte("x"), false)
	srv.Send([]byte("y"), false)
	w.RunUntil(w.Now() + sim.Time(100*sim.Millisecond))
	if srv.RecvQueueLen() != 0 || srv.BacklogLen() != 0 {
		t.Fatal("ingress not blocked")
	}
	if c.RecvQueueLen() != 0 {
		t.Fatal("egress not blocked")
	}
	if nw.Delivered != before {
		t.Fatalf("packets delivered through filter: %d", nw.Delivered-before)
	}
	// Unblock: retransmission recovers both directions, as the paper
	// relies on for in-flight data.
	st[1].Filter().UnblockAll()
	run(t, w, func() bool { return srv.RecvQueueLen() == 1 && c.RecvQueueLen() == 1 })
}

func TestPeekDoesNotConsume(t *testing.T) {
	w, _, st := testNet(t, 2)
	c, srv := connectPair(t, w, st[0], st[1], 5000)
	c.Send([]byte("peekable"), false)
	run(t, w, func() bool { return srv.RecvQueueLen() == 8 })
	p1, err := srv.Recv(4, true, false)
	if err != nil || string(p1) != "peek" {
		t.Fatalf("peek = %q, %v", p1, err)
	}
	got, _ := srv.Recv(8, false, false)
	if string(got) != "peekable" {
		t.Fatalf("read after peek = %q", got)
	}
}

func TestEphemeralPortsUnique(t *testing.T) {
	_, _, st := testNet(t, 1)
	seen := map[Port]bool{}
	for i := 0; i < 100; i++ {
		s := st[0].Socket(TCP)
		if err := s.Bind(0); err != nil {
			t.Fatal(err)
		}
		p := s.LocalAddr().Port
		if seen[p] {
			t.Fatalf("duplicate ephemeral port %d", p)
		}
		seen[p] = true
	}
}

func TestBindConflict(t *testing.T) {
	_, _, st := testNet(t, 1)
	a := st[0].Socket(TCP)
	if err := a.Bind(80); err != nil {
		t.Fatal(err)
	}
	b := st[0].Socket(TCP)
	if err := b.Bind(80); !errors.Is(err, ErrAddrInUse) {
		t.Fatalf("err = %v", err)
	}
}

func TestAcceptBacklogLimit(t *testing.T) {
	w, _, st := testNet(t, 2)
	l := st[1].Socket(TCP)
	l.Bind(5000)
	l.Listen(2)
	var clients []*Socket
	for i := 0; i < 5; i++ {
		c := st[0].Socket(TCP)
		if err := c.Connect(Addr{st[1].IPAddr(), 5000}); err != nil {
			t.Fatal(err)
		}
		clients = append(clients, c)
	}
	w.RunUntil(w.Now() + sim.Time(200*sim.Millisecond))
	if l.AcceptPending() > 2 {
		t.Fatalf("backlog exceeded: %d", l.AcceptPending())
	}
	// Draining the queue lets retrying clients in eventually.
	run(t, w, func() bool {
		for l.AcceptPending() > 0 {
			l.Accept()
		}
		n := 0
		for _, c := range clients {
			if c.State() == StateEstablished {
				n++
			}
		}
		return n == len(clients)
	})
}

func TestMigrationStalePacketsDropped(t *testing.T) {
	w, nw, st := testNet(t, 2)
	c, _ := connectPair(t, w, st[0], st[1], 5000)
	dropped := nw.Dropped
	c.Send([]byte("in flight"), false)
	nw.Detach(st[1]) // pod leaves before delivery
	w.RunUntil(w.Now() + sim.Time(10*sim.Millisecond))
	for _, x := range st[1].Sockets() {
		if x.RecvQueueLen() != 0 {
			t.Fatal("a detached stack received a packet in flight")
		}
	}
	if nw.Dropped == dropped {
		t.Fatal("the packet in flight was not dropped")
	}
}

func TestPCBInvariantRecvGEAcked(t *testing.T) {
	w, nw, st := testNet(t, 2)
	c, srv := connectPair(t, w, st[0], st[1], 5000)
	nw.SetLossRate(0.2)
	for i := 0; i < 50; i++ {
		c.Send(bytes.Repeat([]byte{byte(i)}, 100), false)
		srv.Send(bytes.Repeat([]byte{byte(i)}, 50), false)
		w.RunUntil(w.Now() + sim.Time(5*sim.Millisecond))
		// The paper's invariant: recv_1 >= acked_2 on both pairings.
		if srv.PCBSnapshot().RcvNxt < c.PCBSnapshot().SndUna {
			t.Fatal("invariant violated: srv.recv < c.acked")
		}
		if c.PCBSnapshot().RcvNxt < srv.PCBSnapshot().SndUna {
			t.Fatal("invariant violated: c.recv < srv.acked")
		}
	}
}

func TestSocketOptionsRoundTrip(t *testing.T) {
	_, _, st := testNet(t, 1)
	s := st[0].Socket(TCP)
	s.SetOpt(SO_KEEPALIVE, 1)
	s.SetOpt(TCP_NODELAY, 1)
	s.SetOpt(SO_RCVBUF, 128<<10)
	snap := s.OptsSnapshot()
	if snap[SO_KEEPALIVE] != 1 || snap[TCP_NODELAY] != 1 || snap[SO_RCVBUF] != 128<<10 {
		t.Fatalf("snapshot = %v", snap)
	}
}
