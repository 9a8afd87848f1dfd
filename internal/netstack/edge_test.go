package netstack

import (
	"errors"
	"testing"

	"zapc/internal/sim"
)

func TestOOBInline(t *testing.T) {
	w, _, st := testNet(t, 2)
	cli, srv, _ := func() (*Socket, *Socket, *Socket) {
		return connectPairHelper(t, w, st[0], st[1], 5000)
	}()
	srv.SetOpt(SO_OOBINLINE, 1)
	cli.Send([]byte("AB"), false)
	cli.Send([]byte("!"), true)
	cli.Send([]byte("CD"), false)
	run(t, w, func() bool { return srv.RecvQueueLen() == 5 })
	if srv.OOBLen() != 0 {
		t.Fatal("inline option still queued OOB separately")
	}
	d, _ := srv.Recv(16, false, false)
	if string(d) != "AB!CD" {
		t.Fatalf("inline stream = %q", d)
	}
}

// connectPairHelper mirrors connectPair for files that need it locally.
func connectPairHelper(t *testing.T, w *sim.World, a, b *Stack, port Port) (*Socket, *Socket, *Socket) {
	t.Helper()
	l := b.Socket(TCP)
	if err := l.Bind(port); err != nil {
		t.Fatal(err)
	}
	l.Listen(8)
	c := a.Socket(TCP)
	if err := c.Connect(Addr{b.IPAddr(), port}); err != nil {
		t.Fatal(err)
	}
	run(t, w, func() bool { return c.State() == StateEstablished && l.AcceptPending() > 0 })
	srv, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	return c, srv, l
}

func TestShutdownReadDiscardsArrivals(t *testing.T) {
	w, _, st := testNet(t, 2)
	cli, srv, _ := connectPairHelper(t, w, st[0], st[1], 5000)
	// Shut down with a segment still in the backlog: it is discarded and
	// the backlog's byte count with it.
	cli.Send([]byte("early"), false)
	run(t, w, func() bool { return srv.BacklogLen() > 0 })
	srv.Shutdown(true, false)
	if !countersMatchScans(cli, srv) {
		t.Fatal("queue counters diverged from the queues at read shutdown")
	}
	cli.Send([]byte("late"), false)
	w.RunUntil(w.Now() + sim.Time(100*sim.Millisecond))
	if srv.RecvQueueLen() != 0 || srv.BacklogLen() != 0 {
		t.Fatal("data queued after read shutdown")
	}
	if _, err := srv.Recv(16, false, false); !errors.Is(err, ErrEOF) {
		t.Fatalf("recv after read shutdown = %v", err)
	}
	// The sender's data must still be acknowledged (discarded, not
	// deadlocked).
	run(t, w, func() bool { return cli.SendQueueSeqLen() == 0 })
}

func TestDoubleCloseIsIdempotent(t *testing.T) {
	w, _, st := testNet(t, 2)
	cli, srv, _ := connectPairHelper(t, w, st[0], st[1], 5000)
	cli.Close()
	cli.Close() // must not panic or send twice
	run(t, w, func() bool { return srv.PeerClosed() })
	srv.Close()
	srv.Close()
	run(t, w, func() bool { return cli.State() == StateClosed && srv.State() == StateClosed })
}

func TestConnectTwiceRejected(t *testing.T) {
	_, _, st := testNet(t, 2)
	c := st[0].Socket(TCP)
	if err := c.Connect(Addr{st[1].IPAddr(), 80}); err != nil {
		t.Fatal(err)
	}
	if err := c.Connect(Addr{st[1].IPAddr(), 81}); !errors.Is(err, ErrBadState) {
		t.Fatalf("second connect: %v", err)
	}
}

func TestListenOnUDPRejected(t *testing.T) {
	_, _, st := testNet(t, 1)
	u := st[0].Socket(UDP)
	if err := u.Listen(4); !errors.Is(err, ErrBadState) {
		t.Fatalf("udp listen: %v", err)
	}
}

func TestAcceptOnNonListener(t *testing.T) {
	_, _, st := testNet(t, 1)
	s := st[0].Socket(TCP)
	if _, err := s.Accept(); !errors.Is(err, ErrNotListening) {
		t.Fatalf("accept: %v", err)
	}
}

func TestSendOnUnconnected(t *testing.T) {
	_, _, st := testNet(t, 1)
	s := st[0].Socket(TCP)
	if _, err := s.Send([]byte("x"), false); !errors.Is(err, ErrNotConnected) {
		t.Fatalf("send: %v", err)
	}
}

func TestDirectionalFilters(t *testing.T) {
	w, _, st := testNet(t, 2)
	cli, srv, _ := connectPairHelper(t, w, st[0], st[1], 5000)
	// Block only what stack 0 receives from stack 1.
	st[0].Filter().BlockIn(st[1].IPAddr())
	srv.Send([]byte("z"), false)
	cli.Send([]byte("w"), false)
	w.RunUntil(w.Now() + sim.Time(50*sim.Millisecond))
	if cli.RecvQueueLen() != 0 {
		t.Fatalf("ingress rule leaked: %d", cli.RecvQueueLen())
	}
	if got := srv.RecvQueueLen() + srv.BacklogLen(); got != 1 {
		t.Fatalf("the other direction should still flow: srv got %d bytes", got)
	}
	delete(st[0].Filter().ingress, st[1].IPAddr())
	run(t, w, func() bool { return cli.RecvQueueLen() == 1 })
	if got := srv.RecvQueueLen() + srv.BacklogLen(); got != 1 {
		t.Fatalf("srv got %d bytes", got)
	}
}

func TestFilterBlocked(t *testing.T) {
	var f Filter
	if f.Blocked() {
		t.Fatal("fresh filter not clean")
	}
	f.BlockAll()
	f.BlockIn(6)
	if !f.Blocked() {
		t.Fatal("filter with two rules not blocked")
	}
	f.UnblockAll()
	if !f.Blocked() {
		t.Fatal("UnblockAll removed the ingress rule")
	}
	delete(f.ingress, 6)
	if f.Blocked() {
		t.Fatal("filter still blocked after clearing")
	}
}

func TestAllOptsStableAndComplete(t *testing.T) {
	opts := AllOpts()
	if len(opts) < 15 {
		t.Fatalf("only %d options defined", len(opts))
	}
	seen := map[Opt]bool{}
	for _, o := range opts {
		if seen[o] {
			t.Fatalf("duplicate option %d", o)
		}
		seen[o] = true
	}
	if !seen[SO_RCVBUF] || !seen[TCP_STDURG] || !seen[SO_OOBINLINE] {
		t.Fatal("expected options missing")
	}
}

func TestDefaultBuffersPresent(t *testing.T) {
	_, _, st := testNet(t, 1)
	s := st[0].Socket(TCP)
	if s.GetOpt(SO_RCVBUF) <= 0 || s.GetOpt(SO_SNDBUF) <= 0 {
		t.Fatal("default buffer sizes missing")
	}
	if s.GetOpt(TCP_MAXSEG) != MSS {
		t.Fatalf("default MSS = %d", s.GetOpt(TCP_MAXSEG))
	}
}

func TestNetworkClaimRefusesTCPOnly(t *testing.T) {
	w, nw, st := testNet(t, 1)
	nw.Claim(IP(50))
	c := st[0].Socket(TCP)
	c.Connect(Addr{IP: 50, Port: 80})
	run(t, w, func() bool { return c.Err() != nil })
	if !errors.Is(c.Err(), ErrConnRefused) {
		t.Fatalf("err = %v", c.Err())
	}
	// UDP to a claimed address is silently dropped, as on a real host
	// with no socket (no ICMP in the model).
	u := st[0].Socket(UDP)
	if _, err := u.SendTo([]byte("x"), Addr{IP: 50, Port: 80}); err != nil {
		t.Fatal(err)
	}
	w.RunUntil(w.Now() + sim.Time(10*sim.Millisecond))
	// Claim is consumed when a real stack attaches.
	if _, err := nw.NewStack(50); err != nil {
		t.Fatal(err)
	}
	c2 := st[0].Socket(TCP)
	c2.Connect(Addr{IP: 50, Port: 80})
	run(t, w, func() bool { return c2.Err() != nil })
	// Refused by the real stack now (no listener), not by the claim.
	if !errors.Is(c2.Err(), ErrConnRefused) {
		t.Fatalf("err = %v", c2.Err())
	}
}

func TestDuplicateSYNAfterEstablishment(t *testing.T) {
	// A SYN retransmission arriving after the child is established must
	// elicit a fresh SYNACK, not silence (lost-SYNACK recovery).
	w, nw, st := testNet(t, 2)
	l := st[1].Socket(TCP)
	l.Bind(80)
	l.Listen(4)
	// Lose every packet from server to client once: the SYNACK dies.
	st[0].Filter().BlockIn(st[1].IPAddr())
	c := st[0].Socket(TCP)
	c.Connect(Addr{st[1].IPAddr(), 80})
	run(t, w, func() bool { return l.AcceptPending() == 1 })
	if c.State() == StateEstablished {
		t.Fatal("client established without SYNACK")
	}
	delete(st[0].Filter().ingress, st[1].IPAddr())
	// The client's SYN retry now reaches the established child, which
	// must re-acknowledge.
	run(t, w, func() bool { return c.State() == StateEstablished })
	_ = nw
}
