package netckpt

import (
	"bytes"
	"errors"
	"testing"

	"zapc/internal/netstack"
	"zapc/internal/sim"
)

func mkWorld(seed int64) (*sim.World, *netstack.Network) {
	w := sim.NewWorld(seed)
	return w, netstack.NewNetwork(w)
}

func mkStack(t *testing.T, nw *netstack.Network, ip netstack.IP) *netstack.Stack {
	t.Helper()
	st, err := nw.NewStack(ip)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func drive(t *testing.T, w *sim.World, cond func() bool) {
	t.Helper()
	deadline := w.Now() + sim.Time(60*sim.Second)
	for !cond() {
		if w.Now() > deadline {
			t.Fatal("condition not reached before deadline")
		}
		if !w.Step() {
			if cond() {
				return
			}
			t.Fatal("event queue drained before condition")
		}
	}
}

// establish builds a client-server connection between two stacks.
func establish(t *testing.T, w *sim.World, a, b *netstack.Stack, port netstack.Port) (cli, srv, listener *netstack.Socket) {
	t.Helper()
	l := b.Socket(netstack.TCP)
	if err := l.Bind(port); err != nil {
		t.Fatal(err)
	}
	l.Listen(16)
	c := a.Socket(netstack.TCP)
	if err := c.Connect(netstack.Addr{IP: b.IPAddr(), Port: port}); err != nil {
		t.Fatal(err)
	}
	drive(t, w, func() bool { return c.State() == netstack.StateEstablished && l.AcceptPending() > 0 })
	s, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	return c, s, l
}

// freezeCheckpoint blocks both stacks and checkpoints them.
func freezeCheckpoint(t *testing.T, stacks ...*netstack.Stack) map[netstack.IP]*NetImage {
	t.Helper()
	for _, st := range stacks {
		st.Filter().BlockAll()
	}
	images := make(map[netstack.IP]*NetImage)
	for _, st := range stacks {
		img, err := CheckpointStack(st)
		if err != nil {
			t.Fatal(err)
		}
		if img.PodIP != st.IPAddr() {
			t.Fatal("image pod ip mismatch")
		}
		images[st.IPAddr()] = img
	}
	return images
}

// restoreAll detaches old stacks, creates fresh ones under the same IPs,
// and runs the restorers to completion. Returns slot-indexed sockets per
// pod.
func restoreAll(t *testing.T, w *sim.World, nw *netstack.Network,
	images map[netstack.IP]*NetImage, old ...*netstack.Stack) map[netstack.IP][]*netstack.Socket {
	t.Helper()
	for _, st := range old {
		nw.Detach(st)
	}
	plans, err := PlanRestart(images)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[netstack.IP][]*netstack.Socket)
	pending := 0
	var firstErr error
	for ip, img := range images {
		st := mkStack(t, nw, ip)
		r := NewRestorer(st, img, plans[ip], func(err error) {
			pending--
			if err != nil && firstErr == nil {
				firstErr = err
			}
		})
		pending++
		out[ip] = r.Sockets()
		r.Start()
	}
	drive(t, w, func() bool { return pending == 0 || firstErr != nil })
	if firstErr != nil {
		t.Fatalf("restore failed: %v", firstErr)
	}
	return out
}

func TestCheckpointRequiresBlockedNetwork(t *testing.T) {
	_, nw := mkWorld(1)
	st := mkStack(t, nw, 1)
	if _, err := CheckpointStack(st); err == nil {
		t.Fatal("checkpoint of unblocked stack must fail")
	}
}

func TestCheckpointCapturesQueues(t *testing.T) {
	w, nw := mkWorld(2)
	a := mkStack(t, nw, 1)
	b := mkStack(t, nw, 2)
	cli, srv, _ := establish(t, w, a, b, 80)
	cli.Send([]byte("hello world"), false)
	cli.Send([]byte("!"), true) // OOB
	srv.Send([]byte("reply"), false)
	drive(t, w, func() bool {
		return srv.RecvQueueLen()+srv.BacklogLen() == 11 && srv.OOBLen() == 1 && cli.RecvQueueLen()+cli.BacklogLen() == 5
	})
	images := freezeCheckpoint(t, a, b)

	imgB := images[2]
	var srvRec *SocketRecord
	for i := range imgB.Sockets {
		if imgB.Sockets[i].State == netstack.StateEstablished {
			srvRec = &imgB.Sockets[i]
		}
	}
	if srvRec == nil {
		t.Fatal("no established record on server pod")
	}
	if string(srvRec.RecvData) != "hello world" {
		t.Fatalf("recv data = %q", srvRec.RecvData)
	}
	if string(srvRec.OOBData) != "!" {
		t.Fatalf("oob = %q", srvRec.OOBData)
	}
	if srvRec.PCB.RcvNxt != 12 { // 11 normal + 1 oob
		t.Fatalf("rcvnxt = %d", srvRec.PCB.RcvNxt)
	}
	// Checkpoint is side-effect free.
	if srv.RecvQueueLen()+srv.BacklogLen() != 11 || srv.OOBLen() != 1 {
		t.Fatal("checkpoint mutated socket queues")
	}
	if imgB.QueueBytes() == 0 || imgB.Bytes() < imgB.QueueBytes() {
		t.Fatalf("size accounting wrong: %d / %d", imgB.Bytes(), imgB.QueueBytes())
	}
}

func TestImageEncodeDecodeRoundTrip(t *testing.T) {
	img := &NetImage{
		PodIP: 7,
		Sockets: []SocketRecord{
			{
				Slot: 0, CreateSeq: 3, Proto: netstack.TCP, State: netstack.StateEstablished,
				Local: netstack.Addr{IP: 7, Port: 80}, Remote: netstack.Addr{IP: 9, Port: 1234},
				Opts:     netstack.OptSet{netstack.SO_RCVBUF: 4096, netstack.SO_KEEPALIVE: 1},
				RecvData: []byte("recv"), OOBData: []byte("o"),
				SendChunks: []netstack.Chunk{{Data: []byte("abc")}, {Data: []byte("d"), OOB: true}, {FIN: true}},
				PCB:        netstack.PCB{SndNxt: 10, SndUna: 6, RcvNxt: 22},
				ShutWrite:  true, PeerClosed: false, PendingAcceptOf: -1,
			},
			{
				Slot: 1, Proto: netstack.UDP, Local: netstack.Addr{IP: 7, Port: 53},
				Datagrams: []netstack.Datagram{{From: netstack.Addr{IP: 9, Port: 5353}, Data: []byte("q")}},
				Peeked:    true, PendingAcceptOf: -1,
			},
			{
				Slot: 2, Proto: netstack.RAW, RawProto: 89, PendingAcceptOf: -1,
				Local: netstack.Addr{IP: 7},
			},
			{
				Slot: 3, Proto: netstack.TCP, State: netstack.StateListening,
				Local: netstack.Addr{IP: 7, Port: 80}, ListenBacklog: 16, PendingAcceptOf: -1,
			},
		},
	}
	got := decoded(t, img)
	if got.PodIP != img.PodIP || len(got.Sockets) != len(img.Sockets) {
		t.Fatalf("shape mismatch: %+v", got)
	}
	r0 := got.Sockets[0]
	if r0.PCB != img.Sockets[0].PCB || !bytes.Equal(r0.RecvData, []byte("recv")) ||
		len(r0.SendChunks) != 3 || !r0.SendChunks[1].OOB || !r0.SendChunks[2].FIN ||
		!r0.ShutWrite || r0.Remote.Port != 1234 || r0.Opts != img.Sockets[0].Opts {
		t.Fatalf("record 0 mismatch: %+v", r0)
	}
	if !got.Sockets[1].Peeked || len(got.Sockets[1].Datagrams) != 1 {
		t.Fatalf("record 1 mismatch: %+v", got.Sockets[1])
	}
	if got.Sockets[2].RawProto != 89 {
		t.Fatalf("record 2 mismatch: %+v", got.Sockets[2])
	}
	if got.Sockets[3].ListenBacklog != 16 {
		t.Fatalf("record 3 mismatch: %+v", got.Sockets[3])
	}
}

func TestFullRestoreCycle(t *testing.T) {
	w, nw := mkWorld(5)
	a := mkStack(t, nw, 1)
	b := mkStack(t, nw, 2)
	cli, srv, _ := establish(t, w, a, b, 80)

	// Client writes 30 KB; server consumes only the first 10 KB before
	// the checkpoint.
	payload := make([]byte, 30<<10)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	sent := 0
	for sent < len(payload) {
		n, err := cli.Send(payload[sent:], false)
		if err != nil && !errors.Is(err, netstack.ErrWouldBlock) {
			t.Fatal(err)
		}
		sent += n
		w.RunUntil(w.Now() + sim.Time(sim.Millisecond))
	}
	var consumed []byte
	drive(t, w, func() bool { return srv.RecvQueueLen() >= 10<<10 })
	got, _ := srv.Recv(10<<10, false, false)
	consumed = append(consumed, got...)

	images := freezeCheckpoint(t, a, b)
	socks := restoreAll(t, w, nw, images, a, b)

	// Find the restored server-side socket (established, on pod 2).
	var newSrv *netstack.Socket
	for _, s := range socks[2] {
		if s != nil && s.State() == netstack.StateEstablished {
			newSrv = s
		}
	}
	if newSrv == nil {
		t.Fatal("no restored established socket on pod 2")
	}
	// Read everything the application is still owed.
	drive(t, w, func() bool {
		for {
			d, err := newSrv.Recv(1<<20, false, false)
			if err != nil || len(d) == 0 {
				break
			}
			consumed = append(consumed, d...)
		}
		return len(consumed) >= len(payload)
	})
	if !bytes.Equal(consumed, payload) {
		t.Fatalf("stream mismatch after restore: got %d bytes, want %d (first diff at %d)",
			len(consumed), len(payload), firstDiff(consumed, payload))
	}
	// No duplicate tail.
	w.RunUntil(w.Now() + sim.Time(500*sim.Millisecond))
	if d, err := newSrv.Recv(1<<20, false, false); err == nil && len(d) > 0 {
		t.Fatalf("received %d duplicate bytes after full stream", len(d))
	}
}

func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

func TestOverlapDiscardNoDuplicates(t *testing.T) {
	w, nw := mkWorld(6)
	a := mkStack(t, nw, 1)
	b := mkStack(t, nw, 2)
	cli, srv, _ := establish(t, w, a, b, 80)

	// Engineer recv_1 > acked_2: data reaches the server but the acks
	// never make it back (block the server's egress only).
	msg := bytes.Repeat([]byte("overlap!"), 512) // 4 KB
	// Block only the client's ingress so its data still flows to the
	// server but the server's acks are dropped at the client.
	a.Filter().BlockIn(2)
	cli.Send(msg, false)
	drive(t, w, func() bool { return srv.RecvQueueLen()+srv.BacklogLen() == len(msg) })
	pcbC, pcbS := cli.PCBSnapshot(), srv.PCBSnapshot()
	if pcbS.RcvNxt <= pcbC.SndUna {
		t.Fatalf("failed to create overlap: rcvnxt=%d snduná=%d", pcbS.RcvNxt, pcbC.SndUna)
	}
	if pcbC.SndUna != 0 {
		t.Fatalf("acks leaked: snduna=%d", pcbC.SndUna)
	}

	images := freezeCheckpoint(t, a, b)
	socks := restoreAll(t, w, nw, images, a, b)

	var newSrv *netstack.Socket
	for _, s := range socks[2] {
		if s != nil && s.State() == netstack.StateEstablished {
			newSrv = s
		}
	}
	var consumed []byte
	drive(t, w, func() bool {
		for {
			d, err := newSrv.Recv(1<<20, false, false)
			if err != nil || len(d) == 0 {
				break
			}
			consumed = append(consumed, d...)
		}
		return len(consumed) >= len(msg)
	})
	if !bytes.Equal(consumed, msg) {
		t.Fatalf("duplicate or lost data: got %d want %d", len(consumed), len(msg))
	}
	w.RunUntil(w.Now() + sim.Time(500*sim.Millisecond))
	if d, err := newSrv.Recv(1<<20, false, false); err == nil && len(d) > 0 {
		t.Fatalf("got %d duplicated bytes (overlap not discarded)", len(d))
	}
}

func TestAltQueueInterposition(t *testing.T) {
	w, nw := mkWorld(7)
	a := mkStack(t, nw, 1)
	b := mkStack(t, nw, 2)
	cli, srv, _ := establish(t, w, a, b, 80)

	InstallAltQueue(srv, []byte("OLD-"))
	if srv.Poll()&netstack.PollIn == 0 {
		t.Fatal("interposed poll hides alternate data")
	}
	// New data arriving is served only after the alternate queue drains.
	cli.Send([]byte("NEW"), false)
	drive(t, w, func() bool { return srv.RecvQueueLen() == 3 })
	d1, err := srv.Recv(100, false, false)
	if err != nil || string(d1) != "OLD-" {
		t.Fatalf("first read = %q, %v", d1, err)
	}
	// Dispatch vector must be back to the default now.
	if _, isAlt := srv.CurrentOps().(altOps); isAlt {
		t.Fatal("alt ops still installed after drain")
	}
	d2, _ := srv.Recv(100, false, false)
	if string(d2) != "NEW" {
		t.Fatalf("second read = %q", d2)
	}
}

func TestAltQueuePeekKeepsInterposition(t *testing.T) {
	_, nw := mkWorld(8)
	a := mkStack(t, nw, 1)
	s := a.Socket(netstack.TCP)
	InstallAltQueue(s, []byte("xyz"))
	d, err := s.Recv(3, true, false)
	if err != nil || string(d) != "xyz" {
		t.Fatalf("peek = %q, %v", d, err)
	}
	if _, isAlt := s.CurrentOps().(altOps); !isAlt {
		t.Fatal("peek uninstalled interposition")
	}
	if s.AltQueueLen() != 3 {
		t.Fatal("peek consumed alt data")
	}
}

func TestSecondCheckpointSavesAltQueue(t *testing.T) {
	w, nw := mkWorld(9)
	a := mkStack(t, nw, 1)
	b := mkStack(t, nw, 2)
	cli, srv, _ := establish(t, w, a, b, 80)
	_ = cli
	InstallAltQueue(srv, []byte("restored-but-unread-"))
	cli.Send([]byte("tail"), false)
	drive(t, w, func() bool { return srv.RecvQueueLen() == 4 })
	images := freezeCheckpoint(t, a, b)
	var rec *SocketRecord
	for i := range images[2].Sockets {
		if images[2].Sockets[i].State == netstack.StateEstablished {
			rec = &images[2].Sockets[i]
		}
	}
	if string(rec.RecvData) != "restored-but-unread-tail" {
		t.Fatalf("second checkpoint recv data = %q", rec.RecvData)
	}
}

func TestSharedSourcePortSchedule(t *testing.T) {
	w, nw := mkWorld(10)
	a := mkStack(t, nw, 1)
	b := mkStack(t, nw, 2)
	// Two clients from pod 1 to the same listener on pod 2: the two
	// server-side children share source port 80.
	c1, s1, l := establish(t, w, a, b, 80)
	c2 := a.Socket(netstack.TCP)
	c2.Connect(netstack.Addr{IP: 2, Port: 80})
	drive(t, w, func() bool { return c2.State() == netstack.StateEstablished && l.AcceptPending() > 0 })
	s2, _ := l.Accept()

	c1.Send([]byte("one"), false)
	c2.Send([]byte("two"), false)
	drive(t, w, func() bool { return s1.RecvQueueLen() == 3 && s2.RecvQueueLen() == 3 })

	images := freezeCheckpoint(t, a, b)
	plans, err := PlanRestart(images)
	if err != nil {
		t.Fatal(err)
	}
	// Pod 2 must accept both (shared source port), pod 1 connects.
	for _, e := range plans[2].Entries {
		if e.Type != EntryAccept {
			t.Fatalf("pod2 entry %v not accept-type", e)
		}
	}
	for _, e := range plans[1].Entries {
		if e.Type != EntryConnect {
			t.Fatalf("pod1 entry %v not connect-type", e)
		}
	}
	socks := restoreAll(t, w, nw, images, a, b)
	// Both children restored with their queues.
	var got []string
	for _, s := range socks[2] {
		if s != nil && s.State() == netstack.StateEstablished {
			d, err := s.Recv(100, false, false)
			if err == nil {
				got = append(got, string(d))
			}
		}
	}
	if len(got) != 2 {
		t.Fatalf("restored children = %v", got)
	}
	if !(got[0] == "one" && got[1] == "two" || got[0] == "two" && got[1] == "one") {
		t.Fatalf("queues mixed up: %v", got)
	}
}

func TestRingTopologyNoDeadlock(t *testing.T) {
	w, nw := mkWorld(11)
	const n = 4
	stacks := make([]*netstack.Stack, n)
	for i := range stacks {
		stacks[i] = mkStack(t, nw, netstack.IP(i+1))
	}
	// Ring: each node listens and connects to the next.
	type conn struct{ c, s *netstack.Socket }
	conns := make([]conn, n)
	for i := range stacks {
		l := stacks[i].Socket(netstack.TCP)
		l.Bind(80)
		l.Listen(4)
	}
	for i := range stacks {
		next := (i + 1) % n
		c := stacks[i].Socket(netstack.TCP)
		c.Connect(netstack.Addr{IP: netstack.IP(next + 1), Port: 80})
		conns[i].c = c
	}
	drive(t, w, func() bool {
		for i := range conns {
			if conns[i].c.State() != netstack.StateEstablished {
				return false
			}
		}
		return true
	})
	for i := range stacks {
		for _, s := range stacks[i].Sockets() {
			if s.State() == netstack.StateListening {
				for s.AcceptPending() > 0 {
					child, _ := s.Accept()
					conns[i].s = child
				}
			}
		}
	}
	// Send a token around the ring so every connection has queue data.
	for i := range conns {
		conns[i].c.Send([]byte{byte(i)}, false)
	}
	drive(t, w, func() bool {
		for i := range conns {
			if conns[i].s == nil || conns[i].s.RecvQueueLen() == 0 {
				return false
			}
		}
		return true
	})
	images := freezeCheckpoint(t, stacks...)
	socks := restoreAll(t, w, nw, images, stacks...)
	// Every pod must end with 1 restored listener + 2 established ends.
	for ip := netstack.IP(1); ip <= n; ip++ {
		est := 0
		for _, s := range socks[ip] {
			if s != nil && s.State() == netstack.StateEstablished {
				est++
			}
		}
		if est != 2 {
			t.Fatalf("pod %v restored %d established sockets, want 2", ip, est)
		}
	}
}

func TestPendingAcceptRestoredToQueue(t *testing.T) {
	w, nw := mkWorld(12)
	a := mkStack(t, nw, 1)
	b := mkStack(t, nw, 2)
	l := b.Socket(netstack.TCP)
	l.Bind(80)
	l.Listen(8)
	c := a.Socket(netstack.TCP)
	c.Connect(netstack.Addr{IP: 2, Port: 80})
	drive(t, w, func() bool { return c.State() == netstack.StateEstablished && l.AcceptPending() == 1 })
	c.Send([]byte("early"), false)
	drive(t, w, func() bool { return l.AcceptQueue()[0].RecvQueueLen() == 5 })

	images := freezeCheckpoint(t, a, b)
	socks := restoreAll(t, w, nw, images, a, b)

	var newL *netstack.Socket
	for _, s := range socks[2] {
		if s != nil && s.State() == netstack.StateListening {
			newL = s
		}
	}
	if newL == nil {
		t.Fatal("listener not restored")
	}
	if newL.AcceptPending() != 1 {
		t.Fatalf("accept queue = %d, want 1", newL.AcceptPending())
	}
	child, err := newL.Accept()
	if err != nil {
		t.Fatal(err)
	}
	d, err := child.Recv(100, false, false)
	if err != nil || string(d) != "early" {
		t.Fatalf("pending child data = %q, %v", d, err)
	}
}

func TestHalfDuplexRestored(t *testing.T) {
	w, nw := mkWorld(13)
	a := mkStack(t, nw, 1)
	b := mkStack(t, nw, 2)
	cli, srv, _ := establish(t, w, a, b, 80)
	cli.Send([]byte("final"), false)
	cli.Shutdown(false, true)
	drive(t, w, func() bool { return srv.PeerClosed() })

	images := freezeCheckpoint(t, a, b)
	socks := restoreAll(t, w, nw, images, a, b)

	var newSrv *netstack.Socket
	for _, s := range socks[2] {
		if s != nil && s.State() == netstack.StateEstablished {
			newSrv = s
		}
	}
	var data []byte
	drive(t, w, func() bool {
		d, err := newSrv.Recv(100, false, false)
		if err == nil {
			data = append(data, d...)
		}
		return newSrv.PeerClosed() && len(data) == 5
	})
	if string(data) != "final" {
		t.Fatalf("data = %q", data)
	}
	// Unwrapped through the restored socket's ops too: mpi's pump
	// compares the sentinel with ==.
	if _, err := newSrv.Recv(100, false, false); err != netstack.ErrEOF {
		t.Fatalf("want EOF after drained half-closed stream, got %v", err)
	}
	// The client side must still be able to receive (half duplex).
	var newCli *netstack.Socket
	for _, s := range socks[1] {
		if s != nil && s.State() == netstack.StateEstablished {
			newCli = s
		}
	}
	newSrv.Send([]byte("back"), false)
	drive(t, w, func() bool { return newCli.RecvQueueLen() == 4 })
}

func TestUDPRestore(t *testing.T) {
	w, nw := mkWorld(14)
	a := mkStack(t, nw, 1)
	b := mkStack(t, nw, 2)
	rx := b.Socket(netstack.UDP)
	rx.Bind(53)
	tx := a.Socket(netstack.UDP)
	tx.Bind(5000)
	tx.SendTo([]byte("q1"), netstack.Addr{IP: 2, Port: 53})
	tx.SendTo([]byte("q2"), netstack.Addr{IP: 2, Port: 53})
	drive(t, w, func() bool { return len(rx.DatagramQueue()) == 2 })
	rx.RecvFrom(true) // peek obliges preservation

	images := freezeCheckpoint(t, a, b)
	var rec *SocketRecord
	for i := range images[2].Sockets {
		if images[2].Sockets[i].Proto == netstack.UDP {
			rec = &images[2].Sockets[i]
		}
	}
	if !rec.Peeked || len(rec.Datagrams) != 2 {
		t.Fatalf("udp record: peeked=%v n=%d", rec.Peeked, len(rec.Datagrams))
	}
	socks := restoreAll(t, w, nw, images, a, b)
	var newRx *netstack.Socket
	for _, s := range socks[2] {
		if s != nil && s.Proto() == netstack.UDP {
			newRx = s
		}
	}
	d1, _ := newRx.RecvFrom(false)
	d2, _ := newRx.RecvFrom(false)
	if string(d1.Data) != "q1" || string(d2.Data) != "q2" {
		t.Fatalf("restored datagrams: %q %q", d1.Data, d2.Data)
	}
	if d1.From.Port != 5000 {
		t.Fatalf("source address lost: %v", d1.From)
	}
	// New traffic still flows to the restored socket.
	var newTx *netstack.Socket
	for _, s := range socks[1] {
		if s != nil && s.Proto() == netstack.UDP {
			newTx = s
		}
	}
	newTx.SendTo([]byte("fresh"), netstack.Addr{IP: 2, Port: 53})
	drive(t, w, func() bool { return len(newRx.DatagramQueue()) == 1 })
}

func TestRawRestore(t *testing.T) {
	w, nw := mkWorld(15)
	a := mkStack(t, nw, 1)
	b := mkStack(t, nw, 2)
	rx := b.Socket(netstack.RAW)
	rx.BindRaw(89)
	tx := a.Socket(netstack.RAW)
	tx.BindRaw(89)
	tx.SendRaw(2, []byte("pkt"))
	drive(t, w, func() bool { return len(rx.DatagramQueue()) == 1 })

	images := freezeCheckpoint(t, a, b)
	socks := restoreAll(t, w, nw, images, a, b)
	var newRx *netstack.Socket
	for _, s := range socks[2] {
		if s != nil && s.Proto() == netstack.RAW {
			newRx = s
		}
	}
	if newRx.RawProto() != 89 {
		t.Fatalf("raw proto = %d", newRx.RawProto())
	}
	d, err := newRx.RecvFrom(false)
	if err != nil || string(d.Data) != "pkt" {
		t.Fatalf("restored raw dgram = %v, %v", d, err)
	}
}

func TestRemapImage(t *testing.T) {
	img := &NetImage{
		PodIP: 1,
		Sockets: []SocketRecord{{
			Proto: netstack.TCP, State: netstack.StateEstablished,
			Local:           netstack.Addr{IP: 1, Port: 80},
			Remote:          netstack.Addr{IP: 2, Port: 999},
			Datagrams:       []netstack.Datagram{{From: netstack.Addr{IP: 2, Port: 1}}},
			PendingAcceptOf: -1,
		}},
	}
	RemapImage(img, map[netstack.IP]netstack.IP{1: 10, 2: 20})
	if img.PodIP != 10 {
		t.Fatalf("pod ip = %v", img.PodIP)
	}
	r := img.Sockets[0]
	if r.Local.IP != 10 || r.Remote.IP != 20 || r.Datagrams[0].From.IP != 20 {
		t.Fatalf("remap incomplete: %+v", r)
	}
	if r.Local.Port != 80 || r.Remote.Port != 999 {
		t.Fatal("ports must be preserved")
	}
}

func TestRestartOnNewAddresses(t *testing.T) {
	w, nw := mkWorld(16)
	a := mkStack(t, nw, 1)
	b := mkStack(t, nw, 2)
	cli, srv, _ := establish(t, w, a, b, 80)
	cli.Send([]byte("migrate me"), false)
	drive(t, w, func() bool { return srv.RecvQueueLen() == 10 })

	images := freezeCheckpoint(t, a, b)
	nw.Detach(a)
	nw.Detach(b)
	// Migrate to a different subnet: 1->101, 2->102.
	remap := map[netstack.IP]netstack.IP{1: 101, 2: 102}
	remapped := make(map[netstack.IP]*NetImage)
	for _, img := range images {
		RemapImage(img, remap)
		remapped[img.PodIP] = img
	}
	socks := restoreAll(t, w, nw, remapped)
	var newSrv *netstack.Socket
	for _, s := range socks[102] {
		if s != nil && s.State() == netstack.StateEstablished {
			newSrv = s
		}
	}
	if newSrv.LocalAddr().IP != 102 || newSrv.RemoteAddr().IP != 101 {
		t.Fatalf("addresses not remapped: %v <- %v", newSrv.LocalAddr(), newSrv.RemoteAddr())
	}
	d, err := newSrv.Recv(100, false, false)
	if err != nil || string(d) != "migrate me" {
		t.Fatalf("data after remapped restore = %q, %v", d, err)
	}
}

func TestRedirectOptimization(t *testing.T) {
	w, nw := mkWorld(17)
	a := mkStack(t, nw, 1)
	b := mkStack(t, nw, 2)
	cli, srv, _ := establish(t, w, a, b, 80)
	// Block everything so the send queue retains all data unacked.
	a.Filter().BlockAll()
	b.Filter().BlockAll()
	msg := bytes.Repeat([]byte("redirect"), 1024)
	cli.Send(msg, false)
	images := freezeCheckpoint(t, a, b)

	moved := ApplyRedirect(images)
	if moved != int64(len(msg)) {
		t.Fatalf("moved = %d, want %d", moved, len(msg))
	}
	// Sender record emptied and flagged; receiver record carries data.
	for i := range images[1].Sockets {
		r := &images[1].Sockets[i]
		if r.State == netstack.StateEstablished {
			if !r.Redirected || len(r.SendChunks) != 0 {
				t.Fatalf("sender record not redirected: %+v", r)
			}
		}
	}
	wireBefore := nw.BytesSent
	socks := restoreAll(t, w, nw, images, a, b)
	var newSrv *netstack.Socket
	for _, s := range socks[2] {
		if s != nil && s.State() == netstack.StateEstablished {
			newSrv = s
		}
	}
	d, err := newSrv.Recv(1<<20, false, false)
	if err != nil || !bytes.Equal(d, msg) {
		t.Fatalf("redirected data mismatch: %d bytes, %v", len(d), err)
	}
	// The data never crossed the wire during restore (only handshakes).
	wireDelta := nw.BytesSent - wireBefore
	if wireDelta > int64(len(msg))/2 {
		t.Fatalf("redirect still transferred %d wire bytes", wireDelta)
	}
	_ = srv
}

func TestDiscardOverlapUnit(t *testing.T) {
	chunks := []netstack.Chunk{
		{Data: []byte("aaaa")},
		{Data: []byte("bb"), OOB: true},
		{FIN: true},
	}
	out := DiscardOverlap(chunks, 0)
	if len(out) != 3 {
		t.Fatal("zero overlap must not trim")
	}
	out = DiscardOverlap(append([]netstack.Chunk(nil), chunks...), 4)
	if len(out) != 2 || !out[0].OOB {
		t.Fatalf("out = %+v", out)
	}
	fresh := []netstack.Chunk{{Data: []byte("aaaa")}, {Data: []byte("bb"), OOB: true}, {FIN: true}}
	out = DiscardOverlap(fresh, 5)
	if len(out) != 2 || string(out[0].Data) != "b" {
		t.Fatalf("mid-chunk trim failed: %+v", out)
	}
	fresh2 := []netstack.Chunk{{Data: []byte("aaaa")}, {FIN: true}}
	out = DiscardOverlap(fresh2, 5)
	if len(out) != 0 {
		t.Fatalf("full trim failed: %+v", out)
	}
}

func TestOverlapClamp(t *testing.T) {
	pcb := netstack.PCB{SndUna: 100, SndNxt: 150}
	if Overlap(pcb, 90) != 0 {
		t.Fatal("peer behind acked should be zero")
	}
	if Overlap(pcb, 120) != 20 {
		t.Fatal("plain overlap")
	}
	if Overlap(pcb, 1000) != 50 {
		t.Fatal("overlap must clamp to the sent window")
	}
}
