package netckpt

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"zapc/internal/netstack"
	"zapc/internal/sim"
)

// streamRig drives a bidirectional connection with scripted writes and
// partial reads, checkpoints both pods at an arbitrary instant, restores
// them onto fresh stacks, and drains the remainder.
type streamRig struct {
	w        *sim.World
	nw       *netstack.Network
	a, b     *netstack.Stack
	cli, srv *netstack.Socket
}

func newStreamRig(seed int64, loss float64) (*streamRig, bool) {
	w := sim.NewWorld(seed)
	nw := netstack.NewNetwork(w)
	a, _ := nw.NewStack(1)
	b, _ := nw.NewStack(2)
	nw.SetLossRate(loss)
	l := b.Socket(netstack.TCP)
	l.Bind(80)
	l.Listen(4)
	c := a.Socket(netstack.TCP)
	c.Connect(netstack.Addr{IP: 2, Port: 80})
	for c.State() != netstack.StateEstablished {
		if c.Err() != nil {
			c = a.Socket(netstack.TCP)
			c.Connect(netstack.Addr{IP: 2, Port: 80})
		}
		if !w.Step() && c.State() != netstack.StateEstablished {
			return nil, false
		}
	}
	srv, ok := func() (*netstack.Socket, bool) {
		for l.AcceptPending() > 0 {
			s, err := l.Accept()
			if err != nil {
				return nil, false
			}
			if s.RemoteAddr() == c.LocalAddr() {
				return s, true
			}
			s.Close()
		}
		return nil, false
	}()
	if !ok {
		return nil, false
	}
	return &streamRig{w: w, nw: nw, a: a, b: b, cli: c, srv: srv}, true
}

// Property: for any pair of write scripts, any partial pre-checkpoint
// consumption, any loss rate up to 30%, and any checkpoint instant, the
// two applications observe both byte streams exactly once, in order,
// across a full checkpoint/restore of both endpoints.
func TestQuickCheckpointPreservesStreams(t *testing.T) {
	f := func(seed int64, c2s, s2c [][]byte, preRead uint16, lossPct, stepsByte uint8) bool {
		rig, ok := newStreamRig(seed, float64(lossPct%31)/100)
		if !ok {
			return false
		}
		w := rig.w
		var wantC2S, wantS2C []byte
		send := func(s *netstack.Socket, bufs [][]byte, want *[]byte) {
			for _, buf := range bufs {
				if len(buf) > 2*netstack.MSS {
					buf = buf[:2*netstack.MSS]
				}
				*want = append(*want, buf...)
				sent := 0
				for sent < len(buf) {
					n, err := s.Send(buf[sent:], false)
					sent += n
					if err != nil && !errors.Is(err, netstack.ErrWouldBlock) {
						return
					}
					if n == 0 {
						w.RunUntil(w.Now() + sim.Time(300*sim.Millisecond))
					}
				}
			}
		}
		send(rig.cli, c2s, &wantC2S)
		send(rig.srv, s2c, &wantS2C)

		// Run an arbitrary number of steps so the checkpoint lands at an
		// arbitrary protocol instant (mid-flight, mid-backlog, ...).
		for i := 0; i < int(stepsByte)*4; i++ {
			if !w.Step() {
				break
			}
		}
		// Partially consume before the checkpoint.
		var gotC2S, gotS2C []byte
		if d, err := rig.srv.Recv(int(preRead), false, false); err == nil {
			gotC2S = append(gotC2S, d...)
		}
		if d, err := rig.cli.Recv(int(preRead)/2, false, false); err == nil {
			gotS2C = append(gotS2C, d...)
		}

		// Freeze, checkpoint, restore on fresh stacks.
		rig.a.Filter().BlockAll()
		rig.b.Filter().BlockAll()
		imgA, err := CheckpointStack(rig.a)
		if err != nil {
			return false
		}
		imgB, err := CheckpointStack(rig.b)
		if err != nil {
			return false
		}
		rig.nw.Detach(rig.a)
		rig.nw.Detach(rig.b)
		images := map[netstack.IP]*NetImage{1: imgA, 2: imgB}
		plans, err := PlanRestart(images)
		if err != nil {
			return false
		}
		restored := 0
		failed := false
		socks := make(map[netstack.IP][]*netstack.Socket)
		for ip, img := range images {
			st, err := rig.nw.NewStack(ip)
			if err != nil {
				return false
			}
			r := NewRestorer(st, img, plans[ip], func(err error) {
				if err != nil {
					failed = true
				}
				restored++
			})
			socks[ip] = r.Sockets()
			r.Start()
		}
		deadline := w.Now() + sim.Time(5*60*sim.Second)
		for restored < 2 && !failed && w.Now() < deadline {
			if !w.Step() {
				break
			}
		}
		if failed || restored < 2 {
			return false
		}
		newCli := firstEstablished(socks[1])
		newSrv := firstEstablished(socks[2])
		if newCli == nil || newSrv == nil {
			return false
		}
		// Drain everything still owed.
		deadline = w.Now() + sim.Time(10*60*sim.Second)
		for w.Now() < deadline {
			if d, err := newSrv.Recv(1<<20, false, false); err == nil {
				gotC2S = append(gotC2S, d...)
			}
			if d, err := newCli.Recv(1<<20, false, false); err == nil {
				gotS2C = append(gotS2C, d...)
			}
			if len(gotC2S) == len(wantC2S) && len(gotS2C) == len(wantS2C) &&
				newCli.SendQueueSeqLen() == 0 && newSrv.SendQueueSeqLen() == 0 {
				break
			}
			if !w.Step() {
				break
			}
		}
		return bytes.Equal(gotC2S, wantC2S) && bytes.Equal(gotS2C, wantS2C)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func firstEstablished(socks []*netstack.Socket) *netstack.Socket {
	for _, s := range socks {
		if s != nil && s.State() == netstack.StateEstablished {
			return s
		}
	}
	return nil
}

// TestDoubleCheckpointCycle checkpoints, restores, exchanges more data
// while the alternate queue is only partially drained, checkpoints
// again (the second image must include the remaining alternate-queue
// data, per §5), restores again, and verifies the full stream.
func TestDoubleCheckpointCycle(t *testing.T) {
	rig, ok := newStreamRig(99, 0)
	if !ok {
		t.Fatal("setup failed")
	}
	w := rig.w
	var want []byte
	msg1 := bytes.Repeat([]byte("first"), 200)
	want = append(want, msg1...)
	rig.cli.Send(msg1, false)
	drive(t, w, func() bool { return rig.srv.RecvQueueLen() == len(msg1) })

	// Cycle 1.
	rig.a.Filter().BlockAll()
	rig.b.Filter().BlockAll()
	images := map[netstack.IP]*NetImage{}
	for ip, st := range map[netstack.IP]*netstack.Stack{1: rig.a, 2: rig.b} {
		img, err := CheckpointStack(st)
		if err != nil {
			t.Fatal(err)
		}
		images[ip] = img
	}
	socks := restoreAll(t, w, rig.nw, images, rig.a, rig.b)
	cli1 := firstEstablished(socks[1])
	srv1 := firstEstablished(socks[2])

	// Drain only part of the restored data; send more.
	var got []byte
	d, err := srv1.Recv(300, false, false)
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, d...)
	if srv1.AltQueueLen() == 0 {
		t.Fatal("alternate queue already empty; test needs leftovers")
	}
	msg2 := bytes.Repeat([]byte("second"), 100)
	want = append(want, msg2...)
	cli1.Send(msg2, false)
	drive(t, w, func() bool { return srv1.RecvQueueLen() >= len(msg2) })

	// Cycle 2: stacks of the restored pods.
	stA, _ := rig.nw.Stack(1)
	stB, _ := rig.nw.Stack(2)
	stA.Filter().BlockAll()
	stB.Filter().BlockAll()
	images2 := map[netstack.IP]*NetImage{}
	for ip, st := range map[netstack.IP]*netstack.Stack{1: stA, 2: stB} {
		img, err := CheckpointStack(st)
		if err != nil {
			t.Fatal(err)
		}
		images2[ip] = img
	}
	socks2 := restoreAll(t, w, rig.nw, images2, stA, stB)
	srv2 := firstEstablished(socks2[2])
	drive(t, w, func() bool {
		for {
			d, err := srv2.Recv(1<<20, false, false)
			if err != nil || len(d) == 0 {
				break
			}
			got = append(got, d...)
		}
		return len(got) >= len(want)
	})
	if !bytes.Equal(got, want) {
		t.Fatalf("double-cycle stream mismatch: got %d want %d bytes (first diff %d)",
			len(got), len(want), firstDiff(got, want))
	}
}
