package netckpt

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"zapc/internal/netstack"
)

// recvTwin is one of two identical scripted endpoints: the simulation is
// deterministic per seed, so the same script run on both leaves both in
// the same state, and a read can go through recvmsg's two forms side by
// side.
type recvTwin struct {
	rig      *streamRig
	udp, dgs *netstack.Socket // a UDP sender and the receiver read from
}

func newRecvTwin(t *testing.T, seed int64) *recvTwin {
	rig, ok := newStreamRig(seed, 0)
	if !ok {
		t.Fatal("stream rig did not connect")
	}
	udp, dgs := rig.a.Socket(netstack.UDP), rig.b.Socket(netstack.UDP)
	udp.Bind(90)
	dgs.Bind(91)
	return &recvTwin{rig: rig, udp: udp, dgs: dgs}
}

// TestRecvmsgAppendsWhatItWouldReturn: for the kernel's dispatch vector
// and the alternate-queue one interposed at restart, Recvmsg(s, dst, …)
// is append(dst, Recvmsg(s, nil, …)…) with the same error, and leaves the
// socket as the nil form does. A random script of writes (in-band and
// out-of-band), datagrams, restored alternate-queue data, a half-close
// and a close runs on two twins; every read goes through the nil form on
// one and through a random destination on the other. Each case the
// property names is checked to have occurred.
func TestRecvmsgAppendsWhatItWouldReturn(t *testing.T) {
	seen := make(map[string]int)
	for seed := int64(1); seed <= 30; seed++ {
		a, b := newRecvTwin(t, seed), newRecvTwin(t, seed)
		r := rand.New(rand.NewSource(seed))
		closed := false
		for op := 0; op < 200; op++ {
			switch k := r.Intn(20); {
			case k < 3:
				payload, oob := randBytes(r, 1+r.Intn(3000)), r.Intn(4) == 0
				a.rig.cli.Send(payload, oob)
				b.rig.cli.Send(payload, oob)
			case k < 4:
				payload := randBytes(r, r.Intn(200))
				a.udp.SendTo(payload, a.dgs.LocalAddr())
				b.udp.SendTo(payload, b.dgs.LocalAddr())
			case k < 5 && !closed:
				data := randBytes(r, 1+r.Intn(500))
				InstallAltQueue(a.rig.srv, data)
				InstallAltQueue(b.rig.srv, data)
			case k < 6 && op > 150:
				a.rig.cli.Shutdown(false, true)
				b.rig.cli.Shutdown(false, true)
			case k < 7 && op > 190 && !closed:
				a.rig.srv.Close()
				b.rig.srv.Close()
				closed = true
			case k < 11:
				for i := r.Intn(30); i >= 0; i-- {
					a.rig.w.Step()
					b.rig.w.Step()
				}
			case k < 17:
				compareRecv(t, r, seen, a.rig.srv, b.rig.srv, "tcp")
			default:
				compareRecv(t, r, seen, a.dgs, b.dgs, "udp")
			}
		}
	}
	for _, c := range []string{"tcp", "tcp/oob", "tcp/peek", "tcp/alt", "tcp/alt/peek", "udp", "udp/peek",
		"tcp/" + netstack.ErrEOF.Error(), "tcp/" + netstack.ErrClosed.Error(), "tcp/" + netstack.ErrWouldBlock.Error()} {
		if seen[c] == 0 {
			t.Errorf("the script never reached case %q (reached: %v)", c, seen)
		}
	}
}

// compareRecv reads through the nil form on sa and through a random
// destination on its twin sb, and checks the append law and the sockets'
// state after.
func compareRecv(t *testing.T, r *rand.Rand, seen map[string]int, sa, sb *netstack.Socket, kind string) {
	t.Helper()
	n, peek, oob := r.Intn(2500), r.Intn(4) == 0, kind == "tcp" && r.Intn(5) == 0
	prefix := randBytes(r, r.Intn(40))
	dst := append(make([]byte, 0, len(prefix)+r.Intn(3000)), prefix...)
	_, alt := sa.CurrentOps().(altOps)
	want, errA := sa.CurrentOps().Recvmsg(sa, nil, n, peek, oob)
	got, errB := sb.CurrentOps().Recvmsg(sb, dst, n, peek, oob)
	if errA != errB {
		t.Fatalf("%s read (n=%d peek=%v oob=%v): error %v with a destination, %v without", kind, n, peek, oob, errB, errA)
	}
	if !bytes.Equal(got, append(append([]byte(nil), prefix...), want...)) {
		t.Fatalf("%s read (n=%d peek=%v oob=%v): appended %d bytes to a %d-byte destination, the nil form returned %d",
			kind, n, peek, oob, len(got)-len(prefix), len(prefix), len(want))
	}
	if errA != nil && (want != nil || len(got) != len(dst) || len(dst) > 0 && &got[0] != &dst[0]) {
		t.Fatalf("%s read failed with %v but did not hand back its destination untouched", kind, errA)
	}
	if state(sa) != state(sb) {
		t.Fatalf("%s read left the twins apart: %s vs %s", kind, state(sa), state(sb))
	}
	c := kind
	switch {
	case errA != nil:
		c += "/" + errA.Error()
	case oob:
		c += "/oob"
	case alt && peek:
		c += "/alt/peek"
	case alt:
		c += "/alt"
	case peek:
		c += "/peek"
	}
	seen[c]++
}

// state is what a read can change on a socket.
func state(s *netstack.Socket) string {
	return fmt.Sprintf("recvQ=%d backlog=%d oob=%d alt=%d datagrams=%d closed=%v ops=%T",
		s.RecvQueueLen(), s.BacklogLen(), s.OOBLen(), s.AltQueueLen(), len(s.DatagramQueue()), s.Closed(), s.CurrentOps())
}

func randBytes(r *rand.Rand, n int) []byte {
	b := make([]byte, n)
	r.Read(b)
	return b
}
