package netstack

import (
	"bytes"
	"errors"
	"testing"

	"zapc/internal/sim"
)

func TestUDPSendRecv(t *testing.T) {
	w, _, st := testNet(t, 2)
	rx := st[1].Socket(UDP)
	if err := rx.Bind(7000); err != nil {
		t.Fatal(err)
	}
	tx := st[0].Socket(UDP)
	if _, err := tx.SendTo([]byte("datagram"), Addr{st[1].IPAddr(), 7000}); err != nil {
		t.Fatal(err)
	}
	run(t, w, func() bool { return len(rx.DatagramQueue()) == 1 })
	d, err := rx.RecvFrom(false)
	if err != nil {
		t.Fatal(err)
	}
	if string(d.Data) != "datagram" || d.From != tx.LocalAddr() {
		t.Fatalf("d = %+v", d)
	}
	if _, err := rx.RecvFrom(false); !errors.Is(err, ErrWouldBlock) {
		t.Fatalf("empty recv = %v", err)
	}
}

func TestUDPConnectedFiltersSource(t *testing.T) {
	w, _, st := testNet(t, 3)
	rx := st[2].Socket(UDP)
	rx.Bind(7000)
	peer := st[0].Socket(UDP)
	peer.Bind(100)
	stranger := st[1].Socket(UDP)
	stranger.Bind(200)
	if err := rx.Connect(Addr{st[0].IPAddr(), 100}); err != nil {
		t.Fatal(err)
	}
	peer.SendTo([]byte("friend"), Addr{st[2].IPAddr(), 7000})
	stranger.SendTo([]byte("stranger"), Addr{st[2].IPAddr(), 7000})
	w.RunUntil(w.Now() + sim.Time(10*sim.Millisecond))
	q := rx.DatagramQueue()
	if len(q) != 1 || string(q[0].Data) != "friend" {
		t.Fatalf("queue = %v", q)
	}
}

func TestUDPLoss(t *testing.T) {
	w, nw, st := testNet(t, 2)
	nw.SetLossRate(0.5)
	rx := st[1].Socket(UDP)
	rx.Bind(7000)
	tx := st[0].Socket(UDP)
	const sent = 200
	for i := 0; i < sent; i++ {
		tx.SendTo([]byte{byte(i)}, Addr{st[1].IPAddr(), 7000})
	}
	w.RunUntil(w.Now() + sim.Time(100*sim.Millisecond))
	got := len(rx.DatagramQueue())
	if got == 0 || got == sent {
		t.Fatalf("loss rate not applied: got %d of %d", got, sent)
	}
}

func TestUDPQueueOverflowDrops(t *testing.T) {
	w, _, st := testNet(t, 2)
	rx := st[1].Socket(UDP)
	rx.Bind(7000)
	rx.SetOpt(SO_RCVBUF, 1000)
	tx := st[0].Socket(UDP)
	for i := 0; i < 10; i++ {
		tx.SendTo(make([]byte, 400), Addr{st[1].IPAddr(), 7000})
	}
	w.RunUntil(w.Now() + sim.Time(50*sim.Millisecond))
	if n := len(rx.DatagramQueue()); n != 2 {
		t.Fatalf("queued %d datagrams, want 2 (rcvbuf limit)", n)
	}
}

// A peek leaves the datagram queued, so a checkpoint saves it with the
// rest of the queue.
func TestUDPPeekKeepsTheDatagram(t *testing.T) {
	w, _, st := testNet(t, 2)
	rx := st[1].Socket(UDP)
	rx.Bind(7000)
	tx := st[0].Socket(UDP)
	tx.SendTo([]byte("peeky"), Addr{st[1].IPAddr(), 7000})
	run(t, w, func() bool { return len(rx.DatagramQueue()) == 1 })
	d, err := rx.RecvFrom(true)
	if err != nil || string(d.Data) != "peeky" {
		t.Fatalf("peek = %v, %v", d, err)
	}
	if len(rx.DatagramQueue()) != 1 {
		t.Fatal("peek consumed the datagram")
	}
	d2, _ := rx.RecvFrom(false)
	if string(d2.Data) != "peeky" {
		t.Fatal("consume after peek lost data")
	}
}

func TestUDPOversizeRejected(t *testing.T) {
	_, _, st := testNet(t, 2)
	tx := st[0].Socket(UDP)
	if _, err := tx.SendTo(make([]byte, MaxDatagram+1), Addr{st[1].IPAddr(), 7000}); !errors.Is(err, ErrMsgSize) {
		t.Fatalf("err = %v", err)
	}
}

func TestRawSockets(t *testing.T) {
	w, _, st := testNet(t, 2)
	rx := st[1].Socket(RAW)
	if err := rx.BindRaw(89); err != nil { // e.g. OSPF
		t.Fatal(err)
	}
	rx2 := st[1].Socket(RAW)
	rx2.BindRaw(89)
	other := st[1].Socket(RAW)
	other.BindRaw(47)

	tx := st[0].Socket(RAW)
	tx.BindRaw(89)
	if _, err := tx.SendRaw(st[1].IPAddr(), []byte("lsa")); err != nil {
		t.Fatal(err)
	}
	run(t, w, func() bool { return len(rx.DatagramQueue()) == 1 && len(rx2.DatagramQueue()) == 1 })
	if len(other.DatagramQueue()) != 0 {
		t.Fatal("raw packet crossed protocol numbers")
	}
	d := rx.DatagramQueue()[0]
	if string(d.Data) != "lsa" || d.RawProto != 89 {
		t.Fatalf("d = %+v", d)
	}
	rx.Close()
	tx.SendRaw(st[1].IPAddr(), []byte("again"))
	run(t, w, func() bool { return len(rx2.DatagramQueue()) == 2 })
	if len(rx.DatagramQueue()) != 1 {
		t.Fatal("closed raw socket still receiving")
	}
}

func TestDatagramLoadRestore(t *testing.T) {
	_, _, st := testNet(t, 1)
	s := st[0].Socket(UDP)
	s.Bind(9)
	saved := []Datagram{
		{From: Addr{1, 2}, Data: []byte("a")},
		{From: Addr{3, 4}, Data: []byte("bb")},
	}
	s.LoadDatagrams(saved)
	q := s.DatagramQueue()
	if len(q) != 2 || !bytes.Equal(q[0].Data, []byte("a")) || !bytes.Equal(q[1].Data, []byte("bb")) {
		t.Fatalf("q = %v", q)
	}
	d, _ := s.RecvFrom(false)
	if string(d.Data) != "a" {
		t.Fatal("restored order wrong")
	}
}

// TestDatagramAllocationBudget: a datagram's copy is cut from its
// network's slab, so a heartbeat-sized round trip — SendTo, delivery,
// RecvFrom — allocates a share of a slab and nothing else (one object per
// send before datagrams came from a slab). A count, not a timing.
func TestDatagramAllocationBudget(t *testing.T) {
	w, _, st := testNet(t, 2)
	rx := st[1].Socket(UDP)
	rx.Bind(7000)
	tx := st[0].Socket(UDP)
	to := Addr{st[1].IPAddr(), 7000}
	var beat [8]byte
	const trips = 10000
	perTrip := testing.AllocsPerRun(1, func() {
		for i := range trips {
			beat[0] = byte(i)
			if _, err := tx.SendTo(beat[:], to); err != nil {
				t.Fatal(err)
			}
			for w.Step() {
			}
			if d, err := rx.RecvFrom(false); err != nil || d.Data[0] != byte(i) {
				t.Fatalf("round trip %d: %v, %v", i, d, err)
			}
		}
	}) / trips
	t.Logf("%.4f objects per round trip", perTrip)
	if perTrip >= 0.05 {
		t.Fatalf("a datagram round trip allocates %.3f objects, budget 0.05", perTrip)
	}
}
