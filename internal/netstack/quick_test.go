package netstack

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"zapc/internal/sim"
)

// acceptPeerOf drains the accept queue until it finds the server-side
// socket paired with c, closing children of abandoned connection
// attempts.
func acceptPeerOf(l *Socket, c *Socket) *Socket {
	for l.AcceptPending() > 0 {
		srv, err := l.Accept()
		if err != nil {
			return nil
		}
		if srv.RemoteAddr() == c.LocalAddr() {
			return srv
		}
		srv.Close()
	}
	return nil
}

// countersMatchScans holds the running totals the per-segment path keeps
// (send-queue sequence units and the send space derived from them) to
// the queue scans they replaced, and every queued chunk to a capacity
// that ends with its bytes: chunks are cut side by side from one send
// buffer, so an append to one must not reach the next.
func countersMatchScans(socks ...*Socket) bool {
	for _, s := range socks {
		var seq uint64
		for _, c := range s.sendQ {
			seq += c.SeqLen()
			if cap(c.Data) != len(c.Data) {
				return false
			}
		}
		space := max(s.opts[SO_SNDBUF]-int64(seq), 0)
		if s.SendQueueSeqLen() != seq || int64(s.sendSpace()) != space {
			return false
		}
	}
	return true
}

// Property: for any sequence of writes (arbitrary sizes, arbitrary OOB
// interleaving) and any loss rate up to 40%, the receiver observes the
// normal bytes in order, exactly once, and the OOB bytes in order,
// exactly once.
func TestQuickStreamIntegrity(t *testing.T) {
	f := func(seed int64, writes [][]byte, oobEvery uint8, lossPct uint8) bool {
		w := sim.NewWorld(seed)
		nw := NewNetwork(w)
		a, _ := nw.NewStack(1)
		b, _ := nw.NewStack(2)
		nw.SetLossRate(float64(lossPct%41) / 100)

		l := b.Socket(TCP)
		l.Bind(80)
		l.Listen(4)
		c := a.Socket(TCP)
		c.Connect(Addr{2, 80})
		for c.State() != StateEstablished {
			if c.Err() != nil {
				// Refused under extreme loss: reconnect from scratch.
				c = a.Socket(TCP)
				c.Connect(Addr{2, 80})
			}
			if !w.Step() && c.State() != StateEstablished {
				return false
			}
		}
		srv := acceptPeerOf(l, c)
		if srv == nil {
			return false
		}

		var wantNorm, wantOOB []byte
		interval := int(oobEvery%5) + 2
		for i, buf := range writes {
			if len(buf) > 4*MSS {
				buf = buf[:4*MSS]
			}
			oob := i%interval == 0 && len(buf) > 0 && len(buf) <= 64
			if oob {
				wantOOB = append(wantOOB, buf...)
			} else {
				wantNorm = append(wantNorm, buf...)
			}
			sent := 0
			for sent < len(buf) {
				n, err := c.Send(buf[sent:], oob)
				if err != nil && !errors.Is(err, ErrWouldBlock) {
					return false
				}
				sent += n
				if n == 0 {
					w.RunUntil(w.Now() + sim.Time(300*sim.Millisecond))
				}
				if !countersMatchScans(c, srv) {
					return false
				}
			}
		}
		// Drive until everything is delivered (retransmission recovers
		// losses), with a generous deadline.
		deadline := w.Now() + sim.Time(5*60*sim.Second)
		var gotNorm, gotOOB []byte
		for w.Now() < deadline {
			if d, err := srv.Recv(1<<20, false, false); err == nil {
				gotNorm = append(gotNorm, d...)
			}
			if d, err := srv.Recv(1<<20, false, true); err == nil {
				gotOOB = append(gotOOB, d...)
			}
			if len(gotNorm) == len(wantNorm) && len(gotOOB) == len(wantOOB) &&
				c.SendQueueSeqLen() == 0 {
				break
			}
			if !w.Step() || !countersMatchScans(c, srv) {
				break
			}
		}
		return bytes.Equal(gotNorm, wantNorm) && bytes.Equal(gotOOB, wantOOB) && countersMatchScans(c, srv)
	}
	cfg := &quick.Config{MaxCount: 25}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: the reliable-protocol invariant recv_1 >= acked_2 holds at
// every event-step under arbitrary traffic and loss.
func TestQuickPCBInvariant(t *testing.T) {
	f := func(seed int64, msgs []uint16, lossPct uint8) bool {
		w := sim.NewWorld(seed)
		nw := NewNetwork(w)
		a, _ := nw.NewStack(1)
		b, _ := nw.NewStack(2)
		nw.SetLossRate(float64(lossPct%31) / 100)

		l := b.Socket(TCP)
		l.Bind(80)
		l.Listen(4)
		c := a.Socket(TCP)
		c.Connect(Addr{2, 80})
		for c.State() != StateEstablished {
			if c.Err() != nil {
				// Refused under extreme loss: reconnect from scratch.
				c = a.Socket(TCP)
				c.Connect(Addr{2, 80})
			}
			if !w.Step() && c.State() != StateEstablished {
				return false
			}
		}
		srv := acceptPeerOf(l, c)
		if srv == nil {
			return false
		}

		check := func() bool {
			return srv.PCBSnapshot().RcvNxt >= c.PCBSnapshot().SndUna &&
				c.PCBSnapshot().RcvNxt >= srv.PCBSnapshot().SndUna &&
				countersMatchScans(c, srv)
		}
		for _, m := range msgs {
			c.Send(make([]byte, int(m%2000)+1), false)
			srv.Send(make([]byte, int(m%500)+1), false)
			for i := 0; i < 20; i++ {
				if !w.Step() {
					break
				}
				if !check() {
					return false
				}
			}
			// Drain receivers so buffers do not fill.
			srv.Recv(1<<20, false, false)
			c.Recv(1<<20, false, false)
		}
		return check()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
