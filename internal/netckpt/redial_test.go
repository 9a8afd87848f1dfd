package netckpt

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"zapc/internal/netstack"
	"zapc/internal/sim"
)

// redialRig checkpoints one client-server connection carrying data both
// ways, detaches both stacks and attaches fresh ones under the same IPs.
// The client's restorer is returned unstarted; the server's stack has no
// listener until the test restores it, so every dial until then is
// refused.
type redialRig struct {
	w      *sim.World
	cli    *Restorer
	srvImg *NetImage
	srvPln *EndpointPlan
	srvSt  *netstack.Stack
	calls  int
	err    error
}

func newRedialRig(t *testing.T) *redialRig {
	t.Helper()
	w, nw := mkWorld(41)
	a := mkStack(t, nw, 1)
	b := mkStack(t, nw, 2)
	cli, srv, _ := establish(t, w, a, b, 80)
	cli.Send([]byte("to server"), false)
	srv.Send([]byte("to client"), false)
	w.RunUntil(w.Now() + sim.Time(50*sim.Millisecond))
	images := freezeCheckpoint(t, a, b)
	nw.Detach(a)
	nw.Detach(b)
	plans, err := PlanRestart(images)
	if err != nil {
		t.Fatal(err)
	}
	if es := plans[1].Entries; len(es) != 1 || es[0].Type != EntryConnect {
		t.Fatalf("client plan %+v, want one connect entry", es)
	}
	rig := &redialRig{w: w, srvImg: images[2], srvPln: plans[2], srvSt: mkStack(t, nw, 2)}
	rig.cli = NewRestorer(mkStack(t, nw, 1), images[1], plans[1], func(err error) {
		rig.calls++
		rig.err = err
	})
	return rig
}

// step runs one event and records the client entry's current socket, so
// the caller can count the distinct sockets its dials made.
func (rig *redialRig) step(t *testing.T, socks map[*netstack.Socket]bool) {
	t.Helper()
	if !rig.w.Step() {
		t.Fatal("event queue drained")
	}
	if s := rig.cli.entries[0].sock; s != nil {
		socks[s] = true
	}
}

// TestRedialAfterRefusals: a peer listener that appears after N refused
// connects is reached by the next redial; the entry dialed N+1 times,
// each on a fresh socket, and the connection carries its queues.
func TestRedialAfterRefusals(t *testing.T) {
	const n = 3
	rig := newRedialRig(t)
	socks := map[*netstack.Socket]bool{}
	rig.cli.Start()
	es := rig.cli.entries[0]
	socks[es.sock] = true
	for es.retries < n || es.stage != redialing {
		rig.step(t, socks)
	}
	srvDone := 0
	srv := NewRestorer(rig.srvSt, rig.srvImg, rig.srvPln, func(err error) {
		if err != nil {
			t.Fatalf("server restore: %v", err)
		}
		srvDone++
	})
	srv.Start()
	deadline := rig.w.Now() + sim.Time(10*sim.Second)
	for rig.calls == 0 || srvDone == 0 {
		if rig.w.Now() > deadline {
			t.Fatal("restore did not complete")
		}
		rig.step(t, socks)
	}
	if rig.err != nil {
		t.Fatalf("client restore: %v", rig.err)
	}
	if es.retries != n {
		t.Fatalf("redials = %d, want %d", es.retries, n)
	}
	if len(socks) != n+1 {
		t.Fatalf("distinct connect-side sockets = %d, want one per dial (%d)", len(socks), n+1)
	}
	c := rig.cli.Sockets()[es.rec.Slot]
	if c.State() != netstack.StateEstablished {
		t.Fatalf("client socket %v, want established", c.State())
	}
	rig.w.RunUntil(rig.w.Now() + sim.Time(50*sim.Millisecond))
	if got, _ := c.Recv(64, false, false); string(got) != "to client" {
		t.Fatalf("client read %q", got)
	}
	served := 0
	for _, s := range srv.Sockets() {
		if s != nil && s.State() == netstack.StateEstablished {
			served++
			if got, _ := s.Recv(64, false, false); string(got) != "to server" {
				t.Fatalf("server read %q", got)
			}
		}
	}
	if served != 1 {
		t.Fatalf("server has %d established sockets, want 1", served)
	}
}

// TestRedialGivesUp: against a peer that never listens the entry redials
// maxConnectRetries times, then the restore fails once, naming the
// connection and wrapping the refusal.
func TestRedialGivesUp(t *testing.T) {
	rig := newRedialRig(t)
	socks := map[*netstack.Socket]bool{}
	rig.cli.Start()
	es := rig.cli.entries[0]
	socks[es.sock] = true
	for rig.w.Pending() > 0 {
		rig.step(t, socks)
	}
	if rig.calls != 1 {
		t.Fatalf("onDone called %d times, want 1", rig.calls)
	}
	if !errors.Is(rig.err, netstack.ErrConnRefused) {
		t.Fatalf("err = %v, want one wrapping ErrConnRefused", rig.err)
	}
	if want := fmt.Sprintf("%v->%v", es.entry.Local, es.entry.Remote); !strings.Contains(rig.err.Error(), want) {
		t.Fatalf("err %q does not name %s", rig.err, want)
	}
	if es.retries != maxConnectRetries {
		t.Fatalf("redials = %d, want %d", es.retries, maxConnectRetries)
	}
	if len(socks) != maxConnectRetries+1 {
		t.Fatalf("distinct connect-side sockets = %d, want %d", len(socks), maxConnectRetries+1)
	}
}
