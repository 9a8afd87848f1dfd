package netstack

import (
	"errors"
	"testing"

	"zapc/internal/sim"
)

func TestKeepaliveDetectsDeadPeer(t *testing.T) {
	w, nw, st := testNet(t, 2)
	cli, srv, _ := connectPairHelper(t, w, st[0], st[1], 5000)
	_ = srv
	cli.SetOpt(TCP_KEEPALIVE, 50) // 50 ms probes
	cli.SetOpt(SO_KEEPALIVE, 1)
	// The peer's whole stack vanishes (node crash).
	nw.Detach(st[1])
	run(t, w, func() bool { return cli.Err() != nil })
	if !errors.Is(cli.Err(), ErrConnReset) {
		t.Fatalf("err = %v", cli.Err())
	}
	// Detection took a handful of probe intervals, not forever.
	if w.Now() > sim.Time(2*sim.Second) {
		t.Fatalf("keepalive detection too slow: %v", w.Now())
	}
}

func TestKeepaliveQuietOnLiveIdleConnection(t *testing.T) {
	w, _, st := testNet(t, 2)
	cli, srv, _ := connectPairHelper(t, w, st[0], st[1], 5000)
	cli.SetOpt(TCP_KEEPALIVE, 50)
	cli.SetOpt(SO_KEEPALIVE, 1)
	// The connection idles for many intervals; the peer answers probes,
	// so it must never be torn down.
	w.RunUntil(w.Now() + sim.Time(3*sim.Second))
	if cli.Err() != nil {
		t.Fatalf("live idle connection reset: %v", cli.Err())
	}
	if cli.State() != StateEstablished || srv.State() != StateEstablished {
		t.Fatal("connection state changed")
	}
}

func TestKeepaliveQuietWithTraffic(t *testing.T) {
	w, _, st := testNet(t, 2)
	cli, srv, _ := connectPairHelper(t, w, st[0], st[1], 5000)
	cli.SetOpt(TCP_KEEPALIVE, 50)
	cli.SetOpt(SO_KEEPALIVE, 1)
	for i := 0; i < 40; i++ {
		srv.Send([]byte("tick"), false)
		w.RunUntil(w.Now() + sim.Time(40*sim.Millisecond))
		cli.Recv(16, false, false)
	}
	if cli.Err() != nil {
		t.Fatalf("active connection reset: %v", cli.Err())
	}
}

func TestKeepaliveDisabledByDefault(t *testing.T) {
	w, nw, st := testNet(t, 2)
	cli, _, _ := connectPairHelper(t, w, st[0], st[1], 5000)
	nw.Detach(st[1])
	w.RunUntil(w.Now() + sim.Time(5*sim.Second))
	// Without keepalive and without traffic, the dead peer goes
	// unnoticed — exactly why applications deploy the timers.
	if cli.Err() != nil {
		t.Fatalf("unexpected teardown: %v", cli.Err())
	}
}

func TestKeepaliveSurvivesRestore(t *testing.T) {
	// A restored socket has its full option set reapplied by the
	// restart agent; SetOpt must re-arm the probe timer so the restored
	// connection keeps its fault-detection behavior.
	w, nw, st := testNet(t, 2)
	cli, _, _ := connectPairHelper(t, w, st[0], st[1], 5000)
	cli.SetOpt(TCP_KEEPALIVE, 50)
	cli.SetOpt(SO_KEEPALIVE, 1)
	snap := cli.OptsSnapshot()

	// Fresh connection standing in for the restored one.
	cli2, _, _ := connectPairHelper(t, w, st[0], st[1], 5001)
	for o, val := range snap {
		cli2.SetOpt(Opt(o), val)
	}
	nw.Detach(st[1])
	run(t, w, func() bool { return cli2.Err() != nil })
	if !errors.Is(cli2.Err(), ErrConnReset) {
		t.Fatalf("restored keepalive inert: %v", cli2.Err())
	}
}
