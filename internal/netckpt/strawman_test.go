package netckpt

import (
	"testing"

	"zapc/internal/netstack"
	"zapc/internal/sim"
)

// buildRing creates n stacks connected in a ring (each pod has one
// listener on port 80, one outbound connection to the next pod, and one
// accepted child from the previous pod), checkpoints all of them, and
// returns the images plus the network.
func buildRing(t *testing.T, n int) (*sim.World, *netstack.Network, map[netstack.IP]*NetImage, []*netstack.Stack) {
	t.Helper()
	w, nw := mkWorld(31)
	stacks := make([]*netstack.Stack, n)
	for i := range stacks {
		stacks[i] = mkStack(t, nw, netstack.IP(i+1))
		l := stacks[i].Socket(netstack.TCP)
		if err := l.Bind(80); err != nil {
			t.Fatal(err)
		}
		l.Listen(4)
	}
	conns := make([]*netstack.Socket, n)
	for i := range stacks {
		next := netstack.IP((i+1)%n + 1)
		c := stacks[i].Socket(netstack.TCP)
		if err := c.Connect(netstack.Addr{IP: next, Port: 80}); err != nil {
			t.Fatal(err)
		}
		conns[i] = c
	}
	drive(t, w, func() bool {
		for _, c := range conns {
			if c.State() != netstack.StateEstablished {
				return false
			}
		}
		return true
	})
	// Each node accepts its inbound neighbor and sends a token so every
	// connection carries queue data.
	for i := range stacks {
		for _, s := range stacks[i].Sockets() {
			if s.State() == netstack.StateListening {
				for s.AcceptPending() > 0 {
					s.Accept()
				}
			}
		}
		conns[i].Send([]byte{byte(i + 1)}, false)
	}
	w.RunUntil(w.Now() + sim.Time(50*sim.Millisecond))
	images := freezeCheckpoint(t, stacks...)
	return w, nw, images, stacks
}

// TestAcceptFirstDeadlocks demonstrates the paper's §4 warning: if every
// agent first waits to accept before issuing its connects, a ring
// topology deadlocks. The two-actor scheme (default) restores the same
// ring without any schedule analysis.
func TestAcceptFirstDeadlocks(t *testing.T) {
	const n = 4
	w, nw, images, stacks := buildRing(t, n)
	for _, st := range stacks {
		nw.Detach(st)
	}
	plans, err := PlanRestart(images)
	if err != nil {
		t.Fatal(err)
	}
	// Sanity: the ring gives every pod exactly one accept and one
	// connect entry, the shape that deadlocks under accept-first.
	for ip, plan := range plans {
		var acc, con int
		for _, e := range plan.Entries {
			if e.Type == EntryAccept {
				acc++
			} else {
				con++
			}
		}
		if acc != 1 || con != 1 {
			t.Fatalf("pod %v: accepts=%d connects=%d, want 1/1", ip, acc, con)
		}
	}
	done := 0
	for ip, img := range images {
		st := mkStack(t, nw, ip)
		r := NewRestorer(st, img, plans[ip], func(err error) {
			if err != nil {
				t.Fatalf("restore error: %v", err)
			}
			done++
		})
		r.acceptFirst = true
		r.Start()
	}
	// Drive a long simulated interval: nothing can complete — every
	// agent waits to accept a SYN that no agent will ever send.
	w.RunUntil(w.Now() + sim.Time(30*sim.Second))
	if done != 0 {
		t.Fatalf("accept-first ring restore completed %d pods; expected deadlock", done)
	}
}

// TestTwoActorRestoresRing is the counterpart: the default two-actor
// scheme restores the identical ring, token intact.
func TestTwoActorRestoresRing(t *testing.T) {
	const n = 4
	w, nw, images, stacks := buildRing(t, n)
	socks := restoreAll(t, w, nw, images, stacks...)
	// Every pod got its token back exactly once.
	for ip := netstack.IP(1); ip <= n; ip++ {
		found := false
		for _, s := range socks[ip] {
			if s == nil || s.State() != netstack.StateEstablished {
				continue
			}
			d, err := s.Recv(16, false, false)
			if err == nil && len(d) == 1 {
				found = true
			}
		}
		if !found {
			t.Fatalf("pod %v lost its ring token", ip)
		}
	}
}

// TestAcceptFirstWorksOnStarTopology shows the strawman is not always
// wrong — an acyclic accept/connect graph (pure client-server star)
// completes even accept-first — underlining that the failure is
// topology-dependent, which is why the paper avoids depending on
// topology at all.
func TestAcceptFirstWorksOnStarTopology(t *testing.T) {
	w, nw := mkWorld(33)
	hub := mkStack(t, nw, 1)
	l := hub.Socket(netstack.TCP)
	l.Bind(80)
	l.Listen(8)
	var leaves []*netstack.Stack
	for i := 0; i < 3; i++ {
		leaf := mkStack(t, nw, netstack.IP(i+2))
		c := leaf.Socket(netstack.TCP)
		if err := c.Connect(netstack.Addr{IP: 1, Port: 80}); err != nil {
			t.Fatal(err)
		}
		leaves = append(leaves, leaf)
	}
	drive(t, w, func() bool { return l.AcceptPending() == 3 })
	for l.AcceptPending() > 0 {
		l.Accept()
	}
	all := append([]*netstack.Stack{hub}, leaves...)
	images := freezeCheckpoint(t, all...)
	for _, st := range all {
		nw.Detach(st)
	}
	plans, err := PlanRestart(images)
	if err != nil {
		t.Fatal(err)
	}
	done := 0
	for ip, img := range images {
		st := mkStack(t, nw, ip)
		r := NewRestorer(st, img, plans[ip], func(err error) {
			if err != nil {
				t.Fatalf("restore: %v", err)
			}
			done++
		})
		r.acceptFirst = true
		r.Start()
	}
	drive(t, w, func() bool { return done == len(images) })
}
