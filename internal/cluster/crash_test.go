package cluster

import (
	"testing"

	"zapc/internal/sim"
)

// A crash's survivors park. Node 1 of a four-rank bt fails once the job
// computes (2 ms after launch) and while it still connects (10 µs after,
// when one survivor's connect to it is refused and another's inbound
// connection from it is reset before it names its rank). Either way the
// survivors learn of the end at once, since the failed node's sockets
// close, and wait for the job to be replaced: the next 50 ms take a few
// dozen events. A survivor that kept waiting on an ended connection,
// which poll reports ready forever, would spin through tens of
// thousands.
func TestCrashSurvivorsPark(t *testing.T) {
	const (
		window = 50 * sim.Millisecond
		bound  = 250 // events in the window; the survivors take 83 and 42
	)
	for _, at := range []sim.Duration{2 * sim.Millisecond, 10 * sim.Microsecond} {
		c := New(Config{Nodes: 4, Seed: 7})
		if _, err := c.Launch(JobSpec{App: "bt", Endpoints: 4, Work: 0.05, Scale: 0.001}); err != nil {
			t.Fatal(err)
		}
		c.W.RunUntil(c.W.Now() + sim.Time(at))
		c.Nodes[1].Fail()
		before := c.W.Events()
		c.W.RunUntil(c.W.Now() + sim.Time(window))
		if n := c.W.Events() - before; n > bound {
			t.Errorf("crash %v after launch: %d events in the next %v, want at most %d", at, n, window, bound)
		}
	}
}
