package pod

import (
	"testing"
	"testing/quick"

	"zapc/internal/netstack"
	"zapc/internal/sim"
	"zapc/internal/vos"
)

// Property: for any interleaving of AddProcess and AddRestoredProcess
// calls, virtual PIDs stay unique within the pod, fresh allocations
// never collide with restored ones, and Procs lists them in order.
func TestQuickVPIDUniqueness(t *testing.T) {
	f := func(ops []uint8) bool {
		w := sim.NewWorld(2)
		nw := netstack.NewNetwork(w)
		n := vos.NewNode(w, "n", 1)
		p, err := New("q", n, nw, 1)
		if err != nil {
			return false
		}
		seen := map[vos.PID]bool{}
		for _, op := range ops {
			if op%3 == 0 {
				// Restore at an arbitrary VPID; duplicates must be
				// rejected, non-duplicates recorded.
				vpid := vos.PID(op%32 + 1)
				proc, err := p.AddRestoredProcess(&spinner{}, vpid)
				if seen[vpid] {
					if err == nil {
						return false // accepted duplicate
					}
					continue
				}
				if err != nil || proc.VPID != vpid {
					return false
				}
				seen[vpid] = true
			} else {
				proc := p.AddProcess(&spinner{})
				if proc == nil || seen[proc.VPID] {
					return false
				}
				seen[proc.VPID] = true
			}
		}
		procs := p.Procs()
		for i, proc := range procs {
			if i > 0 && procs[i-1].VPID >= proc.VPID {
				return false // out of virtual-PID order
			}
			if got, ok := p.Lookup(proc.VPID); !ok || got != proc {
				return false
			}
		}
		return len(procs) == len(seen)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: suspend/resume cycles never lose processes and always reach
// quiescence.
func TestQuickSuspendResumeCycles(t *testing.T) {
	f := func(cycles uint8, procs uint8) bool {
		w := sim.NewWorld(3)
		nw := netstack.NewNetwork(w)
		n := vos.NewNode(w, "n", 2)
		p, err := New("q", n, nw, 1)
		if err != nil {
			return false
		}
		count := int(procs%5) + 1
		for i := 0; i < count; i++ {
			p.AddProcess(&spinner{})
		}
		for c := 0; c < int(cycles%6); c++ {
			p.Suspend()
			p.BlockNetwork()
			deadline := w.Now() + sim.Time(sim.Second)
			for !p.Quiescent() && w.Now() < deadline {
				if !w.Step() {
					break
				}
			}
			if !p.Quiescent() {
				return false
			}
			p.UnblockNetwork()
			p.Resume()
			w.RunUntil(w.Now() + sim.Time(10*sim.Millisecond))
		}
		return len(p.Procs()) == count
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
