package supervisor

import (
	"strings"
	"testing"

	"zapc/internal/imagestore"
	"zapc/internal/memfs"
	"zapc/internal/trace"
)

// TestCountersMatchStats: the registry's retry and GC counters count what
// Stats.Retries and Stats.GCCollected count. The two kinds they share a
// log event with are not retries or collected generations: a checkpoint
// aborted by a failover diverts to recovery, and a dedup sweep collects
// orphaned blocks. Both log, and neither moves a counter.
func TestCountersMatchStats(t *testing.T) {
	r := newRig(t)
	reg := trace.NewRegistry()
	r.s.SetTracer(nil, reg)

	r.s.checkpointAttempt()
	r.s.nodeDown(r.nodes[0])
	r.runUntil(stIdle)
	if n := len(r.s.EventsOf(EvRetry)); n != 1 {
		t.Fatalf("%d retry events, want the one divert (events %v)", n, r.s.events)
	}

	fs := memfs.New()
	if err := fs.WriteFile("!dedup/"+strings.Repeat("d", 64), []byte("a block no manifest references")); err != nil {
		t.Fatal(err)
	}
	r.s.t.Store = imagestore.NewDedup(fs)
	gcEvents := len(r.s.EventsOf(EvGC))
	r.s.sweepStore()
	if n := len(r.s.EventsOf(EvGC)) - gcEvents; n != 1 {
		t.Fatalf("%d GC events from the sweep, want 1 (events %v)", n, r.s.events)
	}

	st := r.s.Stats()
	for name, want := range map[string]int64{
		"supervisor_ckpt_retries_total": int64(st.Retries),
		"supervisor_gc_total":           int64(st.GCCollected),
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, Stats says %d", name, got, want)
		}
	}
}
