package faultinject

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"zapc/internal/core"
	"zapc/internal/memfs"
	"zapc/internal/sim"
	"zapc/internal/vos"
)

func TestTimeTriggerFiresAndRecords(t *testing.T) {
	w := sim.NewWorld(1)
	inj := New(w, nil)
	hit := false
	inj.At(10*sim.Millisecond, "boom", func() { hit = true })
	w.Run()
	if !hit {
		t.Fatal("action did not fire")
	}
	fired := inj.Fired()
	if len(fired) != 1 || fired[0].Name != "boom" || fired[0].T != sim.Time(10*sim.Millisecond) {
		t.Fatalf("fired = %v", fired)
	}
}

func TestProgressTriggerFiresOnce(t *testing.T) {
	w := sim.NewWorld(1)
	inj := New(w, nil)
	// Progress advances with simulated time: 0 at t=0, 1 at t=1s.
	inj.SetProgressProbe(func() float64 {
		return float64(w.Now()) / float64(sim.Second)
	}, 10*sim.Millisecond)
	count := 0
	inj.AtProgress(0.5, "half", func() { count++ })
	w.RunUntil(sim.Time(2 * sim.Second))
	if count != 1 {
		t.Fatalf("fired %d times, want 1", count)
	}
	fired := inj.Fired()
	if len(fired) != 1 {
		t.Fatalf("fired = %v", fired)
	}
	// The 50%% threshold on a 10ms cadence trips at the first poll at or
	// after t=500ms.
	if fired[0].T < sim.Time(500*sim.Millisecond) || fired[0].T > sim.Time(520*sim.Millisecond) {
		t.Fatalf("fired at %v", fired[0].T)
	}
}

// arm arms steps on inj and runs the world until they have fired.
func arm(t *testing.T, w *sim.World, inj *Injector, steps ...Step) {
	t.Helper()
	if err := inj.Arm(steps); err != nil {
		t.Fatal(err)
	}
	w.RunUntil(w.Now() + sim.Time(sim.Millisecond))
}

func TestCorruptFileFlipsOneByte(t *testing.T) {
	w := sim.NewWorld(1)
	fs := memfs.New()
	orig := []byte("abcdefgh")
	if err := fs.WriteFile("d/x.img", append([]byte(nil), orig...)); err != nil {
		t.Fatal(err)
	}
	arm(t, w, New(w, fs), Step{After: sim.Millisecond, Action: ActCorruptImage, Path: "d"})
	got, _ := fs.ReadFile("d/x.img")
	diff := 0
	for i := range orig {
		if got[i] != orig[i] {
			diff++
		}
	}
	if diff != 1 || got[len(got)/2] == orig[len(orig)/2] {
		t.Fatalf("corruption changed %d bytes: %q -> %q", diff, orig, got)
	}
}

func TestCorruptNewestPicksLexicallyLast(t *testing.T) {
	w := sim.NewWorld(1)
	fs := memfs.New()
	fs.WriteFile("g/gen0000/a.img", []byte("older-generation"))
	fs.WriteFile("g/gen0001/a.img", []byte("newer-generation"))
	arm(t, w, New(w, fs), Step{After: sim.Millisecond, Action: ActCorruptImage, Path: "g"})
	oldData, _ := fs.ReadFile("g/gen0000/a.img")
	newData, _ := fs.ReadFile("g/gen0001/a.img")
	if string(oldData) != "older-generation" {
		t.Fatal("older generation was touched")
	}
	if string(newData) == "newer-generation" {
		t.Fatal("newest generation was not corrupted")
	}
}

func TestCtrlHookDropBudgetAndDelayWindow(t *testing.T) {
	w := sim.NewWorld(1)
	inj := New(w, nil)
	hook := inj.CtrlHook()

	arm(t, w, inj, Step{After: sim.Millisecond, Action: ActDropControl, Count: 2})
	for i := 0; i < 2; i++ {
		if drop, _ := hook(); !drop {
			t.Fatalf("message %d not dropped", i)
		}
	}
	if drop, _ := hook(); drop {
		t.Fatal("drop budget did not expire")
	}

	arm(t, w, inj, Step{Name: "slow", After: sim.Millisecond, Action: ActDelayControl,
		Delay: 5 * sim.Millisecond, Window: 100 * sim.Millisecond})
	if _, d := hook(); d != 5*sim.Millisecond {
		t.Fatalf("delay = %v inside window", d)
	}
	w.RunUntil(w.Now() + sim.Time(200*sim.Millisecond))
	if _, d := hook(); d != 0 {
		t.Fatalf("delay = %v after window closed", d)
	}
}

func TestPhaseTriggerSkipsOccurrences(t *testing.T) {
	w := sim.NewWorld(1)
	inj := New(w, nil)
	fired := 0
	inj.OnPhase(core.PhaseCheckpointStart, 1, "second-start", func() { fired++ })
	inj.OnPhase(core.PhaseMetaSync, 0, "other-phase", func() { t.Fatal("wrong phase fired") })
	// Deliver phase notifications the way a manager with ObservePhases
	// installed would.
	for i := 0; i < 3; i++ {
		inj.phaseEvent(core.PhaseCheckpointStart)
	}
	if fired != 1 {
		t.Fatalf("fired %d times, want exactly once (on the second occurrence)", fired)
	}
	if recs := inj.Fired(); len(recs) != 1 || recs[0].Name != "second-start" {
		t.Fatalf("records = %v", recs)
	}
}

// TestArmValidation pins what Arm refuses, by error class, each error
// naming the step: the grammar, and what needs the injector — a probe,
// an FS, a target in its Env.
func TestArmValidation(t *testing.T) {
	w := sim.NewWorld(1)
	fs := memfs.New()
	n := vos.NewNode(w, "n0", 1)

	cases := []struct {
		name string
		fs   *memfs.FS
		step Step
		want error
	}{
		{"no trigger", fs, Step{Action: ActCrashNode}, ErrBadStep},
		{"two triggers", fs, Step{After: sim.Second, Progress: 0.5, Action: ActCrashNode}, ErrBadStep},
		{"progress without probe", fs, Step{Progress: 0.5, Action: ActCrashNode}, ErrBadStep},
		{"node index outside the cluster", fs, Step{After: sim.Second, Action: ActCrashNode, Node: 1}, ErrNoTarget},
		{"crash-manager without manager", fs, Step{After: sim.Second, Action: ActCrashManager}, ErrNoTarget},
		{"recover-manager without manager", fs, Step{After: sim.Second, Action: ActRecoverManager}, ErrNoTarget},
		{"truncation without a store", fs, Step{After: sim.Second, Action: ActTruncateStream}, ErrNoTarget},
		{"feed cut without a feed", fs, Step{After: sim.Second, Action: ActTruncateFeed}, ErrNoTarget},
		{"corrupt without path", fs, Step{After: sim.Second, Action: ActCorruptImage}, ErrNoTarget},
		{"corrupt without an FS", nil, Step{After: sim.Second, Action: ActCorruptImage, Path: "g"}, ErrBadStep},
		{"delay without window", fs, Step{After: sim.Second, Action: ActDelayControl}, ErrBadStep},
		{"unknown action", fs, Step{After: sim.Second}, ErrBadStep},
	}
	for _, tc := range cases {
		inj := New(w, tc.fs)
		inj.Env.Nodes = []*vos.Node{n}
		tc.step.Name = "bad"
		if err := inj.Arm([]Step{tc.step}); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		} else if !strings.Contains(err.Error(), "step 0 (bad)") {
			t.Errorf("%s: error %q does not name the step", tc.name, err)
		}
	}
	w.Run()
	if n.Failed() {
		t.Fatal("invalid schedules must arm nothing")
	}
}

// TestDeterministicReplay runs an identical schedule in two fresh worlds
// with the same seed and asserts the fired faults are bit-identical —
// the property that makes injected failures reproducible.
func TestDeterministicReplay(t *testing.T) {
	run := func() []Record {
		w := sim.NewWorld(77)
		fs := memfs.New()
		fs.WriteFile("g/gen0000/a.img", []byte("generation-zero!"))
		n := vos.NewNode(w, "n0", 1)
		inj := New(w, fs)
		inj.Env.Nodes = []*vos.Node{n}
		inj.SetProgressProbe(func() float64 {
			// Progress with deterministic jitter from the world's RNG.
			p := float64(w.Now()) / float64(sim.Second)
			return p + w.Rand().Float64()*1e-9
		}, 25*sim.Millisecond)
		if err := inj.Arm([]Step{
			{Name: "drop", After: 100 * sim.Millisecond, Action: ActDropControl, Count: 3},
			{Name: "corrupt", Progress: 0.4, Action: ActCorruptImage, Path: "g"},
			{Name: "kill", Progress: 0.8, Action: ActCrashNode, Node: 0},
			{Name: "delay", After: 600 * sim.Millisecond, Action: ActDelayControl,
				Delay: sim.Millisecond, Window: 50 * sim.Millisecond},
		}); err != nil {
			t.Fatal(err)
		}
		w.RunUntil(sim.Time(2 * sim.Second))
		return inj.Fired()
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("replay diverged:\n%v\n%v", a, b)
	}
	if len(a) != 4 {
		t.Fatalf("fired %d faults, want 4: %v", len(a), a)
	}
}
