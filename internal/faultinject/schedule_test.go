package faultinject

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"zapc/internal/core"
	"zapc/internal/imagestore"
	"zapc/internal/memfs"
	"zapc/internal/sim"
	"zapc/internal/vos"
)

func sampleSchedule() Schedule {
	return Schedule{Steps: []Step{
		{Name: "kill", Progress: 0.5, Action: ActCrashNode, Node: 1},
		{Name: "corrupt", After: 2 * sim.Second, Action: ActCorruptImage, Path: "chaos"},
		{Name: "drop", Phase: core.PhaseCheckpointStart, Action: ActDropControl, Count: 4},
		{Name: "slow", After: sim.Second, Action: ActDelayControl,
			Delay: 5 * sim.Millisecond, Window: sim.Second},
		{Name: "cut", Phase: core.PhaseRestartStart, Action: ActTruncateReads, Count: 1},
	}}
}

// named reports whether err is one of the schedule error classes.
func named(err error) bool {
	return errors.Is(err, ErrBadStep) || errors.Is(err, ErrNoTarget) || errors.Is(err, ErrDupStep)
}

func TestScheduleJSONRoundTrip(t *testing.T) {
	s := sampleSchedule()
	data, err := EncodeSchedule(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Schedule
	if err := back.UnmarshalJSON(data); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, back) {
		t.Fatalf("round trip diverged:\n%+v\n%+v", s, back)
	}
	// Encoding is byte-deterministic — fixtures diff cleanly.
	again, err := EncodeSchedule(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Fatal("re-encoding produced different bytes")
	}
}

func TestScheduleValidationNamesBadStep(t *testing.T) {
	cases := []struct {
		label string
		s     Schedule
		want  string // substring the error must carry
	}{
		{"no trigger", Schedule{Steps: []Step{{Name: "x", Action: ActCrashNode}}}, "step 0 (x)"},
		{"two triggers", Schedule{Steps: []Step{
			{Name: "y", After: 1, Progress: 0.5, Action: ActCrashNode}}}, "step 0 (y)"},
		{"unknown action", Schedule{Steps: []Step{{After: 1}}}, "step 0 names unknown action"},
		{"unknown phase", Schedule{Steps: []Step{
			{Phase: core.PhaseRestartDone + 1, Action: ActDropControl}}}, "step 0 names unknown phase"},
		{"corrupt without path", Schedule{Steps: []Step{
			{After: 1, Action: ActCorruptImage}}}, "step 0 corrupt-image without path"},
		{"delay without window", Schedule{Steps: []Step{
			{After: 1, Action: ActDelayControl}}}, "step 0 delay-control needs delay_ns and window_ns"},
		{"progress out of range", Schedule{Steps: []Step{
			{Progress: 1.5, Action: ActCrashNode}}}, "step 0 progress 1.5 is outside (0,1]"},
		{"negative node", Schedule{Steps: []Step{
			{Name: "k", After: 1, Action: ActCrashNode, Node: -1}}}, "step 0 (k) crash-node with negative node index"},
		{"duplicate names", Schedule{Steps: []Step{
			{Name: "dup", After: 1, Action: ActDropControl},
			{Name: "dup", After: 2, Action: ActDropControl}}}, `steps 0 and 1 are both named "dup"`},
	}
	for _, tc := range cases {
		err := tc.s.Validate()
		if err == nil {
			t.Errorf("%s: accepted", tc.label)
			continue
		}
		if !named(err) {
			t.Errorf("%s: unnamed error %v", tc.label, err)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not contain %q", tc.label, err, tc.want)
		}
	}
}

// TestDecodeScheduleRejectsUnknownFields covers what only the JSON form
// can carry: fields and names outside the grammar, refused naming the
// step, and bytes after the schedule.
func TestDecodeScheduleRejectsUnknownFields(t *testing.T) {
	cases := []struct {
		label, json, want string
	}{
		{"unknown field", `{"steps":[{"action":"drop-control","after_ns":1,"blast_radius":3}]}`, `step 0: json: unknown field "blast_radius"`},
		{"unknown action", `{"steps":[{"after_ns":1,"action":"drop-control"},{"after_ns":1,"action":"set-on-fire"}]}`, `step 1: unknown action "set-on-fire"`},
		{"unknown phase", `{"steps":[{"phase":"warp","action":"drop-control"}]}`, `step 0: unknown phase "warp"`},
		{"unknown schedule field", `{"steps":[],"seed":1}`, `unknown field "seed"`},
		{"trailing garbage", `{"steps":[]} garbage`, `after the JSON value`},
		{"trailing bracket", `{"steps":[]}]`, `after the JSON value`},
		{"second value", `{"steps":[]}{"schema": 7}`, `after the JSON value`},
	}
	for _, tc := range cases {
		err := new(Schedule).UnmarshalJSON([]byte(tc.json))
		if !errors.Is(err, ErrBadStep) {
			t.Errorf("%s: err = %v, want ErrBadStep", tc.label, err)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not contain %q", tc.label, err, tc.want)
		}
	}
}

// TestArmResolvesTargets arms the symbolic schedule on an injector whose
// Env holds the targets: each fault lands on the one its step names
// (TestArmValidation holds the missing ones).
func TestArmResolvesTargets(t *testing.T) {
	w := sim.NewWorld(1)
	fs := memfs.New()
	fs.WriteFile("chaos/gen0000/a.img", []byte("generation-zero!"))
	nodes := []*vos.Node{vos.NewNode(w, "n0", 1), vos.NewNode(w, "n1", 1)}
	inj := New(w, fs)
	inj.Env = Env{Nodes: nodes, Trunc: imagestore.Truncating(imagestore.NewFS(fs))}
	inj.SetProgressProbe(func() float64 { return float64(w.Now()) / float64(4*sim.Second) }, 0)
	if err := inj.Arm(sampleSchedule().Steps); err != nil {
		t.Fatal(err)
	}
	w.RunUntil(sim.Time(3 * sim.Second))
	inj.phaseEvent(core.PhaseRestartStart)
	if !nodes[1].Failed() || nodes[0].Failed() {
		t.Fatalf("crash-node 1 failed n0=%v n1=%v", nodes[0].Failed(), nodes[1].Failed())
	}
	if _, err := inj.Env.Trunc.Open("chaos/gen0000/a.img"); err != nil || len(inj.Env.Trunc.Cuts()) != 1 {
		t.Fatalf("truncate-reads did not arm the env store: %v, cuts %v", err, inj.Env.Trunc.Cuts())
	}
}

// TestArmRejectsDuplicateNames pins the schedule-level rule on the Arm
// path too, where an unnamed step is named by its canonical position.
func TestArmRejectsDuplicateNames(t *testing.T) {
	w := sim.NewWorld(1)
	inj := New(w, memfs.New())
	for _, steps := range [][]Step{
		{
			{Name: "same", After: sim.Second, Action: ActDropControl},
			{Name: "same", After: 2 * sim.Second, Action: ActDropControl},
		},
		{
			{After: sim.Second, Action: ActDropControl},
			{Name: "step0:drop-control", After: 2 * sim.Second, Action: ActDropControl},
		},
	} {
		if err := inj.Arm(steps); !errors.Is(err, ErrDupStep) {
			t.Fatalf("err = %v, want ErrDupStep", err)
		}
	}
	w.Run()
	if len(inj.Fired()) != 0 {
		t.Fatal("schedule error must arm nothing")
	}
}

// TestArmOrderIndependent arms the same schedule in two declaration
// orders and asserts the fired records are identical — canonical
// ordering makes (seed, schedule) replay stable.
func TestArmOrderIndependent(t *testing.T) {
	run := func(perm func(s []Step) []Step) []Record {
		w := sim.NewWorld(9)
		inj := New(w, memfs.New())
		steps := []Step{
			// Three faults at the same instant: only canonical ordering
			// keeps their firing (and hence record) order stable.
			{Name: "b-drop", After: 100 * sim.Millisecond, Action: ActDropControl, Count: 1},
			{Name: "a-delay", After: 100 * sim.Millisecond, Action: ActDelayControl,
				Delay: sim.Millisecond, Window: sim.Second},
			{Name: "c-drop", After: 100 * sim.Millisecond, Action: ActDropControl, Count: 2},
			{Name: "later", After: 300 * sim.Millisecond, Action: ActDropControl},
		}
		if err := inj.Arm(perm(steps)); err != nil {
			t.Fatal(err)
		}
		w.RunUntil(sim.Time(sim.Second))
		return inj.Fired()
	}
	fwd := run(func(s []Step) []Step { return s })
	rev := run(func(s []Step) []Step {
		out := make([]Step, len(s))
		for i, st := range s {
			out[len(s)-1-i] = st
		}
		return out
	})
	if !reflect.DeepEqual(fwd, rev) {
		t.Fatalf("declaration order changed the replay:\n%v\n%v", fwd, rev)
	}
	if len(fwd) != 4 {
		t.Fatalf("fired %d faults, want 4", len(fwd))
	}
}

// FuzzDecodeSchedule feeds the schedule decoder arbitrary bytes, seeded
// with the schedule of every chaos fixture. Every input either fails
// with a named schedule error or decodes to a schedule whose encoding
// decodes back to it and re-encodes to itself.
func FuzzDecodeSchedule(f *testing.F) {
	paths, _ := filepath.Glob("../../testdata/chaos/*.json")
	for _, p := range paths {
		var fx struct{ Schedule json.RawMessage }
		data, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(data, &fx)
		}
		if err != nil || fx.Schedule == nil {
			f.Fatalf("%s: no schedule to seed from: %v", p, err)
		}
		f.Add([]byte(fx.Schedule))
	}
	sample, _ := EncodeSchedule(sampleSchedule())
	f.Add(sample)
	f.Fuzz(func(t *testing.T, data []byte) {
		var s Schedule
		if err := s.UnmarshalJSON(data); err != nil {
			if !named(err) {
				t.Fatalf("unnamed error: %v", err)
			}
			return
		}
		enc, err := EncodeSchedule(s)
		if err != nil {
			t.Fatalf("decoded schedule does not encode: %v", err)
		}
		var back Schedule
		if err := back.UnmarshalJSON(enc); err != nil {
			t.Fatalf("encoding does not decode: %v\n%s", err, enc)
		}
		if !reflect.DeepEqual(s, back) {
			t.Fatalf("decode(encode(s)) != s:\n%+v\n%+v", s, back)
		}
		again, err := EncodeSchedule(back)
		if err != nil || !bytes.Equal(enc, again) {
			t.Fatalf("re-encoding is not a fixed point (%v):\n%s\n%s", err, enc, again)
		}
	})
}
