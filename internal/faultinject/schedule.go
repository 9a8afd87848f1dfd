// Declarative, serializable fault schedules. A Step's targets are
// symbolic (a node index, a store prefix), so a schedule round-trips
// through JSON byte-for-byte and a minimized failing schedule is a
// self-contained fixture — decode, Arm on an injector whose Env holds a
// fresh cluster, replay. Errors always name the bad step (index and
// name) so a hand-edited or corrupted fixture fails loudly instead of
// arming a subtly different scenario.
package faultinject

import (
	"bytes"
	"encoding/json"
	"fmt"

	"zapc/internal/core"
	"zapc/internal/sim"
)

// Action identifies a declarative fault kind. It serializes as its name.
type Action int

// Declarative fault kinds.
const (
	ActCrashNode Action = iota + 1
	ActCrashManager
	ActCorruptImage // corrupt newest file under Step.Path
	ActDropControl
	ActDelayControl
	ActTruncateStream // truncate the next Count image write streams (Env.Trunc)
	ActTruncateReads  // truncate the next Count image read streams (Env.Trunc)
	ActRecoverManager // a replacement coordination manager takes over
	ActTruncateFeed   // truncate the next Count standby replication-feed streams (Env.FeedTrunc)
)

func (a Action) String() string {
	switch a {
	case ActCrashNode:
		return "crash-node"
	case ActCrashManager:
		return "crash-manager"
	case ActCorruptImage:
		return "corrupt-image"
	case ActDropControl:
		return "drop-control"
	case ActDelayControl:
		return "delay-control"
	case ActTruncateStream:
		return "truncate-stream"
	case ActTruncateReads:
		return "truncate-reads"
	case ActRecoverManager:
		return "recover-manager"
	case ActTruncateFeed:
		return "truncate-feed"
	default:
		return fmt.Sprintf("action(%d)", int(a))
	}
}

// MarshalText writes the action's name.
func (a Action) MarshalText() ([]byte, error) { return []byte(a.String()), nil }

// UnmarshalText is the inverse of MarshalText.
func (a *Action) UnmarshalText(b []byte) error {
	for x := ActCrashNode; x <= ActTruncateFeed; x++ {
		if x.String() == string(b) {
			*a = x
			return nil
		}
	}
	return fmt.Errorf("unknown action %q", b)
}

// Step is one entry of a fault schedule. Exactly one trigger must be
// set: After (relative simulated time), Progress (probe threshold in
// (0,1], requires SetProgressProbe), or Phase (requires ObservePhases;
// PhaseSkip lets earlier occurrences pass). The parameters required
// depend on Action; targets are resolved from the injector's Env when
// the step is armed.
type Step struct {
	Name string `json:"name,omitempty"`

	// Trigger (exactly one).
	After     sim.Duration `json:"after_ns,omitempty"`
	Progress  float64      `json:"progress,omitempty"`
	Phase     core.Phase   `json:"phase,omitempty"`
	PhaseSkip int          `json:"phase_skip,omitempty"`

	Action Action       `json:"action"`
	Node   int          `json:"node,omitempty"`      // crash-node: index into Env.Nodes
	Path   string       `json:"path,omitempty"`      // corrupt-image: generation-store prefix
	Count  int          `json:"count,omitempty"`     // drop-control / truncate-*: units (default 1)
	Delay  sim.Duration `json:"delay_ns,omitempty"`  // delay-control: per-message delay
	Window sim.Duration `json:"window_ns,omitempty"` // delay-control: window length
}

// Schedule is a serializable fault schedule.
type Schedule struct {
	Steps []Step `json:"steps"`
}

func describe(i int, s Step) string {
	if s.Name != "" {
		return fmt.Sprintf("step %d (%s)", i, s.Name)
	}
	return fmt.Sprintf("step %d", i)
}

// validate is the schedule grammar, independent of any cluster: each
// step's trigger and parameters, then that no two steps fire under one
// name. The error names the first bad step.
func validate(steps []Step) error {
	names := make(map[string]int, len(steps))
	for i, s := range steps {
		triggers := 0
		if s.After > 0 {
			triggers++
		}
		if s.Progress > 0 {
			triggers++
		}
		if s.Phase != 0 {
			triggers++
		}
		switch {
		case triggers != 1:
			return fmt.Errorf("%w: %s needs exactly one trigger (after_ns, progress, or phase), has %d",
				ErrBadStep, describe(i, s), triggers)
		case s.Progress > 1:
			return fmt.Errorf("%w: %s progress %v is outside (0,1]", ErrBadStep, describe(i, s), s.Progress)
		case s.Phase < 0 || s.Phase > core.PhaseRestartDone:
			return fmt.Errorf("%w: %s names unknown phase %d", ErrBadStep, describe(i, s), int(s.Phase))
		case s.Action < ActCrashNode || s.Action > ActTruncateFeed:
			return fmt.Errorf("%w: %s names unknown action %d", ErrBadStep, describe(i, s), int(s.Action))
		case s.Action == ActCrashNode && s.Node < 0:
			return fmt.Errorf("%w: %s crash-node with negative node index %d", ErrBadStep, describe(i, s), s.Node)
		case s.Action == ActCorruptImage && s.Path == "":
			return fmt.Errorf("%w: %s corrupt-image without path", ErrNoTarget, describe(i, s))
		case s.Action == ActDelayControl && (s.Delay <= 0 || s.Window <= 0):
			return fmt.Errorf("%w: %s delay-control needs delay_ns and window_ns", ErrBadStep, describe(i, s))
		}
		name := stepName(i, s)
		if j, dup := names[name]; dup {
			return fmt.Errorf("%w: steps %d and %d are both named %q", ErrDupStep, j, i, name)
		}
		names[name] = i
	}
	return nil
}

// Validate checks the schedule grammar in declaration order.
func (s Schedule) Validate() error { return validate(s.Steps) }

// EncodeSchedule serializes a validated schedule as deterministic,
// indented JSON (the fixture format under testdata/chaos).
func EncodeSchedule(s Schedule) ([]byte, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// UnmarshalJSON decodes a schedule strictly, one step at a time, and
// validates it: unknown fields and unknown action or phase names are
// rejected naming the step, so a fixture that drifted from the grammar
// fails loudly rather than arming a different scenario.
func (s *Schedule) UnmarshalJSON(data []byte) error {
	var raw struct {
		Steps []json.RawMessage `json:"steps"`
	}
	if err := DecodeStrict(data, &raw); err != nil {
		return fmt.Errorf("%w: %v", ErrBadStep, err)
	}
	s.Steps = nil
	for i, r := range raw.Steps {
		var st Step
		if err := DecodeStrict(r, &st); err != nil {
			return fmt.Errorf("%w: step %d: %v", ErrBadStep, i, err)
		}
		s.Steps = append(s.Steps, st)
	}
	return s.Validate()
}

// DecodeStrict decodes data as exactly one JSON value into v: it refuses
// unknown fields, and anything after the value but JSON whitespace.
func DecodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if rest := bytes.TrimLeft(data[dec.InputOffset():], " \t\r\n"); len(rest) > 0 {
		return fmt.Errorf("%d bytes after the JSON value", len(rest))
	}
	return nil
}
