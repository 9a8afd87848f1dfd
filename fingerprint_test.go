package zapc_test

// The simulation, pinned by what it did rather than by what it cost:
// the canonical traced run's event log, every chaos verdict of the
// corpus seed bands, and the number of events each pinned job runs. A
// refactor or a host-only change leaves testdata/sim_fingerprint.json
// untouched. A change that moves the simulation on purpose runs
// `make fingerprint` (the test below with ZAPC_FINGERPRINT_WRITE=1) and
// says which component moved and why, as for `make baseline`.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"testing"

	"zapc/internal/chaos"
	"zapc/internal/experiments"
)

const (
	fingerprintFile     = "testdata/sim_fingerprint.json"
	fingerprintWideFile = "testdata/sim_fingerprint_wide.json"
)

// A component's pin: how many items it holds (events, verdicts, jobs)
// and the SHA-256 of their text, one line each.
type pinned struct {
	Count  int    `json:"count"`
	SHA256 string `json:"sha256"`
}

type seedBand struct{ lo, hi int64 }

// The seed bands a change to the recovery surface is compared on, and
// the wider ones of `make fingerprint-wide`.
var (
	corpusBands = []seedBand{{1, 40}, {10000, 10008}, {20000, 20008}}
	wideBands   = []seedBand{{1, 200}, {10000, 10200}, {20000, 20400}}
)

func pin(count int, data []byte) pinned {
	sum := sha256.Sum256(data)
	return pinned{Count: count, SHA256: hex.EncodeToString(sum[:])}
}

// traceComponent is the canonical `zapc-bench -fig trace -events` log;
// its hash is the file's.
func traceComponent(t *testing.T) pinned {
	res, err := experiments.RunTraceScenario(experiments.Config{WithDaemons: true})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Tracer.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return pin(res.Tracer.Len(), buf.Bytes())
}

// verdictComponent is every field of every verdict, the detail and the
// activity counters included, over the bands under zapc-chaos's config.
func verdictComponent(t *testing.T, bands []seedBand) pinned {
	var buf bytes.Buffer
	n := 0
	for _, b := range bands {
		results, err := chaos.Sweep(chaos.DefaultConfig(), b.lo, b.hi)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range results {
			fmt.Fprintf(&buf, "%d %#v\n", r.Seed, r.Verdict)
		}
		n += len(results)
	}
	return pin(n, buf.Bytes())
}

// jobComponent is the number of simulation events each charge-pinned job
// runs to completion.
func jobComponent(t *testing.T) pinned {
	var buf bytes.Buffer
	for _, p := range chargePins {
		c, _ := runChargePin(t, p)
		fmt.Fprintf(&buf, "%s %d\n", p.name, c.W.Events())
	}
	return pin(len(chargePins), buf.Bytes())
}

// checkFingerprint compares got with the file, naming every component
// that moved, or rewrites the file under ZAPC_FINGERPRINT_WRITE=1.
func checkFingerprint(t *testing.T, file string, got map[string]pinned) {
	enc, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	enc = append(enc, '\n')
	if os.Getenv("ZAPC_FINGERPRINT_WRITE") != "" {
		if err := os.WriteFile(file, enc, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", file)
		return
	}
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]pinned
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", file, err)
	}
	var names []string
	for name := range want {
		names = append(names, name)
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		if got[name] != want[name] {
			t.Errorf("simulation moved: %s is %+v, pinned %+v", name, got[name], want[name])
		}
	}
	if !t.Failed() && !bytes.Equal(enc, data) {
		t.Errorf("%s is not in its canonical form; regenerate it with `make fingerprint`", file)
	}
}

func TestSimulationFingerprint(t *testing.T) {
	checkFingerprint(t, fingerprintFile, map[string]pinned{
		"trace_jsonl":    traceComponent(t),
		"chaos_verdicts": verdictComponent(t, corpusBands),
		"job_events":     jobComponent(t),
	})
}

// TestSimulationFingerprintWide is `make fingerprint-wide`: the chaos
// verdicts over 802 seeds, outside `go test ./...` and `make ci` for its
// length.
func TestSimulationFingerprintWide(t *testing.T) {
	if os.Getenv("ZAPC_FINGERPRINT_WIDE") == "" {
		t.Skip("set ZAPC_FINGERPRINT_WIDE=1 (make fingerprint-wide) for the wide chaos sweep")
	}
	checkFingerprint(t, fingerprintWideFile, map[string]pinned{
		"chaos_verdicts_wide": verdictComponent(t, wideBands),
	})
}
