// Regression fixtures. A fixture is a self-contained, replayable record
// of one chaos finding: seed, full scenario config, (minimized)
// schedule, and the verdict it must reproduce. Fixtures are
// byte-deterministic JSON so the corpus under testdata/chaos diffs
// cleanly and identical sweeps produce identical files.
package chaos

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"zapc/internal/faultinject"
)

// FixtureSchema is bumped when the fixture format changes incompatibly;
// decoding rejects unknown schemas instead of replaying a different
// scenario than the one recorded.
const FixtureSchema = 1

// Fixture is one corpus entry.
type Fixture struct {
	Schema int    `json:"schema"`
	Seed   int64  `json:"seed"`
	Note   string `json:"note,omitempty"`

	Config   Config               `json:"config"`
	Schedule faultinject.Schedule `json:"schedule"`
	Verdict  Verdict              `json:"verdict"`
}

// Name is the fixture's canonical file name: the seed plus the verdict
// class it pins.
func (f Fixture) Name() string {
	slug := string(f.Verdict.Outcome)
	if f.Verdict.ErrName != "" {
		slug = strings.ToLower(f.Verdict.ErrName)
	}
	return fmt.Sprintf("seed%04d-%s.json", f.Seed, slug)
}

// Replay re-runs the fixture's scenario and returns the fresh verdict;
// callers compare it against f.Verdict with Same.
func (f Fixture) Replay() (Verdict, error) {
	return NewRunner(f.Config).Run(f.Seed, f.Schedule)
}

// EncodeFixture serializes a fixture as deterministic indented JSON,
// validating the embedded schedule first.
func EncodeFixture(f Fixture) ([]byte, error) {
	if f.Schema == 0 {
		f.Schema = FixtureSchema
	}
	if err := f.Schedule.Validate(); err != nil {
		return nil, fmt.Errorf("chaos: fixture seed %d: %w", f.Seed, err)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(f); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeFixture parses a fixture strictly: unknown fields, bytes after
// the fixture, unknown schema versions, and invalid schedules
// (Schedule.UnmarshalJSON) are all refused loudly.
func DecodeFixture(data []byte) (Fixture, error) {
	var f Fixture
	if err := faultinject.DecodeStrict(data, &f); err != nil {
		return Fixture{}, fmt.Errorf("chaos: bad fixture: %w", err)
	}
	if f.Schema != FixtureSchema {
		return Fixture{}, fmt.Errorf("chaos: fixture schema %d, this build reads %d", f.Schema, FixtureSchema)
	}
	return f, nil
}

// LoadFixture reads one fixture file.
func LoadFixture(path string) (Fixture, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Fixture{}, err
	}
	f, err := DecodeFixture(data)
	if err != nil {
		return Fixture{}, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// WriteFixture writes f under dir with its canonical name, creating the
// directory if needed, and returns the path.
func WriteFixture(dir string, f Fixture) (string, error) {
	data, err := EncodeFixture(f)
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, f.Name())
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// LoadCorpus reads every *.json fixture under dir, sorted by file name.
// A missing directory is an empty corpus, not an error.
func LoadCorpus(dir string) ([]Fixture, []string, error) {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil, nil
	}
	if err != nil {
		return nil, nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".json") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	fixtures := make([]Fixture, 0, len(names))
	for _, name := range names {
		f, err := LoadFixture(filepath.Join(dir, name))
		if err != nil {
			return nil, nil, err
		}
		fixtures = append(fixtures, f)
	}
	return fixtures, names, nil
}
