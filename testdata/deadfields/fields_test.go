package deadfields

import "testing"

// A test's read does not count.
func TestReads(t *testing.T) { _ = state{}.deadTestOnly }
