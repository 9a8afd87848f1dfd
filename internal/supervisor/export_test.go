package supervisor

import "zapc/internal/ckpt"

// Attempt exposes the current retry attempt counter to the external tests.
func (s *Supervisor) Attempt() int { return s.attempt }

// Policy returns the effective (defaulted) policy.
func (s *Supervisor) Policy() Policy { return s.pol }

// CheckGeneration reruns the commit check on the retained generation at
// index gi — the work its commit did — for the tests that meter it.
func (s *Supervisor) CheckGeneration(gi int) error { return s.checkGeneration(gi) }

// Memo returns the commit memo of every retained generation: by record
// path, the chain head its pod stood at after it.
func (s *Supervisor) Memo() map[string]ckpt.Chain {
	memo := make(map[string]ckpt.Chain)
	for _, g := range s.gens {
		for path, head := range g.heads {
			memo[path] = head
		}
	}
	return memo
}
