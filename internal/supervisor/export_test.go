package supervisor

// Attempt exposes the current retry attempt counter to the external tests.
func (s *Supervisor) Attempt() int { return s.attempt }
