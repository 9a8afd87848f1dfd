// Delta-debugging schedule minimization. When a (seed, schedule) run
// violates the invariant — or produces a named error worth pinning —
// the minimizer shrinks the schedule to a locally minimal reproducer:
// the smallest step subset (preserving order) from which no single step
// can be removed without losing the verdict. Every candidate is a full
// deterministic re-run, so the result is exact, not heuristic.
package chaos

import "zapc/internal/faultinject"

// Minimize shrinks sched to a locally minimal schedule that still
// reproduces verdict want (replay equality) under seed. It returns the
// minimized schedule, its verdict, and how many candidate runs the
// search used. The input schedule is not modified.
func (r *Runner) Minimize(seed int64, sched faultinject.Schedule, want Verdict) (faultinject.Schedule, Verdict, int, error) {
	cur, v := sched, want
	runs := 0
	for changed := true; changed && len(cur.Steps) > 1; {
		changed = false
		for i := 0; i < len(cur.Steps); i++ {
			cand := dropStep(cur, i)
			got, err := r.Run(seed, cand)
			if err != nil {
				return cur, v, runs, err
			}
			runs++
			if got.Same(want) {
				cur, v = cand, got
				changed = true
				i-- // the step now at i has not been tried against cur
			}
		}
	}
	return cur, v, runs, nil
}

func dropStep(s faultinject.Schedule, i int) faultinject.Schedule {
	out := make([]faultinject.Step, 0, len(s.Steps)-1)
	out = append(out, s.Steps[:i]...)
	out = append(out, s.Steps[i+1:]...)
	return faultinject.Schedule{Steps: out}
}
