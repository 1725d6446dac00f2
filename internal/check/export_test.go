package check

// SetSweepHook installs f to run at the start of each of m's structural
// sweeps, before the sweep reads the arrays' marks.
func SetSweepHook(m *Monitor, f func()) { m.onSweep = f }
