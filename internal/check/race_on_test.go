//go:build race

package check_test

// raceDetectorEnabled reports whether this test binary was built with -race:
// the oracle campaign trims itself under the race detector, whose slowdown
// buys no coverage on single-goroutine simulations.
const raceDetectorEnabled = true
