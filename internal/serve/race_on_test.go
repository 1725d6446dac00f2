//go:build race

package serve

// raceDetectorEnabled reports whether this test binary was built with -race:
// the detector's own allocations are not the server's, and its slowdown
// makes the largest machines too slow to simulate in a test.
const raceDetectorEnabled = true
