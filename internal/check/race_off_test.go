//go:build !race

package check_test

const raceDetectorEnabled = false
