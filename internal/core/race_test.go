//go:build race

package core

// The race detector slows an acquisition about tenfold; under it
// TestSoak services one day, as -short does.
func init() { raceDetector = true }
