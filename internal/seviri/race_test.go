//go:build race

package seviri

// The race detector slows the oracle's per-pixel loops about eightfold;
// under it TestAcquireMatchesOracle samples the day as -short does.
func init() { raceDetector = true }
