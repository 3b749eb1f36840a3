//go:build race

package litmus

// The race detector makes sync.Pool drop objects at random, and core
// draws its validity checkers from one, so allocation counts stop being
// repeatable.
func init() { raceEnabled = true }
