//go:build race

package simcache

// The race detector makes sync.Pool drop objects at random, so fmt's
// printer pool behind Key.Digest allocates on some calls and allocation
// counts stop being repeatable.
func init() { raceEnabled = true }
