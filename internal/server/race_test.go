//go:build race

package server

// The race detector shadows every allocation, so heap sizes stop
// measuring what a retained job keeps.
func init() { raceEnabled = true }
