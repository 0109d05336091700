//go:build race

package profstore

// The race detector makes sync.Pool drop items at random, so pooled paths
// allocate more under it than they do in a normal build.
const raceEnabled = true
