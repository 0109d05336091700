//go:build !race

package profstore

const raceEnabled = false
