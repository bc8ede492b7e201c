//go:build !race

package boost

const raceEnabled = false
