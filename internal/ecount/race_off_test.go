//go:build !race

package ecount

const raceEnabled = false
