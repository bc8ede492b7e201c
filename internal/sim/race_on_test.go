//go:build race

package sim_test

// raceEnabled reports a -race build, whose runtime drops a share of
// sync.Pool puts on purpose, so pooled scratch re-allocates and
// allocation counts stop being meaningful.
const raceEnabled = true
